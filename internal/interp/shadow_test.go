package interp

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	ft "repro/internal/fortran"
	"repro/internal/numerics"
	"repro/internal/perfmodel"
	"repro/internal/transform"
)

// runShadow executes src with a shadow recorder attached and returns
// the interpreter plus the numeric profile.
func runShadow(t *testing.T, src string) (*Interp, *numerics.Profile, error) {
	t.Helper()
	rec := numerics.NewRecorder("test.ft", numerics.Options{})
	in, _, err := run(t, src, Config{Numerics: rec})
	return in, rec.Profile(), err
}

const shadowMod = `
module m
  implicit none
  real(kind=4) :: acc
  real(kind=8) :: acc8
  integer :: n
end module m
`

func TestShadowTracksFloat64Lane(t *testing.T) {
	// Accumulating 0.1 in kind-4: the primary lane rounds through f32
	// each step, the shadow lane must reproduce the f64 accumulation.
	src := shadowMod + `
program p
  use m
  implicit none
  integer :: i
  acc = 0.0
  do i = 1, 100
    acc = acc + 0.1
  end do
end program p
`
	in, p, err := runShadow(t, src)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := in.Global("m.acc")
	var want float64
	for i := 0; i < 100; i++ {
		want += 0.1
	}
	if v.Sh != want {
		t.Errorf("shadow = %v, want f64 accumulation %v", v.Sh, want)
	}
	if v.F == v.Sh {
		t.Error("primary and shadow agree exactly; f32 lane not diverging")
	}
	if p.MaxDivergence <= 0 {
		t.Errorf("profile max divergence = %v, want > 0", p.MaxDivergence)
	}
	// The accumulation is attributed to the m.acc atom.
	found := false
	for _, a := range p.Atoms {
		if a.QName == "m.acc" && a.Assigns >= 100 && a.MaxDivergence > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("m.acc atom missing or unattributed: %+v", p.Atoms)
	}
}

func TestShadowDoesNotPerturbPrimary(t *testing.T) {
	// Identical program with and without the recorder: cycles, steps,
	// and every primary-lane result must match exactly.
	src := shadowMod + `
program p
  use m
  implicit none
  integer :: i
  real(kind=4) :: x
  x = 0.5
  acc = 0.0
  do i = 1, 500
    x = x * 1.01
    acc = acc + sin(x) / 3.0
    if (x > 50.0) then
      x = 0.5
    end if
  end do
  n = nint(acc)
end program p
`
	inOff, resOff, err := run(t, src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := numerics.NewRecorder("test.ft", numerics.Options{})
	inOn, resOn, err := run(t, src, Config{Numerics: rec})
	if err != nil {
		t.Fatal(err)
	}
	if resOff.Cycles != resOn.Cycles {
		t.Errorf("cycles differ: %v vs %v", resOff.Cycles, resOn.Cycles)
	}
	if resOff.Steps != resOn.Steps {
		t.Errorf("steps differ: %d vs %d", resOff.Steps, resOn.Steps)
	}
	for _, q := range []string{"m.acc", "m.n"} {
		a, _ := inOff.Global(q)
		b, _ := inOn.Global(q)
		if a.F != b.F || a.I != b.I {
			t.Errorf("%s: primary differs with recorder: %v vs %v", q, a, b)
		}
	}
	if rec.Profile().Ops == 0 {
		t.Error("recorder attached but observed no operations")
	}
}

func TestShadowCatastrophicCancellation(t *testing.T) {
	// x carries f32 rounding error; x - y cancels ~13 bits, promoting
	// that error into the leading digits. The profile must flag the
	// subtraction statement as a catastrophic cancellation site.
	src := shadowMod + `
program p
  use m
  implicit none
  real(kind=4) :: x, y, d
  x = 1.0001
  y = 1.0
  d = x - y
  acc = d
end program p
`
	_, p, err := runShadow(t, src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cancellations < 1 || p.Catastrophic < 1 {
		t.Fatalf("cancellations=%d catastrophic=%d, want >= 1 each", p.Cancellations, p.Catastrophic)
	}
	found := false
	for _, s := range p.Statements {
		if s.Catastrophic > 0 {
			found = true
			if s.Proc != "main" {
				t.Errorf("catastrophic site proc = %q, want main", s.Proc)
			}
			if s.CancelBitsMax < 10 {
				t.Errorf("cancel bits = %v, want >= 10 (1.0001-1.0 collapses ~13 bits)", s.CancelBitsMax)
			}
		}
	}
	if !found {
		t.Fatalf("no catastrophic statement in profile: %+v", p.Statements)
	}
}

func TestShadowKind8RunHasNoDivergence(t *testing.T) {
	// A pure kind-8 program computes identically in both lanes: the
	// shadow is the computation. No divergence, no catastrophic sites.
	src := shadowMod + `
program p
  use m
  implicit none
  real(kind=8) :: x, y
  integer :: i
  acc8 = 0.0d0
  x = 1.0001d0
  y = 1.0d0
  do i = 1, 50
    acc8 = acc8 + (x - y) * 0.1d0
  end do
end program p
`
	_, p, err := runShadow(t, src)
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxDivergence != 0 {
		t.Errorf("kind-8 divergence = %v, want 0", p.MaxDivergence)
	}
	if p.Catastrophic != 0 {
		t.Errorf("kind-8 catastrophic = %d, want 0 (cancellation of error-free operands is benign)", p.Catastrophic)
	}

	// The same holds for every bundled model lowered to uniform kind 8,
	// compiled unboxed and boxed: every real module value's shadow must
	// equal its primary bit for bit.
	files, err := filepath.Glob("../models/src/*.ft")
	if err != nil || len(files) == 0 {
		t.Fatalf("no model sources found: %v", err)
	}
	for _, f := range files {
		prog := parseModelFile(t, f)
		v, err := transform.Apply(prog, transform.Uniform(transform.Atoms(prog), 8))
		if err != nil {
			t.Fatalf("%s: uniform-64 transform: %v", f, err)
		}
		for _, boxed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/boxed=%v", filepath.Base(f), boxed), func(t *testing.T) {
				rec := numerics.NewRecorder(filepath.Base(f), numerics.Options{})
				cfg := Config{Model: perfmodel.Default(), Numerics: rec}
				in, err := newInterp(v.Prog, cfg, boxed, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := in.Run(); err != nil {
					t.Fatalf("run: %v", err)
				}
				if d := rec.Profile().MaxDivergence; d != 0 {
					t.Errorf("max divergence = %v, want 0", d)
				}
				values := 0
				for _, mod := range v.Prog.Modules {
					for _, d := range mod.Decls {
						if d.Base != ft.TReal {
							continue
						}
						g, _ := in.Global(d.QName())
						if g.Arr == nil {
							values++
							if math.Float64bits(g.F) != math.Float64bits(g.Sh) {
								t.Errorf("%s: primary %.17g, shadow %.17g", d.QName(), g.F, g.Sh)
							}
							continue
						}
						if len(g.Arr.Shadow) != len(g.Arr.Data) {
							t.Errorf("%s: %d shadow values for %d primaries", d.QName(), len(g.Arr.Shadow), len(g.Arr.Data))
							continue
						}
						for k, x := range g.Arr.Data {
							values++
							if math.Float64bits(x) != math.Float64bits(g.Arr.Shadow[k]) {
								t.Errorf("%s[%d]: primary %.17g, shadow %.17g", d.QName(), k, x, g.Arr.Shadow[k])
								break
							}
						}
					}
				}
				t.Logf("%d real module values, every shadow equal to its primary", values)
			})
		}
	}
}

func TestShadowThroughCallsAndArrays(t *testing.T) {
	// Shadow values must survive scalar copy-in/copy-out, function
	// results, and array element stores (shared Shadow storage on
	// rebased argument headers).
	src := `
module w
  implicit none
  real(kind=4) :: out
contains
  function twice(v) result(r)
    real(kind=4), intent(in) :: v
    real(kind=4) :: r
    r = v * 2.0
  end function twice
  subroutine fill(a, x)
    real(kind=4), intent(inout) :: a(:)
    real(kind=4), intent(in) :: x
    integer :: j
    do j = 1, size(a)
      a(j) = x + 0.1
    end do
  end subroutine fill
end module w

program p
  use w
  implicit none
  real(kind=4) :: arr(4)
  integer :: i
  call fill(arr, 0.2)
  out = 0.0
  do i = 1, 4
    out = out + twice(arr(i))
  end do
end program p
`
	in, p, err := runShadow(t, src)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := in.Global("w.out")
	if !ok {
		t.Fatal("w.out missing")
	}
	// Shadow: ((0.2 + 0.1) * 2) * 4 at f64 — the f32 lane differs.
	want := (0.2 + 0.1) * 2 * 4
	if math.Abs(v.Sh-want) > 1e-12 {
		t.Errorf("shadow through calls = %v, want %v", v.Sh, want)
	}
	if v.F == v.Sh {
		t.Error("primary equals shadow exactly; divergence lost through calls")
	}
	if p.MaxDivergence <= 0 {
		t.Error("no divergence recorded through call/array path")
	}
}

// --- Binade-boundary intrinsic edge cases (satellite) ---

func TestNintBinadeBoundaryFlip(t *testing.T) {
	// At 2^23 the f32 ulp is 1.0: 8388608 + 0.5 rounds to even
	// (8388608) in the primary lane while the f64 shadow holds
	// 8388608.5, which nint rounds up. The primary result must follow
	// f32 semantics and the recorder must classify the discretization
	// flip.
	src := shadowMod + `
program p
  use m
  implicit none
  real(kind=4) :: x
  x = 8388608.0
  x = x + 0.5
  n = nint(x)
end program p
`
	in, p, err := runShadow(t, src)
	if err != nil {
		t.Fatal(err)
	}
	nv, _ := in.Global("m.n")
	if nv.I != 8388608 {
		t.Errorf("nint primary = %d, want 8388608 (f32 round-to-even)", nv.I)
	}
	if p.Discretizations != 1 {
		t.Errorf("discretization flips = %d, want 1", p.Discretizations)
	}
}

func TestNintExactBelowBoundary(t *testing.T) {
	// One binade lower the ulp is 0.5: 4194304.5 is exactly
	// representable and both lanes agree — no flip.
	src := shadowMod + `
program p
  use m
  implicit none
  real(kind=4) :: x
  x = 4194304.0
  x = x + 0.5
  n = nint(x)
end program p
`
	in, p, err := runShadow(t, src)
	if err != nil {
		t.Fatal(err)
	}
	nv, _ := in.Global("m.n")
	if nv.I != 4194305 {
		t.Errorf("nint primary = %d, want 4194305", nv.I)
	}
	if p.Discretizations != 0 {
		t.Errorf("discretization flips = %d, want 0", p.Discretizations)
	}
}

func TestSqrtNearOverflow(t *testing.T) {
	// 3e38 * 1.2 overflows f32 (max ≈ 3.4e38) but not f64: the first
	// non-finite must be attributed to the multiply with a finite
	// shadow (lowering-induced blowup).
	src := shadowMod + `
program p
  use m
  implicit none
  real(kind=4) :: big, r
  big = 3.0e38
  big = big * 1.2
  r = sqrt(big)
  acc = r
end program p
`
	in, p, err := runShadow(t, src)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := in.Global("m.acc")
	if !math.IsInf(v.F, 1) {
		t.Errorf("primary = %v, want +Inf (f32 overflow)", v.F)
	}
	if math.IsInf(v.Sh, 0) || math.IsNaN(v.Sh) {
		t.Errorf("shadow = %v, want finite (no f64 overflow)", v.Sh)
	}
	nf := p.FirstNonFinite
	if nf == nil {
		t.Fatal("no non-finite provenance recorded")
	}
	if nf.Op != "*" || !nf.ShadowFinite {
		t.Errorf("first non-finite = %+v, want op * with finite shadow", nf)
	}
}

func TestSqrtNearUnderflow(t *testing.T) {
	// Squaring 1e-38 flushes to zero in f32; sqrt of that is 0 while
	// the shadow stays ~1e-38 — total divergence (relative error 1).
	src := shadowMod + `
program p
  use m
  implicit none
  real(kind=4) :: s, r
  s = 1.0e-38
  r = sqrt(s * s)
  acc = r
end program p
`
	in, p, err := runShadow(t, src)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := in.Global("m.acc")
	if v.F != 0 {
		t.Errorf("primary = %v, want 0 (f32 underflow)", v.F)
	}
	if v.Sh <= 0 || v.Sh > 2e-38 {
		t.Errorf("shadow = %v, want ~1e-38", v.Sh)
	}
	if p.MaxDivergence != 1 {
		t.Errorf("max divergence = %v, want 1 (total loss)", p.MaxDivergence)
	}
}

func TestAbsIntroducesNoRounding(t *testing.T) {
	// abs is exact in any binade: the statement must show zero local
	// rounding while still propagating the operand's divergence.
	src := shadowMod + `
program p
  use m
  implicit none
  real(kind=4) :: x, y
  x = 0.0 - 0.1
  y = abs(x)
  acc = y
end program p
`
	in, p, err := runShadow(t, src)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := in.Global("m.acc")
	if v.F != float64(float32(0.1)) {
		t.Errorf("abs primary = %v, want rnd32(0.1)", v.F)
	}
	if v.Sh != 0.1 {
		t.Errorf("abs shadow = %v, want 0.1", v.Sh)
	}
	var absStmt *numerics.StmtProfile
	for i := range p.Statements {
		if p.Statements[i].Assigns > 0 && p.Statements[i].MaxDivergence > 0 && p.Statements[i].RoundErrSum == 0 {
			absStmt = &p.Statements[i]
		}
	}
	if absStmt == nil {
		t.Errorf("no zero-rounding divergence-propagating statement found: %+v", p.Statements)
	}
}

// --- Disabled-path allocation flatness ---

// TestShadowDisabledAllocFlat proves the nil-recorder hot path
// allocates nothing per iteration: total allocations for a scalar loop
// are identical at 1000 and 16000 iterations (every allocation is
// per-run setup, none per statement).
func TestShadowDisabledAllocFlat(t *testing.T) {
	allocs := func(iters int) float64 {
		src := shadowMod + fmt.Sprintf(`
program p
  use m
  implicit none
  integer :: i
  real(kind=4) :: x
  x = 0.5
  acc = 0.0
  do i = 1, %d
    x = x * 1.0000001
    acc = acc + x
    if (acc > 100.0) then
      acc = acc - 100.0
    end if
  end do
end program p
`, iters)
		prog, err := ft.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ft.Analyze(prog, ft.Options{}); err != nil {
			t.Fatal(err)
		}
		model := perfmodel.Default()
		return testing.AllocsPerRun(10, func() {
			in, err := New(prog, Config{Model: model})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := in.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(16000)
	if small != large {
		t.Errorf("allocations scale with iterations: %v @1000 vs %v @16000", small, large)
	}
}
