package perfmodel

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	ft "repro/internal/fortran"
)

func analyzeSrc(t *testing.T, src string) (*ft.Program, *Analysis) {
	t.Helper()
	prog, err := ft.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := ft.Analyze(prog, ft.Options{AllowKindMismatch: true}); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return prog, Analyze(prog, Default())
}

// firstLoop returns the first DO loop of the named procedure.
func firstLoop(t *testing.T, prog *ft.Program, proc string) *ft.DoStmt {
	t.Helper()
	p := prog.ProcMap[proc]
	if p == nil {
		t.Fatalf("no procedure %s", proc)
	}
	var out *ft.DoStmt
	ft.WalkStmts(p.Body, func(s ft.Stmt) bool {
		if do, ok := s.(*ft.DoStmt); ok && out == nil {
			out = do
		}
		return out == nil
	})
	if out == nil {
		t.Fatalf("no loop in %s", proc)
	}
	return out
}

const loopKernel = `
module k
  implicit none
  integer, parameter :: n = 100
  real(kind=8) :: a(n), b(n)
  real(kind=4) :: c(n)
contains
  subroutine uniform()
    integer :: i
    do i = 1, n
      a(i) = a(i) * 2.0d0 + b(i)
    end do
  end subroutine uniform
  subroutine mixed()
    integer :: i
    do i = 1, n
      a(i) = a(i) + c(i)
    end do
  end subroutine mixed
  subroutine recurrence()
    integer :: i
    do i = 2, n
      a(i) = a(i-1) + b(i)
    end do
  end subroutine recurrence
  subroutine masked()
    integer :: i
    do i = 1, n
      if (a(i) < 0.0d0) then
        a(i) = 0.0d0
      end if
    end do
  end subroutine masked
  subroutine reduced()
    integer :: i
    real(kind=8) :: s
    s = 0.0d0
    do i = 1, n
      s = s + a(i)
    end do
    b(1) = s
  end subroutine reduced
  subroutine nested()
    integer :: i, j
    do i = 1, n
      do j = 1, n
        a(j) = a(j) + 1.0d0
      end do
    end do
  end subroutine nested
  subroutine directive()
    integer :: i
!dir$ novector
    do i = 1, n
      a(i) = a(i) + 1.0d0
    end do
  end subroutine directive
  subroutine withexit()
    integer :: i
    do i = 1, n
      if (a(i) > 1.0d3) exit
      a(i) = a(i) + 1.0d0
    end do
  end subroutine withexit
end module k
program p
  use k
  implicit none
  call uniform()
end program p
`

func TestLoopVectorization(t *testing.T) {
	prog, an := analyzeSrc(t, loopKernel)
	cases := []struct {
		proc   string
		vec    bool
		reason string
	}{
		{"k.uniform", true, ""},
		{"k.mixed", false, "mixed precision"},
		{"k.recurrence", false, "dependence"},
		{"k.masked", true, ""},
		{"k.reduced", true, ""},
		{"k.nested", false, "inner loop"},
		{"k.directive", false, "novector"},
		{"k.withexit", false, "exit"},
	}
	for _, tc := range cases {
		d := an.Loop(firstLoop(t, prog, tc.proc))
		if d.Vectorized != tc.vec {
			t.Errorf("%s: vectorized=%v (reason %q), want %v", tc.proc, d.Vectorized, d.Reason, tc.vec)
			continue
		}
		if !tc.vec && !strings.Contains(d.Reason, tc.reason) {
			t.Errorf("%s: reason %q does not mention %q", tc.proc, d.Reason, tc.reason)
		}
	}
	d := an.Loop(firstLoop(t, prog, "k.masked"))
	if !d.Masked {
		t.Error("masked loop not flagged Masked")
	}
	if !an.Loop(firstLoop(t, prog, "k.reduced")).Reduction {
		t.Error("reduction loop not flagged Reduction")
	}
}

const keyKernel = `
module k
  implicit none
  integer, parameter :: n = 100
  real(kind=8) :: a(n), g(n, n)
contains
  subroutine column()
    integer :: j
    do j = 2, n
      g(1, j) = g(1, j-1) + 1.0d0
    end do
  end subroutine column
  subroutine reversed()
    integer :: i
    do i = 1, n
      a(i) = a(n + 1 - i)
    end do
  end subroutine reversed
  subroutine fixed()
    integer :: i
    do i = 1, n
      a(i) = a(1) + g(i, 2)
    end do
  end subroutine fixed
  subroutine rows()
    integer :: i
    do i = 1, n
      g(i, 2) = g(i, 2) + g(i, 1)
    end do
  end subroutine rows
end module k
program p
  use k
  implicit none
  call column()
end program p
`

// TestDependenceIndexKeys pins the dependence test's index keys: every
// index of an element reference takes part, the loop variable counts
// wherever in an index it appears, and a reference whose indices do
// not use it is no dependence.
func TestDependenceIndexKeys(t *testing.T) {
	prog, an := analyzeSrc(t, keyKernel)
	for proc, want := range map[string]string{
		"k.column":   "loop-carried dependence on g (1,j vs 1,j - 1)",
		"k.reversed": "loop-carried dependence on a (i vs n + 1 - i)",
		"k.fixed":    "",
		"k.rows":     "loop-carried dependence on g (i,2 vs i,1)",
	} {
		if d := an.Loop(firstLoop(t, prog, proc)); d.Reason != want || d.Vectorized != (want == "") {
			t.Errorf("%s: vectorized=%v reason %q, want %q", proc, d.Vectorized, d.Reason, want)
		}
	}
}

func TestLoopKindAndFactor(t *testing.T) {
	prog, an := analyzeSrc(t, strings.Replace(loopKernel, "real(kind=8) :: a(n), b(n)",
		"real(kind=8) :: a(n), b(n)", 1))
	m := Default()
	d := an.Loop(firstLoop(t, prog, "k.uniform"))
	if d.Kind != 8 {
		t.Errorf("uniform kernel kind = %d, want 8", d.Kind)
	}
	if want := m.VecFactor(8, false, false); d.Factor != want {
		t.Errorf("factor = %g, want %g", d.Factor, want)
	}
	// Lowering to kind 4 must widen the vectors (smaller factor).
	src32 := strings.ReplaceAll(loopKernel, "kind=8", "kind=4")
	src32 = strings.ReplaceAll(src32, "2.0d0", "2.0")
	src32 = strings.ReplaceAll(src32, "1.0d0", "1.0")
	src32 = strings.ReplaceAll(src32, "0.0d0", "0.0")
	src32 = strings.ReplaceAll(src32, "1.0d3", "1.0e3")
	prog32, an32 := analyzeSrc(t, src32)
	d32 := an32.Loop(firstLoop(t, prog32, "k.uniform"))
	if d32.Kind != 4 || d32.Factor >= d.Factor {
		t.Errorf("kind-4 loop: kind=%d factor=%g (kind-8 factor %g)", d32.Kind, d32.Factor, d.Factor)
	}
}

func TestInlinable(t *testing.T) {
	src := `
module m
  implicit none
  integer, parameter :: n = 4
  real(kind=8) :: g(n)
contains
  function small(x) result(f)
    real(kind=8) :: x, f
    f = 0.5d0 * x * x
  end function small
  function hasloop(x) result(f)
    real(kind=8) :: x, f
    integer :: i
    f = x
    do i = 1, 3
      f = f * 0.5d0
    end do
  end function hasloop
  function callsother(x) result(f)
    real(kind=8) :: x, f
    f = small(x) + 1.0d0
  end function callsother
  function arraylocal(x) result(f)
    real(kind=8) :: x, f, tmp(10)
    tmp(1) = x
    f = tmp(1)
  end function arraylocal
  subroutine wrapperlike(x)
    real(kind=4) :: x
    real(kind=8) :: t
    t = x
    call sink(t)
  end subroutine wrapperlike
  subroutine sink(v)
    real(kind=8) :: v
    g(1) = v
  end subroutine sink
end module m
program p
  use m
  implicit none
  g(2) = small(1.0d0)
end program p
`
	prog, an := analyzeSrc(t, src)
	want := map[string]bool{
		"m.small":       true,
		"m.hasloop":     false,
		"m.callsother":  false,
		"m.arraylocal":  false,
		"m.wrapperlike": false, // contains a call: wrappers defeat inlining
		"m.sink":        true,
	}
	for name, w := range want {
		if got := an.Inlinable[prog.ProcMap[name]]; got != w {
			t.Errorf("Inlinable(%s) = %v, want %v", name, got, w)
		}
	}
	if an.Inlinable[prog.Main] {
		t.Error("main program must not be inlinable")
	}
}

func TestLoopWithInlinableCallVectorizes(t *testing.T) {
	src := `
module m
  implicit none
  integer, parameter :: n = 16
  real(kind=8) :: a(n)
  real(kind=4) :: c(n)
contains
  function flux(x) result(f)
    real(kind=8) :: x, f
    f = x * x * 0.5d0
  end function flux
  function flux32(x) result(f)
    real(kind=4) :: x, f
    f = x * x * 0.5
  end function flux32
  subroutine clean()
    integer :: i
    do i = 1, n
      a(i) = flux(a(i))
    end do
  end subroutine clean
  subroutine mixedinline()
    integer :: i
    do i = 1, n
      c(i) = flux32(c(i)) + 1.0
      a(i) = flux(a(i))
    end do
  end subroutine mixedinline
end module m
program p
  use m
  implicit none
  call clean()
end program p
`
	prog, an := analyzeSrc(t, src)
	if d := an.Loop(firstLoop(t, prog, "m.clean")); !d.Vectorized {
		t.Errorf("loop with inlinable uniform call should vectorize: %s", d.Reason)
	}
	if d := an.Loop(firstLoop(t, prog, "m.mixedinline")); d.Vectorized {
		t.Error("loop mixing kind-4 and kind-8 inlined calls should not vectorize")
	}
}

func TestLoopWithNonInlinableCallBlocked(t *testing.T) {
	src := `
module m
  implicit none
  integer, parameter :: n = 16
  real(kind=8) :: a(n)
contains
  function big(x) result(f)
    real(kind=8) :: x, f
    integer :: q
    f = x
    do q = 1, 2
      f = f * 0.5d0
    end do
  end function big
  subroutine drive()
    integer :: i
    do i = 1, n
      a(i) = big(a(i))
    end do
  end subroutine drive
end module m
program p
  use m
  implicit none
  call drive()
end program p
`
	prog, an := analyzeSrc(t, src)
	d := an.Loop(firstLoop(t, prog, "m.drive"))
	if d.Vectorized || !strings.Contains(d.Reason, "non-inlinable") {
		t.Errorf("loop with non-inlinable call: %+v", d)
	}
}

func TestVectorizationReport(t *testing.T) {
	_, an := analyzeSrc(t, loopKernel)
	rep := an.Report()
	for _, want := range []string{"loop vectorized", "loop not vectorized",
		"mixed precision", "novector directive", "k.uniform"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	vec, total := an.VectorizedCount()
	if total != 9 { // 8 procedures with loops, nested has 2
		t.Errorf("total loops = %d, want 9", total)
	}
	if vec == 0 || vec >= total {
		t.Errorf("vectorized = %d of %d, expected a strict subset", vec, total)
	}
}

func TestModelCostShape(t *testing.T) {
	m := Default()
	// 32-bit must never cost more than 64-bit for any op class.
	for c := OpClass(0); c < NumOpClasses; c++ {
		if m.Cost[c][0] > m.Cost[c][1] {
			t.Errorf("%v: kind-4 cost %g > kind-8 cost %g", c, m.Cost[c][0], m.Cost[c][1])
		}
	}
	if m.OpCost(OpDiv, 4) >= m.OpCost(OpDiv, 8) {
		t.Error("32-bit divide should be cheaper")
	}
	// VecFactor: 32-bit lanes are twice as wide.
	f32 := m.VecFactor(4, false, false)
	f64 := m.VecFactor(8, false, false)
	if math.Abs(f64/f32-2) > 1e-9 {
		t.Errorf("vector factor ratio %.3f, want 2 (width 8 vs 4)", f64/f32)
	}
	if m.VecFactor(8, true, false) <= f64 {
		t.Error("masking must reduce vector efficiency")
	}
	if m.VecFactor(8, false, true) <= f64 {
		t.Error("reductions must reduce vector efficiency")
	}
	if m.AllreduceCost() <= m.AllreduceLatency {
		t.Error("allreduce cost must include per-hop term")
	}
}

func TestNoiseStatistics(t *testing.T) {
	n := NewNoise(0.09, 7)
	const trials = 20000
	var sum, sumsq float64
	for i := 0; i < trials; i++ {
		s := n.Sample(100)
		if s < 100 {
			t.Fatalf("noise sped a run up: %g", s)
		}
		sum += s
		sumsq += s * s
	}
	mean := sum / trials
	sd := math.Sqrt(sumsq/trials - mean*mean)
	rel := sd / mean
	if rel < 0.06 || rel > 0.12 {
		t.Errorf("relative sd = %.3f, want ≈0.09", rel)
	}
}

func TestNoiseDeterministicBySeed(t *testing.T) {
	a := NewNoise(0.05, 42)
	b := NewNoise(0.05, 42)
	for i := 0; i < 10; i++ {
		if a.Sample(1) != b.Sample(1) {
			t.Fatal("same seed must give same samples")
		}
	}
	if NewNoise(0, 1).Sample(3.5) != 3.5 {
		t.Error("zero noise must be the identity")
	}
	var nilNoise *Noise
	if nilNoise.Sample(2) != 2 {
		t.Error("nil noise must be the identity")
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{nil, 0},
	}
	for _, tc := range cases {
		if got := Median(tc.in); got != tc.want {
			t.Errorf("Median(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
	// Median must not mutate its input.
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Error("Median mutated its input")
	}
}

// Property: the median of n noisy samples is never below the true time
// and approaches it as samples are outlier-trimmed.
func TestMedianOfNProperty(t *testing.T) {
	noise := NewNoise(0.09, 123)
	f := func(tRaw uint16, nRaw uint8) bool {
		tv := float64(tRaw%1000) + 1
		n := int(nRaw%9) + 1
		m := noise.MedianOfN(tv, n)
		return m >= tv && m < tv*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMedianReducesVariance verifies the rationale for Eq. (1): the
// median of 7 samples has a much tighter spread than single samples.
func TestMedianReducesVariance(t *testing.T) {
	noise := NewNoise(0.09, 99)
	spread := func(n int) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 300; i++ {
			s := noise.MedianOfN(100, n)
			lo = math.Min(lo, s)
			hi = math.Max(hi, s)
		}
		return hi - lo
	}
	if s7, s1 := spread(7), spread(1); s7 >= s1*0.8 {
		t.Errorf("median-of-7 spread %.2f not much tighter than single-run %.2f", s7, s1)
	}
}

func TestOpClassString(t *testing.T) {
	if OpDiv.String() != "div" || OpClass(99).String() == "div" {
		t.Error("OpClass.String misbehaves")
	}
}
