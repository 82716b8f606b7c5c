package interp

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	ft "repro/internal/fortran"
	"repro/internal/perfmodel"
)

// run parses, analyzes, and executes src, returning the interpreter for
// global inspection, the result, and any run error.
func run(t *testing.T, src string, cfg Config) (*Interp, *Result, error) {
	t.Helper()
	prog, err := ft.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := ft.Analyze(prog, ft.Options{}); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if cfg.Model == nil {
		cfg.Model = perfmodel.Default()
	}
	in, err := New(prog, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := in.Run()
	return in, res, err
}

func mustRun(t *testing.T, src string) (*Interp, *Result) {
	t.Helper()
	in, res, err := run(t, src, Config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return in, res
}

func globalF(t *testing.T, in *Interp, q string) float64 {
	t.Helper()
	v, ok := in.GlobalFloat(q)
	if !ok {
		t.Fatalf("global %s not found", q)
	}
	return v
}

const outMod = `
module out
  implicit none
  real(kind=8) :: r8
  real(kind=4) :: r4
  integer :: n
  logical :: flag
end module out
`

func TestArithmeticKinds(t *testing.T) {
	// 0.1 is inexact; accumulating it 10 times differs between f32 and
	// f64. The interpreter must genuinely compute in each precision.
	src := outMod + `
program p
  use out
  implicit none
  real(kind=8) :: a8, inc8
  real(kind=4) :: a4, inc4
  integer :: i
  inc8 = 0.1d0
  inc4 = 0.1
  a8 = 0.0d0
  a4 = 0.0
  do i = 1, 10
    a8 = a8 + inc8
    a4 = a4 + inc4
  end do
  r8 = a8
  r4 = a4
end program p
`
	in, _ := mustRun(t, src)
	got8 := globalF(t, in, "out.r8")
	got4 := globalF(t, in, "out.r4")

	// Reference computed in Go.
	var w8 float64
	var w4 float32
	for i := 0; i < 10; i++ {
		w8 += 0.1
		w4 += float32(0.1)
	}
	if got8 != w8 {
		t.Errorf("f64 accumulation: got %.17g, want %.17g", got8, w8)
	}
	if got4 != float64(w4) {
		t.Errorf("f32 accumulation: got %.17g, want %.17g", got4, float64(w4))
	}
	if got4 == got8 {
		t.Error("f32 and f64 accumulations coincide; rounding not modeled")
	}
}

func TestKind4StorageRounds(t *testing.T) {
	src := outMod + `
program p
  use out
  implicit none
  real(kind=8) :: x
  x = 1.0000000001d0
  r4 = x
  r8 = r4
end program p
`
	in, res := mustRun(t, src)
	if got := globalF(t, in, "out.r8"); got != float64(float32(1.0000000001)) {
		t.Errorf("store to kind-4 did not round: %.17g", got)
	}
	if res.Casts != 2 {
		t.Errorf("expected exactly 2 casts (8->4 and 4->8), got %d", res.Casts)
	}
}

func TestLiteralConversionIsFree(t *testing.T) {
	src := outMod + `
program p
  use out
  implicit none
  r4 = 1.5d0
  r8 = 2.5
end program p
`
	_, res := mustRun(t, src)
	if res.Casts != 0 {
		t.Errorf("literal kind conversions should be folded, got %d casts", res.Casts)
	}
}

func TestMixedExpressionPromotes(t *testing.T) {
	src := outMod + `
program p
  use out
  implicit none
  real(kind=4) :: x
  x = 0.1
  r8 = x * 2.0d0
end program p
`
	in, res := mustRun(t, src)
	want := float64(float32(0.1)) * 2.0
	if got := globalF(t, in, "out.r8"); got != want {
		t.Errorf("promotion: got %.17g, want %.17g", got, want)
	}
	if res.Casts != 1 {
		t.Errorf("expected exactly 1 cast for the kind-4 operand, got %d", res.Casts)
	}
}

func TestIntegerOps(t *testing.T) {
	src := outMod + `
program p
  use out
  implicit none
  integer :: a, b
  a = 7
  b = 2
  n = a / b * 10 + mod(a, b) - (-a)**2
end program p
`
	in, _ := mustRun(t, src)
	want := float64(7/2*10 + 7%2 - 49)
	if got := globalF(t, in, "out.n"); got != want {
		t.Errorf("integer expr: got %g, want %g", got, want)
	}
}

func TestArrays2D(t *testing.T) {
	src := outMod + `
module grid
  implicit none
  real(kind=8) :: a(0:3, 2)
end module grid
program p
  use out
  use grid
  implicit none
  integer :: i, j
  do j = 1, 2
    do i = 0, 3
      a(i, j) = real(i, 8) + 10.0d0 * real(j, 8)
    end do
  end do
  r8 = a(3, 2) + a(0, 1)
end program p
`
	in, _ := mustRun(t, src)
	if got := globalF(t, in, "out.r8"); got != 33 {
		t.Errorf("2-D array: got %g, want 33", got)
	}
}

func TestArrayBoundsError(t *testing.T) {
	src := `
program p
  implicit none
  real(kind=8) :: a(4)
  integer :: i
  i = 5
  a(i) = 1.0d0
end program p
`
	_, _, err := run(t, src, Config{})
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailBounds {
		t.Fatalf("want bounds error, got %v", err)
	}
}

func TestSubroutineByRefArraysAndCopyOut(t *testing.T) {
	src := outMod + `
module m
  implicit none
contains
  subroutine fill(v, x, count)
    real(kind=8), intent(inout) :: v(:)
    real(kind=8), intent(in) :: x
    integer, intent(out) :: count
    integer :: i
    do i = 1, size(v)
      v(i) = x * real(i, 8)
    end do
    count = size(v)
  end subroutine fill
end module m
program p
  use out
  use m
  implicit none
  real(kind=8) :: data(6)
  integer :: c
  c = 0
  call fill(data, 2.0d0, c)
  n = c
  r8 = data(6)
end program p
`
	in, _ := mustRun(t, src)
	if got := globalF(t, in, "out.n"); got != 6 {
		t.Errorf("intent(out) copy-out: got %g, want 6", got)
	}
	if got := globalF(t, in, "out.r8"); got != 12 {
		t.Errorf("by-ref array write: got %g, want 12", got)
	}
}

func TestFunctionResultAndRecursion(t *testing.T) {
	src := outMod + `
module m
  implicit none
contains
  function fact(k) result(f)
    integer :: k
    real(kind=8) :: f
    if (k <= 1) then
      f = 1.0d0
    else
      f = real(k, 8) * fact(k - 1)
    end if
  end function fact
end module m
program p
  use out
  use m
  implicit none
  r8 = fact(6)
end program p
`
	in, _ := mustRun(t, src)
	if got := globalF(t, in, "out.r8"); got != 720 {
		t.Errorf("recursion: got %g, want 720", got)
	}
}

func TestTrapNonFinite(t *testing.T) {
	src := `
program p
  implicit none
  real(kind=8) :: x, zero
  zero = 0.0d0
  x = 1.0d0 / zero
end program p
`
	_, _, err := run(t, src, Config{TrapNonFinite: true})
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailNonFinite {
		t.Fatalf("want non-finite trap, got %v", err)
	}
	// Without the trap the run completes.
	if _, _, err := run(t, src, Config{}); err != nil {
		t.Fatalf("untrapped run failed: %v", err)
	}
}

func TestOverflowInKind4Traps(t *testing.T) {
	// 1e30 squared overflows float32 but not float64: the variant-style
	// failure mode of lowering a variable that holds large magnitudes.
	src := `
program p
  implicit none
  real(kind=4) :: x
  x = 1.0e30
  x = x * x
end program p
`
	_, _, err := run(t, src, Config{TrapNonFinite: true})
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailNonFinite {
		t.Fatalf("want overflow trap, got %v", err)
	}
}

func TestCycleBudgetTimeout(t *testing.T) {
	src := `
program p
  implicit none
  real(kind=8) :: s
  s = 1.0d0
  do while (s > 0.0d0)
    s = s + 1.0d0
  end do
end program p
`
	_, _, err := run(t, src, Config{CycleBudget: 10000})
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailTimeout {
		t.Fatalf("want timeout, got %v", err)
	}
}

func TestStopIsError(t *testing.T) {
	src := "program p\nimplicit none\nstop 3\nend program p"
	_, _, err := run(t, src, Config{})
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailStop {
		t.Fatalf("want stop error, got %v", err)
	}
}

func TestPrintOutput(t *testing.T) {
	src := `
program p
  implicit none
  integer :: i
  i = 42
  print *, 'value', i
end program p
`
	prog := ft.MustParse(src)
	ft.MustAnalyze(prog, ft.Options{})
	var buf bytes.Buffer
	in, err := New(prog, Config{Model: perfmodel.Default(), Stdout: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "value 42\n" {
		t.Errorf("print output %q", got)
	}
}

func TestIntrinsics(t *testing.T) {
	src := outMod + `
program p
  use out
  implicit none
  real(kind=8) :: v(4)
  integer :: i
  do i = 1, 4
    v(i) = real(i, 8)
  end do
  r8 = abs(-3.0d0) + sqrt(16.0d0) + max(1.0d0, 2.0d0, 0.5d0) &
     + min(5.0d0, 4.0d0) + sign(2.0d0, -1.0d0) + sum(v) + maxval(v) &
     + minval(v) + dot_product(v, v) + atan2(0.0d0, 1.0d0) &
     + mod(7.5d0, 2.0d0) + aint(2.7d0) + anint(2.7d0)
  n = int(3.9d0) + nint(3.9d0) + floor(-1.5d0) + size(v)
end program p
`
	in, _ := mustRun(t, src)
	want := 3.0 + 4 + 2 + 4 - 2 + 10 + 4 + 1 + 30 + 0 + 1.5 + 2 + 3
	if got := globalF(t, in, "out.r8"); math.Abs(got-want) > 1e-12 {
		t.Errorf("intrinsics: got %g, want %g", got, want)
	}
	if got := globalF(t, in, "out.n"); got != float64(3+4-2+4) {
		t.Errorf("integer intrinsics: got %g, want %d", got, 3+4-2+4)
	}
}

func TestEpsilonHugeTinyByKind(t *testing.T) {
	src := outMod + `
program p
  use out
  implicit none
  real(kind=4) :: s4
  real(kind=8) :: s8
  s4 = 0.0
  s8 = 0.0d0
  r8 = epsilon(s8)
  r4 = epsilon(s4)
end program p
`
	in, _ := mustRun(t, src)
	if got := globalF(t, in, "out.r8"); got != math.Nextafter(1, 2)-1 {
		t.Errorf("epsilon(8): %g", got)
	}
	if got := globalF(t, in, "out.r4"); float32(got) != math.Nextafter32(1, 2)-1 {
		t.Errorf("epsilon(4): %g", got)
	}
}

func TestAllreduceIdentityAndCost(t *testing.T) {
	src := outMod + `
program p
  use out
  implicit none
  r8 = 5.0d0
  call mpi_allreduce_sum(r8)
end program p
`
	in, res := mustRun(t, src)
	if got := globalF(t, in, "out.r8"); got != 5 {
		t.Errorf("allreduce changed value: %g", got)
	}
	m := perfmodel.Default()
	if res.Cycles < m.AllreduceCost() {
		t.Errorf("allreduce cost not charged: %g < %g", res.Cycles, m.AllreduceCost())
	}
}

// TestVectorizationPricing checks the cost mechanism at the heart of the
// reproduction: an all-kind-4 vectorizable loop must run ~2x faster than
// the same loop in kind-8, and a mixed-kind loop must be slower than
// uniform kind-8.
func TestVectorizationPricing(t *testing.T) {
	tmpl := func(decls, body string) string {
		return `
module k
  implicit none
  integer, parameter :: n = 10000
  ` + decls + `
contains
  subroutine kernel()
    integer :: i
    do i = 1, n
      ` + body + `
    end do
  end subroutine kernel
end module k
program p
  use k
  implicit none
  call kernel()
end program p
`
	}
	cost := func(src string) float64 {
		_, res := mustRun(t, src)
		return res.Cycles
	}
	c64 := cost(tmpl("real(kind=8) :: a(n), b(n)", "a(i) = a(i) * 1.5d0 + b(i)"))
	c32 := cost(tmpl("real(kind=4) :: a(n), b(n)", "a(i) = a(i) * 1.5 + b(i)"))
	cMix := cost(tmpl("real(kind=8) :: a(n)\n  real(kind=4) :: b(n)", "a(i) = a(i) * 1.5d0 + b(i)"))
	if ratio := c64 / c32; ratio < 1.6 || ratio > 2.4 {
		t.Errorf("kind-4 loop speedup = %.2f, want ~2x", ratio)
	}
	if cMix <= c64 {
		t.Errorf("mixed loop (%.0f) should cost more than uniform 64-bit (%.0f)", cMix, c64)
	}
}

// TestRecurrenceBlocksVectorSpeedup checks that a loop-carried dependence
// removes the 32-bit advantage (the paper's pjac mechanism).
func TestRecurrenceBlocksVectorSpeedup(t *testing.T) {
	tmpl := func(kind, lit string) string {
		return `
module k
  implicit none
  integer, parameter :: n = 10000
  real(kind=` + kind + `) :: a(n)
contains
  subroutine kernel()
    integer :: i
    do i = 2, n
      a(i) = a(i-1) * ` + lit + ` + a(i)
    end do
  end subroutine kernel
end module k
program p
  use k
  implicit none
  call kernel()
end program p
`
	}
	_, res64 := mustRun(t, tmpl("8", "0.5d0"))
	_, res32 := mustRun(t, tmpl("4", "0.5"))
	ratio := res64.Cycles / res32.Cycles
	// Scalar loops: the 32-bit gain comes only from cheaper loads, so
	// the ratio must be far below the 2x vector gain.
	if ratio > 1.45 {
		t.Errorf("recurrence loop still speeds up %.2fx in 32-bit; vectorization not blocked", ratio)
	}
}

func TestProfilingRegions(t *testing.T) {
	src := `
module m
  implicit none
  integer, parameter :: n = 1000
  real(kind=8) :: a(n)
contains
  subroutine heavy()
    integer :: i
    do i = 1, n
      a(i) = sqrt(real(i, 8))
    end do
  end subroutine heavy
  subroutine light()
    a(1) = 0.0d0
  end subroutine light
end module m
program p
  use m
  implicit none
  integer :: k
  do k = 1, 3
    call heavy()
  end do
  call light()
end program p
`
	prog := ft.MustParse(src)
	ft.MustAnalyze(prog, ft.Options{})
	in, err := New(prog, Config{Model: perfmodel.Default(), Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	heavy := res.Timers.Region("m.heavy")
	light := res.Timers.Region("m.light")
	if heavy == nil || light == nil {
		t.Fatal("regions missing")
	}
	if heavy.Calls != 3 || light.Calls != 1 {
		t.Errorf("calls: heavy=%d light=%d", heavy.Calls, light.Calls)
	}
	if heavy.Self <= light.Self {
		t.Errorf("heavy (%.0f) should outweigh light (%.0f)", heavy.Self, light.Self)
	}
}

func TestProfilingOverheadSmall(t *testing.T) {
	src := `
module m
  implicit none
  integer, parameter :: n = 400
  real(kind=8) :: a(n)
contains
  subroutine kern()
    integer :: i
    do i = 1, n
      a(i) = a(i) + 1.0d0
    end do
  end subroutine kern
end module m
program p
  use m
  implicit none
  integer :: k
  do k = 1, 200
    call kern()
  end do
end program p
`
	_, plain := mustRun(t, src)
	prog := ft.MustParse(src)
	ft.MustAnalyze(prog, ft.Options{})
	in, _ := New(prog, Config{Model: perfmodel.Default(), Profile: true})
	profiled, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	overhead := (profiled.Cycles - plain.Cycles) / plain.Cycles * 100
	if overhead <= 0 || overhead > 7 {
		t.Errorf("profiling overhead %.2f%%, want within (0, 7%%] as in the paper", overhead)
	}
}

func TestCastAttributionPerProc(t *testing.T) {
	src := `
module m
  implicit none
  real(kind=8) :: src8(1000)
  real(kind=4) :: dst4(1000)
contains
  subroutine convert()
    dst4 = src8
  end subroutine convert
end module m
program p
  use m
  implicit none
  call convert()
end program p
`
	_, res := mustRun(t, src)
	if res.Casts != 1000 {
		t.Errorf("casts = %d, want 1000", res.Casts)
	}
	if res.ProcCastCycles["m.convert"] <= 0 {
		t.Errorf("cast cycles not attributed to m.convert: %v", res.ProcCastCycles)
	}
	if res.CastCycles <= 0 || res.CastCycles > res.Cycles {
		t.Errorf("cast cycles %g out of range (total %g)", res.CastCycles, res.Cycles)
	}
}

func TestInlinedCallCheaper(t *testing.T) {
	// flux is small and uniform: calls to it should cost far less than
	// calls to a structurally identical non-inlinable procedure.
	tmpl := func(extra string) string {
		return `
module m
  implicit none
  integer, parameter :: n = 5000
  real(kind=8) :: a(n)
contains
  function flux(x) result(f)
    real(kind=8) :: x, f
    ` + extra + `
    f = 0.5d0 * x * x
  end function flux
  subroutine drive()
    integer :: i
    do i = 1, n
      a(i) = flux(a(i))
    end do
  end subroutine drive
end module m
program p
  use m
  implicit none
  call drive()
end program p
`
	}
	_, inlined := mustRun(t, tmpl(""))
	// A do-loop in the body defeats inlining.
	_, outlined := mustRun(t, tmpl("integer :: q\ndo q = 1, 1\nf = 0.0d0\nend do"))
	if outlined.Cycles < inlined.Cycles*1.5 {
		t.Errorf("non-inlinable callee should be much slower: inlined=%.0f outlined=%.0f",
			inlined.Cycles, outlined.Cycles)
	}
}

func TestDoLoopStepAndNegative(t *testing.T) {
	src := outMod + `
program p
  use out
  implicit none
  integer :: i, s
  s = 0
  do i = 10, 1, -2
    s = s + i
  end do
  n = s
end program p
`
	in, _ := mustRun(t, src)
	if got := globalF(t, in, "out.n"); got != float64(10+8+6+4+2) {
		t.Errorf("negative step loop: got %g", got)
	}
}

func TestZeroTripLoop(t *testing.T) {
	src := outMod + `
program p
  use out
  implicit none
  integer :: i
  n = 0
  do i = 5, 1
    n = n + 1
  end do
end program p
`
	in, _ := mustRun(t, src)
	if got := globalF(t, in, "out.n"); got != 0 {
		t.Errorf("zero-trip loop executed %g times", got)
	}
}

// TestDoLoopAtInt64Limits pins that a DO loop counts its trips once, so
// a loop ending at either int64 limit stops there instead of wrapping
// around, and that the variable holds its last trip's value afterwards.
func TestDoLoopAtInt64Limits(t *testing.T) {
	const maxS, minS = "9223372036854775807", "(-9223372036854775807 - 1)"
	for _, c := range []struct {
		lo, hi, step string
		trips        int64
		first, last  int64
	}{
		{maxS + " - 1", maxS, "1", 2, math.MaxInt64 - 1, math.MaxInt64},
		{maxS + " - 3", maxS, "2", 2, math.MaxInt64 - 3, math.MaxInt64 - 1},
		{maxS + " - 1", maxS, "2", 1, math.MaxInt64 - 1, math.MaxInt64 - 1},
		{minS + " + 1", minS, "-1", 2, math.MinInt64 + 1, math.MinInt64},
		{minS + " + 3", minS, "-2", 2, math.MinInt64 + 3, math.MinInt64 + 1},
		{minS + " + 1", minS, "-2", 1, math.MinInt64 + 1, math.MinInt64 + 1},
		{minS, maxS, "9223372036854775807", 3, math.MinInt64, math.MaxInt64 - 1},
		{maxS, minS, minS, 2, math.MaxInt64, -1},
		{maxS, maxS + " - 1", "1", 0, 7, 7},
		{minS, minS + " + 1", "-1", 0, 7, 7},
	} {
		src := fmt.Sprintf(`
module lim
  implicit none
  integer :: n, first, last
end module lim

program p
  use lim
  implicit none
  integer :: i
  n = 0
  first = 7
  i = 7
  do i = %s, %s, %s
    if (n == 0) first = i
    n = n + 1
  end do
  last = i
end program p
`, c.lo, c.hi, c.step)
		in, _ := mustRun(t, src)
		got := [3]int64{}
		for k, q := range []string{"lim.n", "lim.first", "lim.last"} {
			v, ok := in.Global(q)
			if !ok {
				t.Fatalf("global %s not found", q)
			}
			got[k] = v.I
		}
		if want := [3]int64{c.trips, c.first, c.last}; got != want {
			t.Errorf("do i = %s, %s, %s: (trips, first, last) = %v, want %v", c.lo, c.hi, c.step, got, want)
		}
	}
}

// TestLastTrip pins the trip count at the extremes, where it needs every
// bit of a uint64: 2^64 trips have last index MaxUint64.
func TestLastTrip(t *testing.T) {
	for _, c := range []struct {
		lo, hi, step int64
		last         uint64
		ok           bool
	}{
		{math.MinInt64, math.MaxInt64, 1, math.MaxUint64, true},
		{math.MaxInt64, math.MinInt64, -1, math.MaxUint64, true},
		{math.MaxInt64, math.MinInt64, math.MinInt64, 1, true},
		{math.MinInt64, math.MaxInt64, 2, math.MaxUint64 / 2, true},
		{1, 10, 3, 3, true},
		{10, 1, -4, 2, true},
		{5, 5, -1, 0, true},
		{5, 4, 1, 0, false},
		{4, 5, -1, 0, false},
	} {
		last, ok := lastTrip(c.lo, c.hi, c.step)
		if last != c.last || ok != c.ok {
			t.Errorf("lastTrip(%d, %d, %d) = %d, %v; want %d, %v", c.lo, c.hi, c.step, last, ok, c.last, c.ok)
		}
	}
}

func TestGlobalAccessors(t *testing.T) {
	src := `
module g
  implicit none
  real(kind=8) :: series(3)
  real(kind=8) :: scalar
end module g
program p
  use g
  implicit none
  series(1) = 1.0d0
  series(2) = 2.0d0
  series(3) = 3.0d0
  scalar = 9.0d0
end program p
`
	in, _ := mustRun(t, src)
	fs, ok := in.GlobalFloats("g.series")
	if !ok || len(fs) != 3 || fs[2] != 3 {
		t.Errorf("GlobalFloats: %v %v", fs, ok)
	}
	if v, ok := in.GlobalFloat("g.scalar"); !ok || v != 9 {
		t.Errorf("GlobalFloat: %v %v", v, ok)
	}
	if _, ok := in.Global("g.nope"); ok {
		t.Error("Global found a nonexistent name")
	}
	if _, ok := in.GlobalFloat("g.series"); ok {
		t.Error("GlobalFloat should refuse arrays")
	}
}

func TestWhileLoopConvergence(t *testing.T) {
	// Newton iteration for sqrt(2) with a *residual* stopping criterion:
	// in f64 the residual reaches 1e-12; in f32 it plateaus around 1e-7,
	// so the loop runs to its iteration cap — the MOM6 flux_adjust
	// slow-convergence mechanism.
	tmpl := func(kind, one, half, tol string) string {
		return outMod + `
program p
  use out
  implicit none
  real(kind=` + kind + `) :: x
  integer :: iters
  x = ` + one + `
  iters = 0
  do while (abs(x * x - 2.0) > ` + tol + ` .and. iters < 200)
    x = ` + half + ` * (x + 2.0 / x)
    iters = iters + 1
  end do
  n = iters
  r8 = x
end program p
`
	}
	in64, _ := mustRun(t, tmpl("8", "1.0d0", "0.5d0", "1.0d-12"))
	in32, _ := mustRun(t, tmpl("4", "1.0", "0.5", "1.0e-12"))
	it64 := globalF(t, in64, "out.n")
	it32 := globalF(t, in32, "out.n")
	if it64 > 10 {
		t.Errorf("f64 Newton took %g iterations", it64)
	}
	if it32 < 150 {
		t.Errorf("f32 Newton with f64-level tolerance should stall near the cap, took %g", it32)
	}
	if got := globalF(t, in64, "out.r8"); math.Abs(got-math.Sqrt2) > 1e-9 {
		t.Errorf("Newton result %g", got)
	}
}

func TestExitCycleReturn(t *testing.T) {
	src := outMod + `
module m
  implicit none
contains
  function f() result(r)
    integer :: r, i
    r = 0
    do i = 1, 100
      if (i == 3) cycle
      if (i == 6) exit
      r = r + i
    end do
    if (r > 0) return
    r = -1
  end function f
end module m
program p
  use out
  use m
  implicit none
  n = f()
end program p
`
	in, _ := mustRun(t, src)
	if got := globalF(t, in, "out.n"); got != float64(1+2+4+5) {
		t.Errorf("exit/cycle/return: got %g, want 12", got)
	}
}

func TestErrorsSurfaceDeterministically(t *testing.T) {
	src := `
program p
  implicit none
  real(kind=8) :: a(10)
  integer :: i
  do i = 1, 20
    a(i) = 1.0d0
  end do
end program p
`
	_, _, err1 := run(t, src, Config{})
	_, _, err2 := run(t, src, Config{})
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Errorf("nondeterministic errors: %v vs %v", err1, err2)
	}
	if !strings.Contains(err1.Error(), "out of bounds") {
		t.Errorf("error text: %v", err1)
	}
}

func TestDeterministicCycles(t *testing.T) {
	src := `
module m
  implicit none
  integer, parameter :: n = 2000
  real(kind=8) :: a(n)
contains
  subroutine work()
    integer :: i
    do i = 1, n
      a(i) = sin(real(i, 8)) * sqrt(real(i, 8))
    end do
  end subroutine work
end module m
program p
  use m
  implicit none
  call work()
end program p
`
	_, r1 := mustRun(t, src)
	_, r2 := mustRun(t, src)
	if r1.Cycles != r2.Cycles {
		t.Errorf("cycles differ across runs: %g vs %g", r1.Cycles, r2.Cycles)
	}
	if r1.Cycles <= 0 {
		t.Error("no cycles recorded")
	}
}

func TestConfigValidation(t *testing.T) {
	prog := ft.MustParse("program p\nimplicit none\nend program p")
	if _, err := New(prog, Config{}); err == nil {
		t.Error("nil machine model accepted")
	}
	if _, err := New(prog, Config{Model: perfmodel.Default()}); err == nil {
		t.Error("unanalyzed program accepted")
	}
	mod := ft.MustParse("module m\nimplicit none\nend module m")
	ft.MustAnalyze(mod, ft.Options{})
	if _, err := New(mod, Config{Model: perfmodel.Default()}); err == nil {
		t.Error("program without main accepted")
	}
}

func TestMaxDepthGuard(t *testing.T) {
	src := `
module m
  implicit none
contains
  function inf(k) result(r)
    integer :: k
    real(kind=8) :: r
    r = inf(k + 1)
  end function inf
end module m
program p
  use m
  implicit none
  real(kind=8) :: x
  x = inf(0)
end program p
`
	prog := ft.MustParse(src)
	ft.MustAnalyze(prog, ft.Options{})
	in, err := New(prog, Config{Model: perfmodel.Default(), MaxDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	_, err = in.Run()
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailInternal || !strings.Contains(re.Msg, "call stack") {
		t.Fatalf("unbounded recursion not guarded: %v", err)
	}
}

func TestIntegerDivisionByZero(t *testing.T) {
	src := "program p\nimplicit none\ninteger :: i, z\nz = 0\ni = 4 / z\nend program p"
	_, _, err := run(t, src, Config{})
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailNonFinite {
		t.Fatalf("integer division by zero: %v", err)
	}
}

func TestSizeDimIntrinsic(t *testing.T) {
	src := outMod + `
program p
  use out
  implicit none
  real(kind=8) :: a(3, 5)
  n = size(a, 1) * 100 + size(a, 2) * 10 + size(a)
end program p
`
	in, _ := mustRun(t, src)
	if got := globalF(t, in, "out.n"); got != float64(3*100+5*10+15) {
		t.Errorf("size(a,dim): got %g", got)
	}
	bad := outMod + `
program p
  use out
  implicit none
  real(kind=8) :: a(3)
  n = size(a, 2)
end program p
`
	_, _, err := run(t, bad, Config{})
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailBounds {
		t.Fatalf("size dim out of range: %v", err)
	}
}

func TestAssumedShapeRebasing(t *testing.T) {
	// A 0-based actual must appear 1-based inside an assumed-shape dummy.
	src := outMod + `
module m
  implicit none
contains
  function first(v) result(r)
    real(kind=8), intent(in) :: v(:)
    real(kind=8) :: r
    r = v(1) + real(size(v), 8)
  end function first
end module m
program p
  use out
  use m
  implicit none
  real(kind=8) :: zb(0:4)
  zb(0) = 7.0d0
  r8 = first(zb)
end program p
`
	in, _ := mustRun(t, src)
	if got := globalF(t, in, "out.r8"); got != 12 { // v(1)=zb(0)=7 plus size 5
		t.Errorf("assumed-shape rebase: got %g, want 12", got)
	}
}

// TestHugeArrayIsRunError: a declaration whose extent or element count
// wraps int, or exceeds maxArrayElems, is a *RunError, checked before
// anything is allocated. Each case fails without allocating on an interpreter that
// lacks the check: the first and third made makeslice panic, and the
// second wrapped its extent to -1 and ran with an empty array.
func TestHugeArrayIsRunError(t *testing.T) {
	for _, dims := range []string{
		"3037000500, 3037000500",                      // the product wraps int64
		"-9223372036854775807:9223372036854775807",    // hi - lo + 1 wraps int64
		"8388608, 8388608",                            // 2^46 elements: over the cap
		"9223372036854775807, 9223372036854775807, 2", // every product wraps
	} {
		src := fmt.Sprintf(`
module m
  implicit none
contains
  subroutine s()
    real(kind=8) :: a(%s)
    a = 1.0d0
  end subroutine s
end module m
program p
  use m
  implicit none
  call s()
end program p
`, dims)
		_, _, err := run(t, src, Config{})
		var re *RunError
		if !errors.As(err, &re) || re.Kind != FailInternal || !strings.Contains(re.Msg, `array "a" has over`) {
			t.Errorf("a(%s): err = %v, want a FailInternal *RunError naming the array", dims, err)
		}
	}

	// An empty dimension makes an empty array, however large the others,
	// and keeps their extents.
	src := outMod + `
program p
  use out
  implicit none
  real(kind=8) :: a(9223372036854775807, 0)
  r8 = size(a, 1)
end program p
`
	in, _ := mustRun(t, src)
	if got := globalF(t, in, "out.r8"); got != math.MaxInt64 {
		t.Errorf("size(a, 1) of a(9223372036854775807, 0) = %g, want 2^63 - 1", got)
	}
}

// TestArrayCap pins maxArrayElems at its boundary without a program, so
// nothing near the cap is allocated.
func TestArrayCap(t *testing.T) {
	for _, c := range []struct {
		lo, hi, ext int
	}{
		{1, 10, 10},
		{5, 4, 0},
		{math.MaxInt64, math.MinInt64, 0},
		{1, maxArrayElems, maxArrayElems},
		{0, maxArrayElems, maxArrayElems + 1},
		{1, math.MaxInt64, math.MaxInt64},
		{0, math.MaxInt64, -1},
		{math.MinInt64, math.MaxInt64, -1},
	} {
		if got := arrayExtent(c.lo, c.hi); got != c.ext {
			t.Errorf("arrayExtent(%d, %d) = %d, want %d", c.lo, c.hi, got, c.ext)
		}
	}
	for _, c := range []struct {
		ext  []int
		fits bool
	}{
		{nil, true},
		{[]int{maxArrayElems}, true},
		{[]int{1 << 14, 1 << 13}, true},
		{[]int{maxArrayElems + 1}, false},
		{[]int{maxArrayElems, 2}, false},
		{[]int{1 << 14, 1 << 13, 2}, false},
		{[]int{math.MaxInt64, math.MaxInt64, 0}, true},
		{[]int{-1, 0}, false},
	} {
		if got := arrayFits(c.ext); got != c.fits {
			t.Errorf("arrayFits(%v) = %v, want %v", c.ext, got, c.fits)
		}
	}
}
