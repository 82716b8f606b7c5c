package interp

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	ft "repro/internal/fortran"
	"repro/internal/perfmodel"
)

// evalScalarExpr runs a tiny program computing `r = <expr>` with the
// given variable declarations/values and returns r.
func evalScalarExpr(t *testing.T, declKind int, x, y float64, expr string) (float64, error) {
	t.Helper()
	src := fmt.Sprintf(`
module e
  implicit none
  real(kind=8) :: r_out
end module e
program p
  use e
  implicit none
  real(kind=%d) :: x, y
  x = %.17g_8
  y = %.17g_8
  r_out = %s
end program p
`, declKind, x, y, expr)
	prog, err := ft.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	if _, err := ft.Analyze(prog, ft.Options{}); err != nil {
		t.Fatalf("analyze: %v\n%s", err, src)
	}
	in, err := New(prog, Config{Model: perfmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		return 0, err
	}
	v, _ := in.Global("e.r_out")
	return v.F, nil
}

// Property: kind-8 arithmetic matches Go float64 arithmetic exactly, and
// kind-4 arithmetic matches Go float32 arithmetic exactly, for all four
// operators over random operands.
func TestArithmeticMatchesGoProperty(t *testing.T) {
	type opCase struct {
		expr string
		f64  func(x, y float64) float64
		f32  func(x, y float32) float32
	}
	ops := []opCase{
		{"x + y", func(x, y float64) float64 { return x + y }, func(x, y float32) float32 { return x + y }},
		{"x - y", func(x, y float64) float64 { return x - y }, func(x, y float32) float32 { return x - y }},
		{"x * y", func(x, y float64) float64 { return x * y }, func(x, y float32) float32 { return x * y }},
		{"x / y", func(x, y float64) float64 { return x / y }, func(x, y float32) float32 { return x / y }},
	}
	checked := 0
	f := func(xr, yr float64, opIdx uint8) bool {
		// Keep operands sane (finite, moderate magnitude, y != 0).
		x := math.Mod(xr, 1e6)
		y := math.Mod(yr, 1e6)
		if math.IsNaN(x) || math.IsNaN(y) || y == 0 || x == 0 {
			return true
		}
		op := ops[int(opIdx)%len(ops)]

		got8, err := evalScalarExpr(t, 8, x, y, op.expr)
		if err != nil {
			return true // trapped non-finite: fine
		}
		want8 := op.f64(x, y)
		if got8 != want8 && !(math.IsNaN(got8) && math.IsNaN(want8)) {
			t.Logf("k8 %s: x=%g y=%g got %.17g want %.17g", op.expr, x, y, got8, want8)
			return false
		}

		got4, err := evalScalarExpr(t, 4, x, y, op.expr)
		if err != nil {
			return true
		}
		want4 := float64(op.f32(float32(x), float32(y)))
		if got4 != want4 && !(math.IsNaN(got4) && math.IsNaN(want4)) {
			t.Logf("k4 %s: x=%g y=%g got %.17g want %.17g", op.expr, x, y, got4, want4)
			return false
		}
		checked++
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	if checked == 0 {
		t.Error("property never exercised")
	}
}

// Property: a kind-4 variable always holds a float32-representable value
// after any chain of assignments (the storage rounding invariant).
func TestKind4StorageInvariantProperty(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e30 {
			return true
		}
		got, err := evalScalarExpr(t, 4, v, 1, "x")
		if err != nil {
			return true
		}
		return got == float64(float32(got)) && got == float64(float32(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: simulated cycle counts are strictly positive and additive
// over repeated kernels: running a loop of 2n iterations costs more than
// n iterations.
func TestCyclesMonotoneInWorkProperty(t *testing.T) {
	cost := func(n int) float64 {
		src := fmt.Sprintf(`
module w
  implicit none
  real(kind=8) :: acc(64)
end module w
program p
  use w
  implicit none
  integer :: i
  do i = 1, %d
    acc(mod(i, 64) + 1) = acc(mod(i, 64) + 1) + 1.5d0
  end do
end program p
`, n)
		prog := ft.MustParse(src)
		ft.MustAnalyze(prog, ft.Options{})
		in, err := New(prog, Config{Model: perfmodel.Default()})
		if err != nil {
			t.Fatal(err)
		}
		res, err := in.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	f := func(raw uint8) bool {
		n := int(raw)%500 + 10
		c1, c2 := cost(n), cost(2*n)
		return c1 > 0 && c2 > c1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
