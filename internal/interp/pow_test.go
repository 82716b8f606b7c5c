package interp

// Regression tests for the kind-4 exponentiation fix: all-kind-4 x**n
// with an integer exponent must evaluate by binary powering in float32
// (gfortran lowers it to libgcc's __powisf2), not by computing pow in
// float64 and rounding the result — the latter double-rounds relative
// to native float32 arithmetic and is observable from n=3 up.

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"testing"

	ft "repro/internal/fortran"
	"repro/internal/numerics"
	"repro/internal/perfmodel"
)

// oldPowPath is the pre-fix behaviour: float64 pow rounded once into
// kind-4 storage.
func oldPowPath(x float64, n int64) float64 {
	return rnd32(math.Pow(x, float64(n)))
}

// findCubeWitness scans for an operand where float32 binary powering of
// x**3 and the double-rounded float64 path disagree.
func findCubeWitness() (float64, bool) {
	for i := 1; i < 1_000_000; i++ {
		x := float64(float32(1.0 + float64(i)*1.37e-5))
		if float64(powi32(float32(x), 3)) != oldPowPath(x, 3) {
			return x, true
		}
	}
	return 0, false
}

func evalScalarExprEngine(t *testing.T, eng Engine, declKind int, x, y float64, expr string) float64 {
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
	prog := ft.MustParse(src)
	ft.MustAnalyze(prog, ft.Options{})
	in, err := New(prog, Config{Model: perfmodel.Default(), Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Fatalf("run: %v\n%s", err, src)
	}
	v, _ := in.GlobalFloat("e.r_out")
	return v
}

// TestKind4PowIntegerBinaryPowering pins the fix on an operand where
// the two lowerings provably differ: the interpreter must produce the
// float32 binary-powering result under both engines.
func TestKind4PowIntegerBinaryPowering(t *testing.T) {
	x, ok := findCubeWitness()
	if !ok {
		t.Fatal("no witness operand found where binary powering differs from double-rounded pow")
	}
	want := float64(powi32(float32(x), 3))
	old := oldPowPath(x, 3)
	if want == old {
		t.Fatalf("witness degenerated: %v", x)
	}
	t.Logf("witness x=%.17g: powisf2 %.17g vs double-rounded %.17g", x, want, old)
	for _, eng := range []Engine{EngineAST, EngineVM} {
		got := evalScalarExprEngine(t, eng, 4, x, 1, "x ** 3")
		if got != want {
			t.Errorf("%v: kind-4 x**3 = %.17g, want float32 binary powering %.17g (old double-rounded path: %.17g)",
				eng, got, want, old)
		}
	}
}

// TestKind4PowSquareUnchanged: for n=2 binary powering is a single
// float32 multiply, which agrees bit-for-bit with the rounded float64
// product — the fix must not disturb squares.
func TestKind4PowSquareUnchanged(t *testing.T) {
	for _, x := range []float64{1.1, 3.7, 0.0001234, 1e18, -2.5} {
		x = rnd32(x)
		want := oldPowPath(x, 2)
		if w2 := float64(powi32(float32(x), 2)); w2 != want {
			t.Fatalf("premise broken: powi32(%g,2)=%.17g vs %.17g", x, w2, want)
		}
		got := evalScalarExprEngine(t, EngineVM, 4, x, 1, "x ** 2")
		if got != want {
			t.Errorf("kind-4 x**2 for x=%g: got %.17g want %.17g", x, got, want)
		}
	}
}

// TestKind4PowNegativeExponent: negative integer exponents compute the
// positive power first, then take the float32 reciprocal.
func TestKind4PowNegativeExponent(t *testing.T) {
	x := rnd32(1.7)
	want := float64(1 / powi32(float32(x), 3))
	got := evalScalarExprEngine(t, EngineVM, 4, x, 1, "x ** (-3)")
	if got != want {
		t.Errorf("kind-4 x**(-3): got %.17g want %.17g", got, want)
	}
}

// TestKind4PowRealExponentSingleRounded: a real exponent on a kind-4
// base evaluates pow in float64 and rounds ONCE into storage.
func TestKind4PowRealExponentSingleRounded(t *testing.T) {
	x := rnd32(2.7)
	want := rnd32(math.Pow(x, 0.5))
	for _, eng := range []Engine{EngineAST, EngineVM} {
		got := evalScalarExprEngine(t, eng, 4, x, 1, "x ** 0.5_4")
		if got != want {
			t.Errorf("%v: kind-4 x**0.5 = %.17g, want single-rounded %.17g", eng, got, want)
		}
	}
}

// TestPowShadowFullPrecision: under shadow execution the shadow lane of
// a kind-4 power is the float64 reference value, not the float32 result.
func TestPowShadowFullPrecision(t *testing.T) {
	x, ok := findCubeWitness()
	if !ok {
		t.Fatal("no witness operand")
	}
	src := fmt.Sprintf(`
module e
  implicit none
  real(kind=4) :: r_out
end module e
program p
  use e
  implicit none
  real(kind=4) :: x
  x = %.17g_8
  r_out = x ** 3
end program p
`, x)
	for _, eng := range []Engine{EngineAST, EngineVM} {
		prog := ft.MustParse(src)
		ft.MustAnalyze(prog, ft.Options{})
		rec := numerics.NewRecorder("test.ft", numerics.Options{})
		in, err := New(prog, Config{Model: perfmodel.Default(), Numerics: rec, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		v, okg := in.Global("e.r_out")
		if !okg {
			t.Fatal("r_out missing")
		}
		if v.F != float64(powi32(float32(x), 3)) {
			t.Errorf("%v: primary lane %.17g, want float32 binary powering", eng, v.F)
		}
		if v.Sh != math.Pow(x, 3) {
			t.Errorf("%v: shadow lane %.17g, want float64 reference %.17g", eng, v.Sh, math.Pow(x, 3))
		}
	}
}

// TestIntegerPow runs integer ** through both engines. Non-negative
// exponents wrap like y repeated int64 multiplications (checked against
// math/big modulo 2^64) and finish in log2(y) steps even for huge y.
// Negative exponents truncate 1/(x**-y) toward zero, so only bases 1 and
// -1 survive, and base 0 is a division by zero.
func TestIntegerPow(t *testing.T) {
	wrapPow := func(x, y int64) int64 {
		mod := new(big.Int).Lsh(big.NewInt(1), 64)
		r := new(big.Int).Exp(new(big.Int).SetUint64(uint64(x)), big.NewInt(y), mod)
		return int64(r.Uint64())
	}
	cases := []struct {
		x, y    int64
		want    int64
		wantErr string
	}{
		{x: 2, y: 10, want: 1024},
		{x: 3, y: 0, want: 1},
		{x: 0, y: 0, want: 1},
		{x: 0, y: 5, want: 0},
		{x: -2, y: 3, want: -8},
		{x: -3, y: 4, want: 81},
		{x: 3, y: 40, want: wrapPow(3, 40)},
		{x: -7, y: 31, want: wrapPow(-7, 31)},
		{x: 2, y: 63, want: math.MinInt64},
		{x: 2, y: 64, want: 0},
		{x: 3, y: 2000000000, want: wrapPow(3, 2000000000)},
		{x: 2, y: -1, want: 0},
		{x: -5, y: -2, want: 0},
		{x: 1, y: -2, want: 1},
		{x: -1, y: -3, want: -1},
		{x: -1, y: -4, want: 1},
		{x: 0, y: -1, wantErr: "integer zero raised to a negative power"},
	}
	for _, tc := range cases {
		src := fmt.Sprintf(`
module e
  implicit none
  integer :: r_out
end module e
program p
  use e
  implicit none
  integer :: a, b
  a = %d
  b = %d
  r_out = a ** b
end program p
`, tc.x, tc.y)
		prog := ft.MustParse(src)
		ft.MustAnalyze(prog, ft.Options{})
		for _, eng := range []Engine{EngineAST, EngineVM} {
			in, err := New(prog, Config{Model: perfmodel.Default(), Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			_, err = in.Run()
			if tc.wantErr != "" {
				var re *RunError
				if !errors.As(err, &re) || re.Kind != FailNonFinite || re.Msg != tc.wantErr {
					t.Errorf("%v: %d ** %d: got error %v, want FailNonFinite %q", eng, tc.x, tc.y, err, tc.wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%v: %d ** %d: %v", eng, tc.x, tc.y, err)
			}
			if v, _ := in.Global("e.r_out"); v.I != tc.want {
				t.Errorf("%v: %d ** %d = %d, want %d", eng, tc.x, tc.y, v.I, tc.want)
			}
		}
	}
}
