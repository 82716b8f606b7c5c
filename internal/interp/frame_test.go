package interp

import (
	"errors"
	"fmt"
	"testing"

	ft "repro/internal/fortran"
	"repro/internal/numerics"
	"repro/internal/perfmodel"
)

// A pooled frame keeps its local arrays from one activation to the
// next (declInit, Array.reinit). These tests pin that the reuse cannot
// be observed: compiled unboxed and boxed, with and without numerics,
// every activation sees what a freshly allocated array would show.

// runFrameModes runs src in each compile mode, without and with a
// numerics recorder, and hands check the run (rec is nil without
// numerics).
func runFrameModes(t *testing.T, src string, check func(t *testing.T, in *Interp, rec *numerics.Recorder, err error)) {
	t.Helper()
	prog := ft.MustParse(src)
	ft.MustAnalyze(prog, ft.Options{})
	for _, boxed := range []bool{false, true} {
		for _, withNumerics := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/numerics=%v", compileName(boxed), withNumerics), func(t *testing.T) {
				cfg := Config{Model: perfmodel.Default()}
				var rec *numerics.Recorder
				if withNumerics {
					rec = numerics.NewRecorder("prog.ft", numerics.Options{})
					cfg.Numerics = rec
				}
				in, err := newInterp(prog, cfg, boxed, nil)
				if err != nil {
					t.Fatal(err)
				}
				_, err = in.Run()
				check(t, in, rec, err)
			})
		}
	}
}

// frameScalar reads a module scalar as float64 and its shadow lane.
func frameScalar(t *testing.T, in *Interp, q string) (f, sh float64) {
	t.Helper()
	v, ok := in.Global(q)
	if !ok || v.Arr != nil {
		t.Fatalf("global scalar %s not found", q)
	}
	return v.asFloat(), v.sh()
}

// reuseMod declares s(k, m, probe): a local w(k:k+m-1) that it reads
// before writing (the sum of |w(i)| goes to seen, which must stay 0),
// then fills, then reads at index probe into last; then it adds
// 1.5 × size(w) to total, through a whole-array fill and sum.
const reuseMod = `
module z
  implicit none
  real(kind=8) :: seen, last, total
contains
  subroutine s(k, m, probe)
    integer, intent(in) :: k
    integer, intent(in) :: m
    integer, intent(in) :: probe
    real(kind=8) :: w(k:k + m - 1)
    integer :: i
    do i = k, k + m - 1
      seen = seen + abs(w(i))
      w(i) = 1.5d0 * i
    end do
    last = w(probe)
    w = 0.5d0
    total = total + size(w) + sum(w)
  end subroutine s
end module z
`

// TestLocalArrayZeroOnEveryActivation: an array the previous activation
// wrote reads as zero before it is written again, its shadow too, so a
// kind-8 run still shows no divergence. The extents shrink (10 → 3),
// grow within the first activation's storage (→ 8) and beyond it (→ 12,
// a new array), and the lower bound moves.
func TestLocalArrayZeroOnEveryActivation(t *testing.T) {
	src := reuseMod + `
program p
  use z
  implicit none
  call s(1, 10, 10)
  call s(1, 10, 1)
  call s(0, 3, 2)
  call s(5, 8, 12)
  call s(-2, 12, 9)
  call s(1, 4, 4)
end program p
`
	runFrameModes(t, src, func(t *testing.T, in *Interp, rec *numerics.Recorder, err error) {
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if f, sh := frameScalar(t, in, "z.seen"); f != 0 || sh != 0 {
			t.Errorf("seen = %g (shadow %g): a local array read before it was written is not zero", f, sh)
		}
		if f, _ := frameScalar(t, in, "z.total"); f != 1.5*(10+10+3+8+12+4) {
			t.Errorf("total = %g, want 1.5 × 47", f)
		}
		if f, sh := frameScalar(t, in, "z.last"); f != 6 || sh != 6 {
			t.Errorf("last = %g (shadow %g), want 6", f, sh)
		}
		if rec != nil {
			if d := rec.Profile().MaxDivergence; d != 0 {
				t.Errorf("kind-8 max divergence = %v, want 0", d)
			}
		}
	})
}

// TestLocalArrayShrinkGrowBoundsError: after larger and smaller
// activations, an out-of-range read fails with the error a first
// activation gives, naming the new bounds.
func TestLocalArrayShrinkGrowBoundsError(t *testing.T) {
	const want = "16:12: index out of bounds: w: index 13 out of bounds [5:12] in dimension 1"
	for _, calls := range []string{
		"call s(5, 8, 13)",
		"call s(1, 20, 20)\n  call s(1, 3, 3)\n  call s(5, 8, 13)",
	} {
		src := reuseMod + "program p\n  use z\n  implicit none\n  " + calls + "\nend program p\n"
		runFrameModes(t, src, func(t *testing.T, in *Interp, rec *numerics.Recorder, err error) {
			var re *RunError
			if !errors.As(err, &re) || re.Kind != FailBounds || err.Error() != want {
				t.Errorf("%s: err = %v, want %q", calls, err, want)
			}
			if f, _ := frameScalar(t, in, "z.seen"); f != 0 {
				t.Errorf("%s: seen = %g: a local array read before it was written is not zero", calls, f)
			}
		})
	}
}

// TestRecursiveLocalArraysAreOwnedPerActivation: each activation of a
// recursive procedure, whose local extent depends on its depth, keeps
// its own values across the calls below it, and starts from zeros.
func TestRecursiveLocalArraysAreOwnedPerActivation(t *testing.T) {
	src := `
module rec
  implicit none
  real(kind=8) :: total
  integer :: bad
contains
  subroutine r(d)
    integer, intent(in) :: d
    real(kind=8) :: w(d)
    integer :: i
    do i = 1, d
      if (w(i) /= 0.0d0) bad = bad + 1
      w(i) = 100.0d0 * d + i
    end do
    if (d > 1) call r(d - 1)
    do i = 1, d
      if (w(i) /= 100.0d0 * d + i) bad = bad + 1
      total = total + w(i)
    end do
  end subroutine r
end module rec

program p
  use rec
  implicit none
  call r(5)
  call r(3)
  call r(6)
end program p
`
	// sum over d = 1..n of (100 d² + d(d+1)/2)
	want := 0.0
	for _, n := range []int{5, 3, 6} {
		for d := 1; d <= n; d++ {
			want += float64(100*d*d + d*(d+1)/2)
		}
	}
	runFrameModes(t, src, func(t *testing.T, in *Interp, rec *numerics.Recorder, err error) {
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if f, _ := frameScalar(t, in, "rec.bad"); f != 0 {
			t.Errorf("%g element(s) were not zero on entry or changed under a recursive call", f)
		}
		if f, sh := frameScalar(t, in, "rec.total"); f != want || sh != want {
			t.Errorf("total = %g (shadow %g), want %g", f, sh, want)
		}
	})
}
