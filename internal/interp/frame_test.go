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

// A run built through a Pool takes its procedures' first frames from
// the frames earlier runs of the pool released, whichever procedure of
// whichever program they served. The tests below pin that this cannot
// be observed either.

// frameWriter's procedures leave a value in every slot of their
// frames: w's reals, integers, logical, local array and copy-out
// dummies, and rw's at every depth of its recursion.
const frameWriter = `
module d
  implicit none
  real(kind=8) :: acc
contains
  subroutine w(a, b, n)
    real(kind=8) :: a
    real(kind=8) :: b
    integer :: n
    real(kind=8) :: x, y, buf(4)
    integer :: j
    logical :: f
    x = a + 7.5d0
    y = b - 3.25d0
    j = n * 11
    f = .true.
    buf = 9.0d0
    a = x * y
    b = x + y + j
    n = j + 1
    if (f) acc = acc + a + b + sum(buf)
  end subroutine w

  subroutine rw(dep)
    integer, intent(in) :: dep
    real(kind=8) :: u, v
    integer :: m
    u = 5.5d0 * dep
    v = u * u
    m = dep * 3
    if (dep > 1) call rw(dep - 1)
    acc = acc + u + v + m
  end subroutine rw
end module d

program p
  use d
  implicit none
  real(kind=8) :: s, t
  integer :: k
  s = 1.0d0
  t = 2.0d0
  k = 3
  call w(s, t, k)
  call rw(7)
end program p
`

// frameReader's procedures have frameWriter's frame shapes, and read
// locals before writing them: r's real, integer, logical and local
// array, and rr's at every depth of its recursion. Each must read zero.
const frameReader = `
module e
  implicit none
  real(kind=8) :: seen, out
contains
  subroutine r(a, b, n)
    real(kind=8) :: a
    real(kind=8) :: b
    integer :: n
    real(kind=8) :: x, y, buf(4)
    integer :: j
    logical :: f
    seen = seen + abs(x) + abs(y) + abs(sum(buf)) + abs(j)
    if (f) seen = seen + 1.0d0
    x = a * 2.0d0
    a = x + b + n
    out = out + a
  end subroutine r

  subroutine rr(dep)
    integer, intent(in) :: dep
    real(kind=8) :: u, v
    integer :: m
    seen = seen + abs(u) + abs(v) + abs(m)
    u = 1.5d0 * dep
    v = u + dep
    m = dep
    if (dep > 1) call rr(dep - 1)
    out = out + u * v + m
  end subroutine rr
end module e

program q
  use e
  implicit none
  real(kind=8) :: s, t
  integer :: k
  s = 0.5d0
  t = 0.25d0
  k = 2
  call r(s, t, k)
  call rr(9)
  call r(s, t, k)
end program q
`

// pooledFrames returns the frames p holds.
func pooledFrames(p *Pool) map[*vframe]bool {
	out := make(map[*vframe]bool)
	for _, frs := range p.frames {
		for _, fr := range frs {
			out[fr] = true
		}
	}
	return out
}

// checkPoolFramesEmpty fails unless every frame p holds is free of
// arrays and copy-out records.
func checkPoolFramesEmpty(t *testing.T, p *Pool) {
	t.Helper()
	for fr := range pooledFrames(p) {
		for k, a := range fr.a {
			if a != nil {
				t.Fatalf("a pooled frame holds an array in slot %d", k)
			}
		}
		for _, co := range fr.co[:cap(fr.co)] {
			if co != (coRec{}) {
				t.Fatalf("a pooled frame holds a copy-out record %+v", co)
			}
		}
	}
}

// TestPoolFramesFromOtherPrograms runs frameReader through a pool that
// frameWriter's run filled, and a second frameReader run through the
// same pool: each takes frames another procedure, of another program or
// of its own, left full of values, and must show exactly what a run
// through New shows, with every local read before it is written
// reading zero, its shadow lane too.
func TestPoolFramesFromOtherPrograms(t *testing.T) {
	writer, reader := ft.MustParse(frameWriter), ft.MustParse(frameReader)
	ft.MustAnalyze(writer, ft.Options{})
	ft.MustAnalyze(reader, ft.Options{})
	forPoolModes(t, func(t *testing.T, boxed, num bool) {
		var pool Pool
		o := runOpts{numerics: num, pool: &pool}
		w := runVM(t, writer, boxed, o)
		if w.errStr != "" {
			t.Fatalf("writer run: %s", w.errStr)
		}
		w.in.Release()
		checkPoolFramesEmpty(t, &pool)
		fresh := runVM(t, reader, boxed, runOpts{numerics: num})
		for run := 0; run < 2; run++ {
			released := pooledFrames(&pool)
			pooled := runVM(t, reader, boxed, o)
			taken := 0
			for _, fr := range runFrames(pooled.in) {
				if released[fr] {
					taken++
				}
			}
			// r, rr's first activation and main (of the reader's own
			// first run) at the least.
			if want := 2 + run; taken < want {
				t.Errorf("run %d took %d released frames, want at least %d", run, taken, want)
			}
			if f, sh := frameScalar(t, pooled.in, "e.seen"); f != 0 || sh != 0 {
				t.Errorf("run %d: seen = %g (shadow %g): a local read before it was written is not zero", run, f, sh)
			}
			if num {
				if d := pooled.rec.Profile().MaxDivergence; d != 0 {
					t.Errorf("run %d diverged: MaxDivergence %g", run, d)
				}
			}
			diffRuns(t, reader, num, pooled, fresh)
			pooled.in.Release()
			checkPoolFramesEmpty(t, &pool)
		}
	})
}

// TestPoolFramesCap releases frames into pools whose byte cap holds
// none of them, and one that holds them all.
func TestPoolFramesCap(t *testing.T) {
	writer := ft.MustParse(frameWriter)
	ft.MustAnalyze(writer, ft.Options{})
	for _, limit := range []int{1, 200, 1 << 20} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			pool := Pool{limit: limit}
			r := runVM(t, writer, false, runOpts{pool: &pool})
			frames := runFrames(r.in)
			r.in.Release()
			if pool.held > limit {
				t.Fatalf("the pool holds %d bytes, over its cap of %d", pool.held, limit)
			}
			if held := len(pooledFrames(&pool)); limit == 1<<20 && held != len(frames) {
				t.Errorf("the pool holds %d of the run's %d frames under a cap of %d bytes", held, len(frames), limit)
			} else if limit == 1 && held != 0 {
				t.Errorf("the pool holds %d frames under a cap of 1 byte", held)
			}
		})
	}
}
