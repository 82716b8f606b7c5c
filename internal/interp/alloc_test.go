package interp

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	ft "repro/internal/fortran"
	"repro/internal/perfmodel"
)

// callProgram calls two procedures n times each: a flux4-shaped function
// whose five no-intent real dummies are bound to four array elements and
// a scalar, all copied out (as in MPAS-A), and a subroutine with seven
// scalar dummies mixing no intent, intent(out), intent(inout) and
// intent(in), with scalar and element actuals. Both calls copy out more
// than four scalars.
func callProgram(n int) *ft.Program {
	src := fmt.Sprintf(`
module calls
  implicit none
  integer, parameter :: ncall = %d
  real(kind=8) :: q(16), acc, s1
  real(kind=4) :: w(16)
  integer :: cnt
contains
  function flux4(q_im2, q_im1, q_i, q_ip1, ua) result(f)
    real(kind=8) :: q_im2
    real(kind=8) :: q_im1
    real(kind=8) :: q_i
    real(kind=8) :: q_ip1
    real(kind=8) :: ua
    real(kind=8) :: f
    f = ua * (7.0d0 * (q_i + q_im1) - (q_ip1 + q_im2)) / 12.0d0
  end function flux4

  subroutine mix(a, b, c, d, e, k, g)
    real(kind=8) :: a
    real(kind=8), intent(out) :: b
    real(kind=8), intent(inout) :: c
    real(kind=4) :: d
    real(kind=8), intent(inout) :: e
    integer, intent(inout) :: k
    real(kind=8), intent(in) :: g
    b = a + g
    c = c + 1.0d0
    d = d * 0.5
    e = e + 0.25d0 * a
    k = k + 1
  end subroutine mix
end module calls

program p
  use calls
  implicit none
  integer :: i, j
  real(kind=8) :: x, y
  x = 1.5d0
  do i = 1, 16
    q(i) = 0.125d0 * i
    w(i) = 0.5
  end do
  do i = 1, ncall
    j = mod(i, 12) + 3
    acc = acc + flux4(q(j-2), q(j-1), q(j), q(j+1), x)
    call mix(x, q(j), s1, w(j+1), y, cnt, q(j-1))
  end do
end program p
`, n)
	prog := ft.MustParse(src)
	ft.MustAnalyze(prog, ft.Options{})
	return prog
}

// stencilProgram makes n calls in the shape of MPAS-A's advection loop,
// flux4(uu(i-1), uu(i), uu(i+1), uu(i+2), ub): inside a subroutine, a
// loop over an assumed-shape dummy passes four of its elements, indexed
// i, i - 1 and i + c, to no-intent dummies that are all copied back.
func stencilProgram(n int) *ft.Program {
	src := fmt.Sprintf(`
module stencil
  implicit none
  integer, parameter :: ncall = %d
  real(kind=8) :: u(ncall + 4), acc
contains
  function flux4(q_im2, q_im1, q_i, q_ip1, ua) result(f)
    real(kind=8) :: q_im2
    real(kind=8) :: q_im1
    real(kind=8) :: q_i
    real(kind=8) :: q_ip1
    real(kind=8) :: ua
    real(kind=8) :: f
    f = ua * (7.0d0 * (q_i + q_im1) - (q_ip1 + q_im2)) / 12.0d0
  end function flux4

  subroutine tend(uu)
    real(kind=8), intent(inout) :: uu(:)
    real(kind=8) :: ub
    integer :: i
    do i = 2, size(uu) - 2
      ub = 0.5d0 * (uu(i) + uu(i+1))
      acc = acc + flux4(uu(i-1), uu(i), uu(i+1), uu(i+2), ub)
    end do
  end subroutine tend
end module stencil

program p
  use stencil
  implicit none
  integer :: i
  do i = 1, ncall + 4
    u(i) = 0.125d0 * i
  end do
  call tend(u)
end program p
`, n)
	prog := ft.MustParse(src)
	ft.MustAnalyze(prog, ft.Options{})
	return prog
}

// chainProgram makes n calls in the shape of MOM6's Newton step,
// fk = zonal_flux_layer(h_r(i, k), h_l(i, k), uvel_face(i, k) + du): a
// real function using sign whose third actual adds to the result of a
// function with two no-intent integer dummies, both copied back out.
func chainProgram(n int) *ft.Program {
	src := fmt.Sprintf(`
module chain
  implicit none
  integer, parameter :: ncall = %d
  real(kind=8) :: h(17), u(16, 2), acc
contains
  function zf(hupw, hdnw, uface) result(f)
    real(kind=8) :: hupw
    real(kind=8) :: hdnw
    real(kind=8) :: uface
    real(kind=8) :: f
    f = uface * (0.5d0 * (hupw + hdnw) + sign(0.5d0, uface) * (hupw - hdnw) * 0.3d0)
  end function zf

  function uf(i, k) result(v)
    integer :: i
    integer :: k
    real(kind=8) :: v
    v = u(i, k)
  end function uf
end module chain

program p
  use chain
  implicit none
  integer :: i, k, it
  real(kind=8) :: fk, du
  du = 0.125d0
  do i = 1, 17
    h(i) = 0.25d0 * i
  end do
  do k = 1, 2
    do i = 1, 16
      u(i, k) = 0.5d0 * i - k
    end do
  end do
  k = 2
  do it = 1, ncall
    i = mod(it, 16) + 1
    fk = zf(h(i), h(i + 1), uf(i, k) + du)
    acc = acc + fk
  end do
end program p
`, n)
	prog := ft.MustParse(src)
	ft.MustAnalyze(prog, ft.Options{})
	return prog
}

// newtonProgram runs a DO WHILE for n iterations in the shape of MOM6's
// zonal_flux_adjust: the test abs(resid) > tol * scale .and. iter <
// itmax has tol = 0, so the loop runs to itmax = n (a stop fires if it
// ends early); each iteration runs a do k loop that reads rank-2 module
// arrays and calls a real function, and its update uses real(iter, 8).
func newtonProgram(n int) *ft.Program {
	src := fmt.Sprintf(`
module newton
  implicit none
  integer, parameter :: ni = 8
  integer, parameter :: nk = 4
  integer, parameter :: itmax = %d
  real(kind=8) :: h_l(ni, nk), h_r(ni, nk), u(ni, nk)
contains
  function flux(hupw, hdnw, uface) result(f)
    real(kind=8) :: hupw
    real(kind=8) :: hdnw
    real(kind=8) :: uface
    real(kind=8) :: f
    f = uface * (0.5d0 * (hupw + hdnw) + sign(0.5d0, uface) * (hupw - hdnw) * 0.3d0)
  end function flux

  subroutine adjust(i, target)
    integer, intent(in) :: i
    real(kind=8), intent(in) :: target
    real(kind=8) :: du, resid, dresid, fk, scale, tol
    integer :: k, iter
    tol = 0.0d0
    du = 0.0d0
    scale = abs(target) + 1.0d-2
    iter = 0
    resid = 1.0d0
    do while (abs(resid) > tol * scale .and. iter < itmax)
      resid = -target
      dresid = 1.0d-12
      do k = 1, nk
        fk = flux(h_r(i, k), h_l(i, k), u(i, k) + du)
        resid = resid + fk
        dresid = dresid + 0.5d0 * (h_r(i, k) + h_l(i, k))
      end do
      du = du - resid / dresid + 1.0d-6 * real(iter, 8)
      iter = iter + 1
    end do
    if (iter /= itmax) stop 9
  end subroutine adjust
end module newton

program p
  use newton
  implicit none
  integer :: i, k
  do k = 1, nk
    do i = 1, ni
      h_l(i, k) = 1.0d0 + 0.125d0 * i
      h_r(i, k) = 1.5d0 + 0.0625d0 * k
      u(i, k) = 0.25d0 * i - 0.5d0 * k
    end do
  end do
  call adjust(3, 2.5d0)
end program p
`, n)
	prog := ft.MustParse(src)
	ft.MustAnalyze(prog, ft.Options{})
	return prog
}

// localArrayProgram makes n calls of a subroutine with a local
// real(kind=8) :: w(m) sized by a dummy, as a generated wrapper's
// temporary of the callee's kind is. m cycles through 7, 8 and 6: the
// second call outgrows the first one's array, and every later call
// reuses the second one's.
func localArrayProgram(n int) *ft.Program {
	src := fmt.Sprintf(`
module loc
  implicit none
  integer, parameter :: ncall = %d
  real(kind=8) :: acc
contains
  subroutine work(m)
    integer, intent(in) :: m
    real(kind=8) :: w(m)
    integer :: i
    do i = 1, m
      w(i) = 0.5d0 * i
    end do
    acc = acc + w(m)
  end subroutine work
end module loc

program p
  use loc
  implicit none
  integer :: i
  do i = 1, ncall
    call work(mod(i, 3) + 6)
  end do
end program p
`, n)
	prog := ft.MustParse(src)
	ft.MustAnalyze(prog, ft.Options{})
	return prog
}

// runAllocs returns the allocations made by one VM Run of prog compiled
// unboxed or boxed (New is outside the measurement), the least of three
// tries.
func runAllocs(t *testing.T, prog *ft.Program, boxed bool) uint64 {
	t.Helper()
	best := ^uint64(0)
	for try := 0; try < 3; try++ {
		in, err := newInterp(prog, Config{Model: perfmodel.Default()}, boxed, nil)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if d := after.Mallocs - before.Mallocs; d < best {
			best = d
		}
	}
	return best
}

// TestVMCallsAllocationFree pins that a VM call allocates nothing after
// its procedure's first activation, compiled unboxed and boxed: a run
// making 1000 calls of each procedure allocates exactly as much as one
// making 10 (frames, their local arrays and the result map are per-run
// costs). The Newton loop pins the same for its condition, rank-2
// element reads and integer conversions, over 10 and 1000 iterations.
func TestVMCallsAllocationFree(t *testing.T) {
	for name, build := range map[string]func(int) *ft.Program{
		"copy-out": callProgram, "stencil": stencilProgram, "chain": chainProgram, "newton": newtonProgram,
		"local-array": localArrayProgram,
	} {
		for _, boxed := range []bool{false, true} {
			small := runAllocs(t, build(10), boxed)
			large := runAllocs(t, build(1000), boxed)
			if small != large {
				t.Errorf("%s (%s): Run allocations grow with the call count: %d at N=10, %d at N=1000",
					name, compileName(boxed), small, large)
			}
		}
	}
}

// TestNewAllocsOnModels pins how many objects compiling each bundled
// model allocates as a tuner evaluation does (GPTL profiling and the
// trap on, New computing the analysis): at most the counts since the
// compile takes its arithmetic nodes from a per-compile slab and an
// assignment calls its right-hand side's node itself. Before that, when
// each + - * / was a closure and an escaping node, they were 678, 106,
// 836 and 703 objects for adcirc, funarc, mom6 and mpas_a. A -race
// build, whose count varies, must stay under the counts from before the
// compile took its element references, call sites, dimension plans and
// statement and init lists from per-compile slabs: 1,199, 1,331 and
// 1,278 objects for adcirc, mom6 and mpas_a, and 127 for funarc. While
// every element reference, array assignment and array argument built
// its "is not an allocated array" error and every assignment its
// recorder target name, they were 2,058, 2,017, 2,228 and 153.
func TestNewAllocsOnModels(t *testing.T) {
	limit := map[string]float64{"adcirc.ft": 576, "funarc.ft": 99, "mom6.ft": 734, "mpas_a.ft": 560}
	if raceBuild {
		limit = map[string]float64{"adcirc.ft": 1199, "funarc.ft": 127, "mom6.ft": 1331, "mpas_a.ft": 1278}
	}
	files, err := filepath.Glob("../models/src/*.ft")
	if err != nil || len(files) != len(limit) {
		t.Fatalf("model sources %v (%v), want the %d of %v", files, err, len(limit), limit)
	}
	for _, f := range files {
		prog := parseModelFile(t, f)
		cfg := Config{Model: perfmodel.Default(), TrapNonFinite: true, Profile: true}
		got := testing.AllocsPerRun(5, func() {
			if _, err := New(prog, cfg); err != nil {
				t.Fatal(err)
			}
		})
		name := filepath.Base(f)
		if got > limit[name] {
			t.Errorf("%s: New allocates %.0f objects, want at most %.0f", name, got, limit[name])
		}
		t.Logf("%s: New allocates %.0f objects (at most %.0f)", name, got, limit[name])
	}
}
