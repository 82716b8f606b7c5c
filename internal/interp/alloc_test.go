package interp

import (
	"fmt"
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

// runAllocs returns the allocations made by one VM Run of prog (New is
// outside the measurement), the least of three tries.
func runAllocs(t *testing.T, prog *ft.Program) uint64 {
	t.Helper()
	best := ^uint64(0)
	for try := 0; try < 3; try++ {
		in, err := New(prog, Config{Model: perfmodel.Default(), Engine: EngineVM})
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

// TestVMCallsAllocationFree pins that a VM call allocates nothing: a run
// making 1000 calls of each procedure allocates exactly as much as one
// making 10 (frames, arrays and the result map are per-run costs).
func TestVMCallsAllocationFree(t *testing.T) {
	small := runAllocs(t, callProgram(10))
	large := runAllocs(t, callProgram(1000))
	if small != large {
		t.Errorf("Run allocations grow with the call count: %d at N=10, %d at N=1000", small, large)
	}
}
