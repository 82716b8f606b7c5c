package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/interp"
)

// TestHugeArrayIsRunError: a program that declares an array too large
// to allocate fails with a *interp.RunError, which main reports with
// exit status 1, instead of panicking in makeslice (exit status 2).
func TestHugeArrayIsRunError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.ft")
	src := `module m
  implicit none
contains
  subroutine s()
    real(kind=8) :: a(3037000500, 3037000500)
    a = 1.0d0
  end subroutine s
end module m
program p
  use m
  call s()
end program p
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(path, "", "avx2", false, true, 0)
	var re *interp.RunError
	if !errors.As(err, &re) || re.Kind != interp.FailInternal {
		t.Fatalf("run = %v, want a FailInternal *interp.RunError", err)
	}
}
