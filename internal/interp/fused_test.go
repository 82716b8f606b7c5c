package interp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	ft "repro/internal/fortran"
	"repro/internal/numerics"
	"repro/internal/perfmodel"
)

// An uninstrumented real + - * / compiles to an arithmetic node
// (rarith), a nested one is a node its parent calls directly, and an
// assignment whose right-hand side is a node calls it from its own
// closure. The boxed compile and every compile with a recorder build no
// node, so diffRuns checks the nodes against the closures they replace.

// fusedSource is a program whose assignments in body nest every
// operand form of a node on both sides of + - * /: a local real
// scalar, a literal, an element of inline shape, a nested node, and
// the closure operands (a call, an intrinsic, a module scalar, an
// affine integer). It mixes kinds 4 and 8, so operands cast and
// stores convert, and it stores into locals, module scalars and
// elements. The main program calls body for i = 1..last: at last = 9,
// q8(i + 1) in a nested node reads past q8's bound. big multiplies x4
// in a kind-4 node stored to g4: at 3.0e38 the product overflows.
func fusedSource(last int, big string) string {
	return fmt.Sprintf(`
module fz
  implicit none
  real(kind=8) :: g8, q8(0:9), out8(0:9)
  real(kind=4) :: g4, q4(0:9), out4(0:9)
contains
  function f8(a) result(r)
    real(kind=8), intent(in) :: a
    real(kind=8) :: r
    r = a * 0.5d0 + 1.0d0
  end function f8

  function f4(a) result(r)
    real(kind=4), intent(in) :: a
    real(kind=4) :: r
    r = a * 0.25 - 1.0
  end function f4

  subroutine body(i, k, big)
    integer, intent(in) :: i
    integer, intent(in) :: k
    real(kind=4), intent(in) :: big
    real(kind=8) :: x8, y8
    real(kind=4) :: x4, y4
    x8 = 0.5d0 * i + 0.25d0
    y8 = (q8(i) - x8) * (f8(x8) + g8)
    y4 = 0.25 * k - g4 / 8
    x4 = (q4(i - 1) + y4) / (sqrt(abs(x8)) + 1.0)
    g8 = x4 * (y8 - q8(i + 1)) + (g4 / 3 - k)
    g4 = (f4(x4) * y4) - (2 * i + x4) + x4 * big
    out8(i) = (max(x8, y8) + q8(i)) * (y4 - (x8 / (g8 + 1.0d0)))
    out4(i + 1) = (g8 * x4) - (q4(2) * (f8(y8) - 1.0d0))
    q8(i) = q8(i) + (3 - (out8(i) / (x8 * x8 + 1.0d0)))
    x4 = (y8 * x4) / (y4 - (g8 * 0.5_4 + f4(y4)))
    out4(i) = (2.5_8 - abs(y4)) + ((i + k) * (q4(i) / (g8 + 2)))
  end subroutine body
end module fz

program p
  use fz
  implicit none
  integer :: i
  real(kind=4) :: big
  big = %s
  do i = 0, 9
    q8(i) = 0.1d0 * i + 1.0d0
    q4(i) = 0.2 * i - 0.5
    out8(i) = 0.0d0
    out4(i) = 0.0
  end do
  g8 = 1.0d0
  g4 = 2.0
  do i = 1, %d
    call body(i, mod(i, 3) + 1, big)
  end do
end program p
`, big, last)
}

// fusedProgram parses and analyzes fusedSource(last, big).
func fusedProgram(t *testing.T, last int, big string) *ft.Program {
	t.Helper()
	prog, err := ft.Parse(fusedSource(last, big))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ft.Analyze(prog, ft.Options{}); err != nil {
		t.Fatal(err)
	}
	return prog
}

// fusedStmts returns the lines of prog's assignments that compile to a
// fused statement, and the operand forms, by side, of every node.
func fusedStmts(prog *ft.Program) (lines map[int]bool, forms map[string]bool) {
	c := newCompiler(prog, perfmodel.Default(), nil, nil, false)
	arith := func(e ft.Expr) bool {
		b, ok := e.(*ft.BinExpr)
		return ok && c.arithForm(b)
	}
	form := func(e ft.Expr) string {
		switch e := e.(type) {
		case *ft.RealLit, *ft.IntLit:
			return "literal"
		case *ft.VarRef:
			switch {
			case e.Decl.Base == ft.TInteger:
				return "affine-integer"
			case e.Decl.Proc == nil:
				return "module-scalar"
			}
			return "local"
		case *ft.IndexExpr:
			if shaped(e) {
				return "element"
			}
		case *ft.CallExpr:
			if e.Intrinsic != "" {
				return "intrinsic"
			}
			return "call"
		case *ft.BinExpr:
			if arith(e) {
				return "node"
			}
			return "affine-integer"
		}
		return fmt.Sprintf("%T", e)
	}
	lines, forms = map[int]bool{}, map[string]bool{}
	for _, p := range prog.AllProcs {
		ft.WalkStmts(p.Body, func(s ft.Stmt) bool {
			if a, ok := s.(*ft.AssignStmt); ok && arith(a.RHS) && a.LHS.Type().Base == ft.TReal {
				lines[a.Pos.Line] = true
			}
			return true
		})
		ft.WalkExprs(p.Body, func(e ft.Expr) bool {
			if b, ok := e.(*ft.BinExpr); ok && arith(b) {
				forms["x:"+form(b.X)] = true
				forms["y:"+form(b.Y)] = true
			}
			return true
		})
	}
	return lines, forms
}

// TestEngineDifferentialFused runs fusedSource unboxed and boxed, with
// numerics off and on and TrapNonFinite off and on: the runs must agree
// and complete. Its nodes must nest every operand form on both sides.
func TestEngineDifferentialFused(t *testing.T) {
	prog := fusedProgram(t, 8, "1.0")
	lines, forms := fusedStmts(prog)
	if len(lines) < 10 {
		t.Errorf("%d fused statements, want at least 10", len(lines))
	}
	for _, side := range []string{"x", "y"} {
		for _, f := range []string{"local", "literal", "element", "node", "call", "intrinsic", "module-scalar", "affine-integer"} {
			if !forms[side+":"+f] {
				t.Errorf("no node has a %s operand as its %s (forms %v)", f, side, forms)
			}
		}
	}
	for _, trap := range []bool{false, true} {
		for _, num := range []bool{false, true} {
			t.Run(fmt.Sprintf("trap=%v/numerics=%v", trap, num), func(t *testing.T) {
				if msg := compareEngines(t, prog, "", runOpts{numerics: num, trap: trap}); msg != "" {
					t.Errorf("run failed: %s", msg)
				}
			})
		}
	}
}

// TestFusedErrorPaths: an out-of-bounds element inside a nested node, a
// non-finite node result stored under TrapNonFinite and a cycle budget
// each stop a fused statement with the error, cycles and steps of the
// boxed run.
func TestFusedErrorPaths(t *testing.T) {
	// check runs prog unboxed and boxed through diffEngines and returns
	// the run's error, which must be a kind naming text.
	check := func(t *testing.T, prog *ft.Program, o runOpts, kind FailKind, text string) *RunError {
		t.Helper()
		msg := compareEngines(t, prog, "", o)
		var re *RunError
		if err := runErr(t, prog, o); !errors.As(err, &re) || re.Kind != kind || err.Error() != msg || !strings.Contains(msg, text) {
			t.Fatalf("error %q, want a %v naming %q", msg, kind, text)
		}
		return re
	}
	for _, num := range []bool{false, true} {
		t.Run(fmt.Sprintf("numerics=%v", num), func(t *testing.T) {
			bounds := fusedProgram(t, 9, "1.0")
			lines, _ := fusedStmts(bounds)
			re := check(t, bounds, runOpts{numerics: num, trap: true}, FailBounds, "q8: index 10 out of bounds [0:9]")
			if !lines[re.Pos.Line] {
				t.Errorf("the bounds error is at line %d, not at a fused statement", re.Pos.Line)
			}
			re = check(t, fusedProgram(t, 8, "3.0e38"), runOpts{numerics: num, trap: true}, FailNonFinite,
				"assigning non-finite value to g4")
			if !lines[re.Pos.Line] {
				t.Errorf("the non-finite store is at line %d, not at a fused statement", re.Pos.Line)
			}

			prog := fusedProgram(t, 8, "1.0")
			full := runVM(t, prog, false, runOpts{numerics: num})
			atFused := 0
			for k := 1; k < 40; k++ {
				o := runOpts{numerics: num, budget: full.res.Cycles * float64(k) / 40}
				if re := check(t, prog, o, FailTimeout, "exceeded"); lines[re.Pos.Line] {
					atFused++
				}
			}
			if atFused == 0 {
				t.Error("no budget stopped the run at a fused statement")
			}
		})
	}
}

// runErr returns the error of an unboxed run of prog under o.
func runErr(t *testing.T, prog *ft.Program, o runOpts) error {
	t.Helper()
	cfg := Config{Model: perfmodel.Default(), Profile: true, TrapNonFinite: o.trap, CycleBudget: o.budget}
	if o.numerics {
		cfg.Numerics = numerics.NewRecorder("prog.ft", numerics.Options{})
	}
	in, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = in.Run()
	return err
}
