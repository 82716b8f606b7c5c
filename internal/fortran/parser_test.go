package fortran

import (
	"strings"
	"testing"
	"time"
)

const miniModule = `
module phys
  implicit none
  integer, parameter :: n = 64
  real(kind=8) :: field(n)
contains
  function fun(x) result(y)
    real(kind=8), intent(in) :: x
    real(kind=8) :: y
    y = x + 0.5d0 * sin(2.0d0 * x)
  end function fun

  subroutine advance(u, dt)
    real(kind=8), intent(inout) :: u(:)
    real(kind=8), intent(in) :: dt
    integer :: i
    do i = 1, size(u)
      u(i) = u(i) + dt * fun(u(i))
    end do
  end subroutine advance
end module phys

program main
  use phys
  implicit none
  real(kind=8) :: dt
  dt = 0.01d0
  call advance(field, dt)
end program main
`

func TestParseMiniModule(t *testing.T) {
	prog, err := Parse(miniModule)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(prog.Modules) != 1 {
		t.Fatalf("got %d modules, want 1", len(prog.Modules))
	}
	m := prog.Modules[0]
	if m.Name != "phys" {
		t.Errorf("module name %q", m.Name)
	}
	if len(m.Procs) != 2 {
		t.Fatalf("got %d procs, want 2", len(m.Procs))
	}
	if m.Procs[0].Kind != KFunction || m.Procs[0].ResultName != "y" {
		t.Errorf("fun: kind=%v result=%q", m.Procs[0].Kind, m.Procs[0].ResultName)
	}
	if m.Procs[1].Kind != KSubroutine || len(m.Procs[1].Params) != 2 {
		t.Errorf("advance: kind=%v params=%v", m.Procs[1].Kind, m.Procs[1].Params)
	}
	if prog.Main == nil || prog.Main.Name != "main" {
		t.Fatalf("missing main program")
	}
	if len(prog.Main.Uses) != 1 || prog.Main.Uses[0] != "phys" {
		t.Errorf("main uses = %v", prog.Main.Uses)
	}
}

func TestParseDeclarations(t *testing.T) {
	src := `
module m
  implicit none
  real(kind=8), parameter :: pi = 3.14159d0
  real(kind=4) :: a, b(10), c(0:9, 5)
  real :: defk
  double precision :: d
  integer :: i = 3
  logical :: ok
end module m
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	decls := prog.Modules[0].Decls
	byName := map[string]*VarDecl{}
	for _, d := range decls {
		byName[d.Name] = d
	}
	if len(decls) != 8 {
		t.Fatalf("got %d decls, want 8 (multi-name lines split)", len(decls))
	}
	if d := byName["pi"]; !d.IsParam || d.Kind != 8 || d.Init == nil {
		t.Errorf("pi: %+v", d)
	}
	if d := byName["b"]; len(d.Dims) != 1 || d.Kind != 4 {
		t.Errorf("b: %+v", d)
	}
	if d := byName["c"]; len(d.Dims) != 2 || d.Dims[0].Lo == nil {
		t.Errorf("c: %+v", d)
	}
	if d := byName["defk"]; d.Kind != 4 {
		t.Errorf("default real kind = %d, want 4", d.Kind)
	}
	if d := byName["d"]; d.Kind != 8 {
		t.Errorf("double precision kind = %d, want 8", d.Kind)
	}
	if d := byName["ok"]; d.Base != TLogical {
		t.Errorf("ok: %+v", d)
	}
}

func TestParseIfChain(t *testing.T) {
	src := `
program p
  implicit none
  integer :: x, y
  x = 1
  if (x > 0) then
    y = 1
  else if (x < 0) then
    y = -1
  else
    y = 0
  end if
  if (x == 3) y = 9
end program p
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	body := prog.Main.Body
	ifs, ok := body[1].(*IfStmt)
	if !ok {
		t.Fatalf("stmt 1 is %T", body[1])
	}
	if len(ifs.Else) != 1 {
		t.Fatalf("else arm: %d stmts", len(ifs.Else))
	}
	elif, ok := ifs.Else[0].(*IfStmt)
	if !ok || !elif.ElseIf {
		t.Fatalf("else-if not nested: %T", ifs.Else[0])
	}
	if len(elif.Else) != 1 {
		t.Errorf("final else: %d stmts", len(elif.Else))
	}
	oneLine, ok := body[2].(*IfStmt)
	if !ok || len(oneLine.Then) != 1 || oneLine.Else != nil {
		t.Errorf("single-line if: %+v", body[2])
	}
}

func TestParseLoops(t *testing.T) {
	src := `
program p
  implicit none
  integer :: i
  real(kind=8) :: s
  s = 0.0d0
  do i = 1, 10, 2
    s = s + 1.0d0
    if (s > 4.0d0) exit
  end do
  do while (s > 0.0d0)
    s = s - 1.0d0
    cycle
  end do
!dir$ novector
  do i = 1, 3
    s = s + 1.0d0
  enddo
end program p
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	body := prog.Main.Body
	d, ok := body[1].(*DoStmt)
	if !ok || d.Step == nil {
		t.Fatalf("counted do: %T", body[1])
	}
	if _, ok := body[2].(*DoWhileStmt); !ok {
		t.Fatalf("do while: %T", body[2])
	}
	nv, ok := body[3].(*DoStmt)
	if !ok || !nv.NoVector {
		t.Fatalf("!dir$ novector not applied: %+v", body[3])
	}
}

func TestParsePrecedence(t *testing.T) {
	// -a**2 must parse as -(a**2); a-b-c as (a-b)-c; a**b**c as a**(b**c).
	src := "program p\nimplicit none\nreal(kind=8) :: a, b, c, r\nr = -a**2 + b - c\nend program p"
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	as := prog.Main.Body[0].(*AssignStmt)
	// ((-a**2) + b) - c
	top, ok := as.RHS.(*BinExpr)
	if !ok || top.Op != MINUS {
		t.Fatalf("top op: %v", as.RHS)
	}
	add, ok := top.X.(*BinExpr)
	if !ok || add.Op != PLUS {
		t.Fatalf("second level: %v", ExprString(top.X))
	}
	neg, ok := add.X.(*UnExpr)
	if !ok || neg.Op != MINUS {
		t.Fatalf("unary: %v", ExprString(add.X))
	}
	if pow, ok := neg.X.(*BinExpr); !ok || pow.Op != POW {
		t.Fatalf("-a**2 did not bind as -(a**2): %v", ExprString(neg.X))
	}
}

func TestParseRightAssocPow(t *testing.T) {
	src := "program p\nimplicit none\nreal(kind=8) :: a, r\nr = a**2**3\nend program p"
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rhs := prog.Main.Body[0].(*AssignStmt).RHS.(*BinExpr)
	if _, ok := rhs.Y.(*BinExpr); !ok {
		t.Fatalf("a**2**3 not right-associative: %s", ExprString(rhs))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"module m\nimplicit none\nend module wrong\n",
		"program p\nimplicit none\nx = \nend program p",
		"junk at top level",
		"module m\nimplicit none\nreal(kind=3) :: x\nend module m",
		"program p\nimplicit none\nif (1 > 0) then\nend program p", // unclosed if
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src[:min(len(src), 40)])
		}
	}
}

func TestParseCallAndApply(t *testing.T) {
	src := `
program p
  implicit none
  real(kind=8) :: a(5), x
  integer :: i
  i = 2
  x = a(i) + sqrt(4.0d0)
  call mpi_allreduce_sum(x)
end program p
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	as := prog.Main.Body[1].(*AssignStmt)
	bin := as.RHS.(*BinExpr)
	if _, ok := bin.X.(*ApplyExpr); !ok {
		t.Errorf("a(i) should parse as ApplyExpr before sema, got %T", bin.X)
	}
	cs, ok := prog.Main.Body[2].(*CallStmt)
	if !ok || cs.Name != "mpi_allreduce_sum" || len(cs.Args) != 1 {
		t.Errorf("call stmt: %+v", prog.Main.Body[2])
	}
}

func TestParseRecoversAndReportsAll(t *testing.T) {
	src := "program p\nimplicit none\ninteger :: i\ni = )\ni = (\nend program p"
	p := &Parser{}
	toks, _ := Lex(src)
	p.toks = toks
	p.parseProgram()
	if len(p.errs) < 2 {
		t.Errorf("expected ≥2 diagnostics, got %d", len(p.errs))
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on bad input")
		}
	}()
	MustParse("not fortran")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestParseLongContinuedExpr(t *testing.T) {
	src := "program p\nimplicit none\nreal(kind=8) :: r\nr = 1.0d0 + &\n 2.0d0 + &\n 3.0d0\nend program p"
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	got := ExprString(prog.Main.Body[0].(*AssignStmt).RHS)
	if !strings.Contains(got, "3.0_8") {
		t.Errorf("continuation lost trailing term: %s", got)
	}
}

// unclosedLists are sources whose parenthesized list misses its ')', or
// breaks off at a token that is no separator. The list loops once kept
// appending errors at EOF forever on each of them.
var unclosedLists = []string{
	"program p\n  implicit none\n  call s(1, 2\nend program p\n",
	"program p\n  implicit none\n  real(kind=8) :: x\n  x = max(1.0d0, 2.0d0\nend program p\n",
	"module m\ncontains\n  subroutine s(a\n  end subroutine s\nend module m\nprogram p\nend program p\n",
	// A declaration after an executable statement parses as a call.
	"program p\n  implicit none\n  integer :: i\n  i = 1\n  real(kind=8) :: x\nend program p\n",
	"program p\n  call s(1, 2",
}

// TestParseUnclosedListsReturn pins that Parse returns an error, within a
// deadline, on every unclosed-list reproducer.
func TestParseUnclosedListsReturn(t *testing.T) {
	for i, src := range unclosedLists {
		done := make(chan error, 1)
		go func() {
			_, err := Parse(src)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("reproducer %d parsed without error:\n%s", i, src)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("reproducer %d: Parse did not return within 5s:\n%s", i, src)
		}
	}
}
