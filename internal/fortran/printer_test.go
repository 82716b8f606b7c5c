package fortran

import (
	"strings"
	"testing"
)

// stepModule uses the statements miniModule does not: DO WHILE, ELSE IF,
// EXIT, CYCLE, STOP, PRINT and a novector directive.
const stepModule = `
module m
  implicit none
  real(kind=8), parameter :: pi = 3.141592653589793d0
  real(kind=4) :: grid(0:127, 4)
contains
  subroutine step(u, n)
    real(kind=4), intent(inout) :: u(:)
    integer, intent(in) :: n
    integer :: i
    real(kind=4) :: t
!dir$ novector
    do i = 2, n
      u(i) = u(i) + u(i-1) * 0.5
    end do
    t = 0.0
    do while (t < 1.0)
      t = t + 0.25
      if (t > 0.7) then
        exit
      else if (t > 0.5) then
        cycle
      else
        t = t + mod(t, 0.125)
      end if
    end do
    if (t /= t) stop 1
    print *, 'done', t
  end subroutine step
end module m
`

// TestPrintRoundTrip checks the core printer property: printing a parsed
// program and re-parsing the output yields a program that prints
// identically (a fixed point after one round).
func TestPrintRoundTrip(t *testing.T) {
	sources := []string{miniModule, stepModule}
	for i, src := range sources {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("case %d parse: %v", i, err)
		}
		out1 := Print(p1)
		p2, err := Parse(out1)
		if err != nil {
			t.Fatalf("case %d reparse printed source: %v\n%s", i, err, out1)
		}
		out2 := Print(p2)
		if out1 != out2 {
			t.Errorf("case %d print not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", i, out1, out2)
		}
	}
}

// TestPrintPreservesSemantics re-analyzes the printed form and checks the
// structure (procedures, declarations, kinds) is preserved.
func TestPrintPreservesSemantics(t *testing.T) {
	p1 := MustParse(miniModule)
	MustAnalyze(p1, Options{})
	p2, err := Parse(Print(p1))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if _, err := Analyze(p2, Options{}); err != nil {
		t.Fatalf("reanalyze: %v", err)
	}
	d1 := RealDecls(p1)
	d2 := RealDecls(p2)
	if len(d1) != len(d2) {
		t.Fatalf("decl count changed: %d -> %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i].QName() != d2[i].QName() || d1[i].Kind != d2[i].Kind {
			t.Errorf("decl %d: %s kind=%d -> %s kind=%d",
				i, d1[i].QName(), d1[i].Kind, d2[i].QName(), d2[i].Kind)
		}
	}
}

func TestExprStringParenthesization(t *testing.T) {
	cases := []string{
		"a - (b - c)",
		"(a + b) * c",
		"a / (b * c)",
		"-(a * b)",
		"a**(b + 1)",
		"(a**b)**c",
		".not. (x .and. y)",
		"a < b .and. c > d",
	}
	for _, want := range cases {
		src := "program p\nimplicit none\nreal(kind=8) :: a, b, c, r\nlogical :: x, y, l\n"
		if strings.ContainsAny(want, "<>") || strings.Contains(want, ".and.") || strings.Contains(want, ".not.") {
			src += "l = " + want + "\n"
		} else {
			src += "r = " + want + "\n"
		}
		src += "end program p"
		p1, err := Parse(src)
		if err != nil {
			t.Errorf("%q: parse: %v", want, err)
			continue
		}
		as := p1.Main.Body[0].(*AssignStmt)
		got := ExprString(as.RHS)
		p2, err := Parse(strings.Replace(src, want, got, 1))
		if err != nil {
			t.Errorf("%q printed as %q which does not reparse: %v", want, got, err)
			continue
		}
		got2 := ExprString(p2.Main.Body[0].(*AssignStmt).RHS)
		if got != got2 {
			t.Errorf("%q: print unstable: %q vs %q", want, got, got2)
		}
	}
}

func TestDeclString(t *testing.T) {
	src := `
module m
  implicit none
  real(kind=8), parameter :: pi = 3.5d0
  real(kind=4) :: v(10)
contains
  subroutine s(a)
    real(kind=8), intent(inout) :: a(:)
    a(1) = 0.0d0
  end subroutine s
end module m
`
	prog := MustParse(src)
	MustAnalyze(prog, Options{})
	m := prog.Modules[0]
	if got := DeclString(m.Decls[0]); got != "real(kind=8), parameter :: pi = 3.5_8" {
		t.Errorf("pi: %q", got)
	}
	if got := DeclString(m.Decls[1]); got != "real(kind=4) :: v(10)" {
		t.Errorf("v: %q", got)
	}
	if got := DeclString(m.Procs[0].Decls[0]); got != "real(kind=8), intent(inout) :: a(:)" {
		t.Errorf("a: %q", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	p1 := MustParse(miniModule)
	MustAnalyze(p1, Options{})
	p2 := Clone(p1)
	// Mutate the clone's kinds; the original must be untouched.
	for _, d := range RealDecls(p2) {
		d.Kind = 4
	}
	for _, d := range RealDecls(p1) {
		if d.Kind != 8 && d.Name != "defk" {
			t.Fatalf("clone mutation leaked into original: %s kind=%d", d.QName(), d.Kind)
		}
	}
	if _, err := Analyze(p2, Options{AllowKindMismatch: true}); err != nil {
		t.Fatalf("clone analysis: %v", err)
	}
	if Print(p1) == Print(p2) {
		t.Error("kind change not reflected in printed clone")
	}
}

func TestCloneRoundTripPrint(t *testing.T) {
	p1 := MustParse(miniModule)
	MustAnalyze(p1, Options{})
	p2 := Clone(p1)
	if Print(p1) != Print(p2) {
		t.Errorf("clone prints differently:\n%s\n---\n%s", Print(p1), Print(p2))
	}
}

// TestPrintFunctionResult: Print renders a function with its result
// clause once, between its module's contains and the next procedure.
func TestPrintFunctionResult(t *testing.T) {
	prog := MustParse(miniModule)
	MustAnalyze(prog, Options{})
	out := Print(prog)
	fn := strings.Index(out, "function fun(x) result(y)")
	end := strings.Index(out, "end function fun")
	if fn < 0 || strings.Count(out, "function fun(x) result(y)") != 1 || end < fn {
		t.Fatalf("Print does not render fun's header and end once:\n%s", out)
	}
	if c, sub := strings.Index(out, "contains"), strings.Index(out, "subroutine advance"); c < 0 || c > fn || sub < end {
		t.Errorf("fun is not printed between contains and advance:\n%s", out)
	}
}
