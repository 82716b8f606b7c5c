package fortran

import (
	"strings"
	"testing"
)

func analyzeSrc(t *testing.T, src string, opts Options) (*Program, *Info, error) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	info, err := Analyze(prog, opts)
	return prog, info, err
}

func TestAnalyzeResolvesApply(t *testing.T) {
	prog, _, err := analyzeSrc(t, miniModule, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	adv := prog.ProcMap["phys.advance"]
	if adv == nil {
		t.Fatal("advance not registered")
	}
	var sawIndex, sawCall bool
	WalkExprs(adv.Body, func(e Expr) bool {
		switch e := e.(type) {
		case *IndexExpr:
			sawIndex = true
			if e.Typ.Base != TReal || e.Typ.Kind != 8 {
				t.Errorf("u(i) type = %v", e.Typ)
			}
		case *CallExpr:
			if e.Name == "fun" {
				sawCall = true
				if e.Proc == nil || e.Proc.QName() != "phys.fun" {
					t.Errorf("fun not resolved: %+v", e.Proc)
				}
			}
		case *ApplyExpr:
			t.Errorf("unresolved ApplyExpr %s survives analysis", e.Name)
		}
		return true
	})
	if !sawIndex || !sawCall {
		t.Errorf("sawIndex=%v sawCall=%v", sawIndex, sawCall)
	}
}

func TestAnalyzeSlotAssignment(t *testing.T) {
	prog, _, err := analyzeSrc(t, miniModule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	adv := prog.ProcMap["phys.advance"]
	if adv.NumSlots != 3 {
		t.Errorf("advance NumSlots = %d, want 3", adv.NumSlots)
	}
	seen := map[int]bool{}
	for _, d := range adv.Decls {
		if seen[d.Slot] {
			t.Errorf("duplicate slot %d", d.Slot)
		}
		seen[d.Slot] = true
		if d.Proc != adv {
			t.Errorf("decl %s Proc not set", d.Name)
		}
	}
	if !adv.ParamDecl[0].IsArg || adv.ParamDecl[0].Name != "u" {
		t.Errorf("param decl: %+v", adv.ParamDecl[0])
	}
}

func TestAnalyzeKindMismatchStrict(t *testing.T) {
	src := `
module m
  implicit none
contains
  function f(x) result(y)
    real(kind=8) :: x, y
    y = x
  end function f
  subroutine caller()
    real(kind=4) :: a, b
    a = 1.0
    b = f(a)
  end subroutine caller
end module m
`
	_, _, err := analyzeSrc(t, src, Options{})
	if err == nil || !strings.Contains(err.Error(), "kind mismatch") {
		t.Fatalf("strict mode should reject kind mismatch, got %v", err)
	}
	prog, _ := Parse(src)
	info, err := Analyze(prog, Options{AllowKindMismatch: true})
	if err != nil {
		t.Fatalf("tolerant mode: %v", err)
	}
	if len(info.Mismatches) != 1 {
		t.Fatalf("got %d mismatches, want 1", len(info.Mismatches))
	}
	m := info.Mismatches[0]
	if m.From != 4 || m.To != 8 || m.IsArray || m.CallExpr == nil {
		t.Errorf("mismatch: %+v", m)
	}
	if m.Caller.Name != "caller" || m.Callee.Name != "f" {
		t.Errorf("mismatch endpoints: %s -> %s", m.Caller.Name, m.Callee.Name)
	}
}

func TestAnalyzeArrayKindMismatch(t *testing.T) {
	src := `
module m
  implicit none
contains
  subroutine kern(v)
    real(kind=4), intent(inout) :: v(:)
    integer :: i
    do i = 1, size(v)
      v(i) = v(i) * 2.0
    end do
  end subroutine kern
  subroutine caller()
    real(kind=8) :: big(100)
    call kern(big)
  end subroutine caller
end module m
`
	prog, _ := Parse(src)
	info, err := Analyze(prog, Options{AllowKindMismatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Mismatches) != 1 || !info.Mismatches[0].IsArray {
		t.Fatalf("array mismatch not recorded: %+v", info.Mismatches)
	}
	if info.Mismatches[0].From != 8 || info.Mismatches[0].To != 4 {
		t.Errorf("mismatch kinds: %+v", info.Mismatches[0])
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined var", "program p\nimplicit none\ninteger :: i\ni = j\nend program p", "undefined variable"},
		{"undefined proc", "program p\nimplicit none\ncall nope()\nend program p", "undefined subroutine"},
		{"undefined module", "program p\nuse ghost\nimplicit none\nend program p", "undefined module"},
		{"param assign", "program p\nimplicit none\ninteger, parameter :: n = 1\nn = 2\nend program p", "PARAMETER"},
		{"logical if", "program p\nimplicit none\ninteger :: i\nif (i) then\nend if\nend program p", "must be logical"},
		{"bad do var", "program p\nimplicit none\nreal(kind=8) :: x\ndo x = 1, 2\nend do\nend program p", "scalar integer"},
		{"arg count", "module m\nimplicit none\ncontains\nsubroutine s(a)\ninteger :: a\na = 1\nend subroutine s\nsubroutine t()\ncall s()\nend subroutine t\nend module m", "expects 1 argument"},
		{"rank mismatch", "module m\nimplicit none\ncontains\nsubroutine s(a)\nreal(kind=8) :: a(:)\na(1) = 0.0d0\nend subroutine s\nsubroutine t()\nreal(kind=8) :: x\ncall s(x)\nend subroutine t\nend module m", "rank mismatch"},
		{"array arith", "program p\nimplicit none\nreal(kind=8) :: a(3), b(3)\na = a + b\nend program p", "DO loops"},
		{"dup module", "module m\nimplicit none\nend module m\nmodule m\nimplicit none\nend module m", "duplicate module"},
		{"dup decl", "program p\nimplicit none\ninteger :: i\ninteger :: i\nend program p", "duplicate declaration"},
		{"dup module decl", "module m\nimplicit none\nreal(kind=8) :: x\nreal(kind=8) :: x\nend module m", `duplicate declaration of "x" in module m`},
		{"program named like module", "module m\nimplicit none\nend module m\nprogram m\nuse m\nimplicit none\nend program m", `program "m" shares its name with a module`},
		{"uninit param", "program p\nimplicit none\nreal(kind=8), parameter :: c\nend program p", "lacks an initializer"},
		{"init non-param", "program p\nimplicit none\nreal(kind=8) :: x = 1.0d0\nend program p", "only PARAMETER"},
		{"undeclared dummy", "module m\nimplicit none\ncontains\nsubroutine s(q)\ninteger :: other\nother = 1\nend subroutine s\nend module m", "not declared"},
		{"int to real arg", "module m\nimplicit none\ncontains\nsubroutine s(a)\nreal(kind=8) :: a\na = 0.0d0\nend subroutine s\nsubroutine t()\ninteger :: i\ni = 1\ncall s(i)\nend subroutine t\nend module m", "cannot pass"},
		{"intent out literal", "module m\nimplicit none\ncontains\nsubroutine s(a)\nreal(kind=8), intent(out) :: a\na = 0.0d0\nend subroutine s\nsubroutine t()\ncall s(1.0d0)\nend subroutine t\nend module m", "must be a variable"},
		{"wrong index count", "program p\nimplicit none\nreal(kind=8) :: a(3,3)\na(1) = 0.0d0\nend program p", "rank 2"},
		{"array named like intrinsic", "module m\nimplicit none\ninteger :: size(3)\nend module m", `array "size" is named like an intrinsic`},
		{"local array named like intrinsic", "program p\nimplicit none\nreal(kind=8) :: sum(2)\nsum(1) = 0.0d0\nend program p", `array "sum" is named like an intrinsic`},
		{"function named like intrinsic", "module m\nimplicit none\ncontains\nfunction sign(x, y) result(r)\nreal(kind=8) :: x, y, r\nr = x + y\nend function sign\nend module m", `procedure "sign" is named like an intrinsic`},
		{"subroutine named like intrinsic", "module m\nimplicit none\ncontains\nsubroutine mpi_allreduce_sum(x)\nreal(kind=8) :: x\nx = 0.0d0\nend subroutine mpi_allreduce_sum\nend module m", `procedure "mpi_allreduce_sum" is named like an intrinsic`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := analyzeSrc(t, tc.src, Options{})
			if err == nil {
				t.Fatalf("expected error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestScalarNamedLikeIntrinsic checks that a scalar may take an
// intrinsic's name: name(args) still calls the intrinsic.
func TestScalarNamedLikeIntrinsic(t *testing.T) {
	prog, _, err := analyzeSrc(t, "program p\nimplicit none\ninteger :: size\nreal(kind=8) :: a(3)\nsize = size(a)\nend program p", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := prog.Main.Body[0].(*AssignStmt).RHS.(*CallExpr); !ok || c.Intrinsic != "size" {
		t.Errorf("size(a) beside a scalar size resolves to %s", ExprString(prog.Main.Body[0].(*AssignStmt).RHS))
	}
}

func TestAnalyzeIntrinsicTypes(t *testing.T) {
	src := `
program p
  implicit none
  real(kind=4) :: s4, a4(3)
  real(kind=8) :: s8, a8(4)
  integer :: i
  s4 = sqrt(s4)
  s8 = sqrt(s8)
  s8 = dble(s4)
  s4 = real(s8)
  s8 = real(s4, 8)
  i = int(s8)
  i = size(a8)
  s8 = sum(a8)
  s4 = maxval(a4)
  s8 = epsilon(s8)
  s8 = max(s8, dble(s4), 0.0d0)
  s8 = dot_product(a8, a8)
  s8 = sign(s8, s8)
end program p
`
	prog, _, err := analyzeSrc(t, src, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	types := map[string]Type{}
	WalkExprs(prog.Main.Body, func(e Expr) bool {
		if c, ok := e.(*CallExpr); ok && c.Intrinsic != "" {
			types[ExprString(c)] = c.Typ
		}
		return true
	})
	want := map[string]Type{
		"sqrt(s4)":    {Base: TReal, Kind: 4},
		"sqrt(s8)":    {Base: TReal, Kind: 8},
		"dble(s4)":    {Base: TReal, Kind: 8},
		"real(s8)":    {Base: TReal, Kind: 4},
		"real(s4, 8)": {Base: TReal, Kind: 8},
		"int(s8)":     {Base: TInteger},
		"size(a8)":    {Base: TInteger},
		"sum(a8)":     {Base: TReal, Kind: 8},
		"maxval(a4)":  {Base: TReal, Kind: 4},
		"epsilon(s8)": {Base: TReal, Kind: 8},
	}
	for k, w := range want {
		got, ok := types[k]
		if !ok {
			t.Errorf("intrinsic %s not found (have %v)", k, types)
			continue
		}
		if got != w {
			t.Errorf("%s: type %v, want %v", k, got, w)
		}
	}
}

func TestAnalyzeIntrinsicErrors(t *testing.T) {
	cases := []string{
		"program p\nimplicit none\nreal(kind=8) :: x\nx = sqrt(x, x)\nend program p",
		"program p\nimplicit none\ninteger :: i\ni = 1\ni = int(sqrt(i))\nend program p",
		"program p\nimplicit none\nreal(kind=8) :: x\nx = sum(x)\nend program p",
		"program p\nimplicit none\nreal(kind=8) :: x\nx = real(x, 16)\nend program p",
		"program p\nimplicit none\nreal(kind=8) :: x\nx = size(x)\nend program p",
	}
	for _, src := range cases {
		if _, _, err := analyzeSrc(t, src, Options{}); err == nil {
			t.Errorf("expected analysis error for %q", src)
		}
	}
}

func TestAnalyzeCallSites(t *testing.T) {
	_, info, err := analyzeSrc(t, miniModule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var found int
	for _, cs := range info.CallSites {
		if cs.Callee.Name == "advance" && cs.Caller.Name == "main" {
			found++
		}
		if cs.Callee.Name == "fun" && cs.Caller.Name == "advance" {
			found++
		}
	}
	if found != 2 {
		t.Errorf("call sites: %d/2 found (%d total)", found, len(info.CallSites))
	}
}

func TestAnalyzeIdempotent(t *testing.T) {
	prog, _, err := analyzeSrc(t, miniModule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(prog, Options{}); err != nil {
		t.Fatalf("second Analyze failed: %v", err)
	}
}

func TestAnalyzeModuleVarVisibility(t *testing.T) {
	src := `
module consts
  implicit none
  real(kind=8), parameter :: g = 9.81d0
end module consts
module user1
  use consts
  implicit none
contains
  function weight(m) result(w)
    real(kind=8) :: m, w
    w = m * g
  end function weight
end module user1
`
	prog, _, err := analyzeSrc(t, src, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	f := prog.ProcMap["user1.weight"]
	var resolved bool
	WalkExprs(f.Body, func(e Expr) bool {
		if vr, ok := e.(*VarRef); ok && vr.Name == "g" {
			resolved = vr.Decl != nil && vr.Decl.InMod != nil && vr.Decl.InMod.Name == "consts"
		}
		return true
	})
	if !resolved {
		t.Error("module variable g not resolved through use")
	}
}

func TestAnalyzeProcUseVisibility(t *testing.T) {
	src := `
module consts
  implicit none
  real(kind=8) :: shared
end module consts
module work
  implicit none
contains
  subroutine s()
    use consts
    shared = 1.0d0
  end subroutine s
end module work
`
	if _, _, err := analyzeSrc(t, src, Options{}); err != nil {
		t.Fatalf("procedure-level use: %v", err)
	}
}

func TestRealDecls(t *testing.T) {
	prog, _, err := analyzeSrc(t, miniModule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	decls := RealDecls(prog)
	names := map[string]bool{}
	for _, d := range decls {
		names[d.QName()] = true
	}
	for _, want := range []string{"phys.field", "phys.fun.x", "phys.fun.y",
		"phys.advance.u", "phys.advance.dt", "main.dt"} {
		if !names[want] {
			t.Errorf("RealDecls missing %s (have %v)", want, names)
		}
	}
	// Parameters are not search atoms.
	for _, d := range decls {
		if d.IsParam {
			t.Errorf("parameter %s returned as search atom", d.QName())
		}
	}
}

func TestQNames(t *testing.T) {
	prog, _, err := analyzeSrc(t, miniModule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fun := prog.ProcMap["phys.fun"]
	if fun.QName() != "phys.fun" {
		t.Errorf("QName = %q", fun.QName())
	}
	if fun.Decls[0].QName() != "phys.fun.x" {
		t.Errorf("decl QName = %q", fun.Decls[0].QName())
	}
}
