package transform

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ft "repro/internal/fortran"
	"repro/internal/interp"
	"repro/internal/perfmodel"
)

// funarcSrc mirrors the paper's motivating example (§II-B, Fig. 3/4):
// the fun(x) arc-length kernel with 8 tunable declarations.
const funarcSrc = `
module funarc_mod
  implicit none
  real(kind=8) :: result
contains
  function fun(x) result(t1)
    real(kind=8) :: x, t1, d1
    integer :: k
    d1 = 1.0d0
    t1 = x
    do k = 1, 5
      d1 = 2.0d0 * d1
      t1 = t1 + sin(d1 * x) / d1
    end do
  end function fun

  subroutine funarc()
    real(kind=8) :: s1, h, t1, t2, dppi
    integer :: i, n
    n = 100
    s1 = 0.0d0
    t1 = 0.0d0
    dppi = acos(-1.0d0)
    h = dppi / real(n, 8)
    do i = 1, n
      t2 = fun(real(i, 8) * h)
      s1 = s1 + sqrt(h * h + (t2 - t1) * (t2 - t1))
      t1 = t2
    end do
    result = s1
  end subroutine funarc
end module funarc_mod
program main
  use funarc_mod
  implicit none
  call funarc()
end program main
`

func analyzed(t *testing.T, src string) *ft.Program {
	t.Helper()
	prog, err := ft.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := ft.Analyze(prog, ft.Options{}); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return prog
}

func runProg(t *testing.T, prog *ft.Program) (*interp.Interp, *interp.Result) {
	t.Helper()
	in, err := interp.New(prog, interp.Config{Model: perfmodel.Default()})
	if err != nil {
		t.Fatalf("interp.New: %v", err)
	}
	res, err := in.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return in, res
}

func TestAtoms(t *testing.T) {
	prog := analyzed(t, funarcSrc)
	atoms := Atoms(prog)
	// 8 tunable declarations in the module procedures + module `result`.
	if len(atoms) != 9 {
		names := make([]string, len(atoms))
		for i, a := range atoms {
			names[i] = a.QName
		}
		t.Fatalf("got %d atoms %v, want 9", len(atoms), names)
	}
	restricted := Atoms(prog, "funarc_mod")
	if len(restricted) != 9 {
		t.Errorf("module-restricted atoms: %d", len(restricted))
	}
	if none := Atoms(prog, "nope"); len(none) != 0 {
		t.Errorf("atoms of unknown module: %d", len(none))
	}
}

func TestUniformAssignment(t *testing.T) {
	prog := analyzed(t, funarcSrc)
	atoms := Atoms(prog)
	a := Uniform(atoms, 4)
	if a.Lowered() != len(atoms) {
		t.Errorf("Lowered = %d, want %d", a.Lowered(), len(atoms))
	}
	b := maps.Clone(a)
	b["funarc_mod.fun.x"] = 8
	if a.Key() == b.Key() {
		t.Error("different assignments share a Key")
	}
	if a.Key() != maps.Clone(a).Key() {
		t.Error("Key not canonical")
	}
}

// TestAssignmentKeyText pins Key's exact text: the kind-4 atoms' names,
// sorted, each followed by ";", with kind-8 atoms left out. Journals
// record it as akey, so a change of text changes journal bytes.
func TestAssignmentKeyText(t *testing.T) {
	a := Assignment{"m.p.z": 4, "m.b": 8, "m.a": 4, "m.p.c": 8, "m.p.a2": 4}
	if got, want := a.Key(), "m.a;m.p.a2;m.p.z;"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	for _, a := range []Assignment{nil, {}, {"m.a": 8, "m.b": 8}} {
		if got := a.Key(); got != "" {
			t.Errorf("Key of %v = %q, want \"\"", a, got)
		}
	}
}

func TestApplyPreservesBaseline(t *testing.T) {
	prog := analyzed(t, funarcSrc)
	before := ft.Print(prog)
	atoms := Atoms(prog)
	if _, err := Apply(prog, Uniform(atoms, 4)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if after := ft.Print(prog); after != before {
		t.Error("Apply mutated the baseline program")
	}
}

func TestApplyUniform32RunsAndDiffers(t *testing.T) {
	prog := analyzed(t, funarcSrc)
	in64, _ := runProg(t, prog)
	r64, _ := in64.Global("funarc_mod.result")
	base := r64.F

	v, err := Apply(prog, Uniform(Atoms(prog), 4))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	in32, _ := runProg(t, v.Prog)
	r32, _ := in32.Global("funarc_mod.result")
	low := r32.F
	if base == low {
		t.Errorf("uniform 32-bit result identical to 64-bit: %.17g", base)
	}
	relErr := (base - low) / base
	if relErr < 0 {
		relErr = -relErr
	}
	if relErr > 1e-3 || relErr == 0 {
		t.Errorf("relative error %.3g out of plausible f32 range", relErr)
	}
}

func TestApplyInsertsScalarWrapper(t *testing.T) {
	prog := analyzed(t, funarcSrc)
	// Lower only fun's internals: call sites pass kind-8 values to a
	// kind-4 dummy, requiring a wrapper (paper Fig. 4, reversed).
	a := Assignment{
		"funarc_mod.fun.x":  4,
		"funarc_mod.fun.t1": 4,
		"funarc_mod.fun.d1": 4,
	}
	v, err := Apply(prog, a)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	names := WrapperNames(v.Prog)
	if v.Wrappers != 1 || len(names) != 1 {
		t.Fatalf("wrappers = %d (%v), want 1", v.Wrappers, names)
	}
	if !strings.Contains(names[0], "fun_wrapper_8") {
		t.Errorf("wrapper name %q", names[0])
	}
	src := ft.Print(v.Prog)
	if !strings.Contains(src, "fun_wrapper_8") {
		t.Error("wrapper missing from printed variant")
	}
	// The variant must be a strictly legal program and runnable.
	in, res := runProg(t, v.Prog)
	if low, _ := in.Global("funarc_mod.result"); low.F == 0 {
		t.Error("variant produced no result")
	}
	if res.Casts == 0 {
		t.Error("wrapper calls must incur casts")
	}
}

// intentOutSrc passes kind-4 variables to a kind-8 intent(in) and a
// kind-8 intent(out) dummy.
const intentOutSrc = `
module m
  implicit none
  real(kind=8) :: got
contains
  subroutine producer(x, y)
    real(kind=8), intent(in) :: x
    real(kind=8), intent(out) :: y
    y = x * 2.0d0
  end subroutine producer
  subroutine driver()
    real(kind=4) :: a, b
    a = 3.0
    b = 0.0
    call producer(a, b)
    got = b
  end subroutine driver
end module m
program p
  use m
  implicit none
  call driver()
end program p
`

func TestWrapperPreservesIntentOutCopyback(t *testing.T) {
	prog, err := ft.Parse(intentOutSrc)
	if err != nil {
		t.Fatal(err)
	}
	info, err := ft.Analyze(prog, ft.Options{AllowKindMismatch: true})
	if err != nil {
		t.Fatal(err)
	}
	n, err := InsertWrappers(prog, info)
	if err != nil || n != 1 {
		t.Fatalf("InsertWrappers = %d, %v", n, err)
	}
	if _, err := ft.Analyze(prog, ft.Options{}); err != nil {
		t.Fatalf("strict analysis after wrapping: %v\n%s", err, ft.Print(prog))
	}
	in, _ := runProg(t, prog)
	if got, _ := in.Global("m.got"); got.F != 6 {
		t.Errorf("intent(out) through wrapper: got %g, want 6", got.F)
	}
}

// arrayArgSrc passes a kind-4 array with lower bound 0 to a kind-8
// assumed-shape dummy.
const arrayArgSrc = `
module m
  implicit none
  real(kind=8) :: total
contains
  subroutine scale(v, f)
    real(kind=8), intent(inout) :: v(:)
    real(kind=8), intent(in) :: f
    integer :: i
    do i = 1, size(v)
      v(i) = v(i) * f
    end do
  end subroutine scale
  subroutine driver()
    real(kind=4) :: data(0:9)
    integer :: i
    do i = 0, 9
      data(i) = real(i)
    end do
    call scale(data, 2.0d0)
    total = 0.0d0
    do i = 0, 9
      total = total + data(i)
    end do
  end subroutine driver
end module m
program p
  use m
  implicit none
  call driver()
end program p
`

func TestWrapperArrayArgument(t *testing.T) {
	prog, err := ft.Parse(arrayArgSrc)
	if err != nil {
		t.Fatal(err)
	}
	info, err := ft.Analyze(prog, ft.Options{AllowKindMismatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Mismatches) != 1 || !info.Mismatches[0].IsArray {
		t.Fatalf("mismatches: %+v", info.Mismatches)
	}
	n, err := InsertWrappers(prog, info)
	if err != nil || n != 1 {
		t.Fatalf("InsertWrappers = %d, %v", n, err)
	}
	if _, err := ft.Analyze(prog, ft.Options{}); err != nil {
		t.Fatalf("strict analysis: %v\n%s", err, ft.Print(prog))
	}
	in, res := runProg(t, prog)
	if got, _ := in.Global("m.total"); got.F != 90 { // 2*(0+..+9)
		t.Errorf("array through wrapper: total = %g, want 90", got.F)
	}
	// The wrapper copies the 10-element array in and out: ≥20 casts.
	if res.Casts < 20 {
		t.Errorf("array wrapper casts = %d, want ≥ 20", res.Casts)
	}
}

// namesNotCapturedSrc declares a function named like the wrapper of
// another module's function.
const namesNotCapturedSrc = `
module m
  implicit none
  real(kind=8) :: v(4)
  real(kind=8) :: w
contains
  subroutine s(a)
    real(kind=8), intent(inout) :: a(:)
    a(1) = 1.0d0
  end subroutine s
  function g(x) result(y)
    real(kind=8), intent(in) :: x
    real(kind=8) :: y
    y = 2.0d0 * x
  end function g
  subroutine t()
    call s(v)
    w = g(1.5d0 + w)
  end subroutine t
end module m
module other
  implicit none
contains
  function g_wrapper_4(x) result(y)
    real(kind=8), intent(in) :: x
    real(kind=8) :: y
    y = x + 1.0d0
  end function g_wrapper_4
end module other
module user
  use other
  implicit none
  real(kind=8) :: z
contains
  subroutine u()
    z = g_wrapper_4(1.0d0)
  end subroutine u
end module user
program p
  use m
  use user
  implicit none
  call t()
  call u()
end program p
`

// TestWrapperNamesNotCaptured checks that what wrapper insertion adds
// leaves the variant's names resolved as before: a call resolved to a
// user function named g_wrapper_4 in another module keeps it, while the
// wrapper of g takes the name g_wrapper_4_2, and the printed variant,
// whose array wrapper sizes its temporary with size(), analyzes again.
// (No array can capture that size(): analysis refuses an array named
// like an intrinsic.)
func TestWrapperNamesNotCaptured(t *testing.T) {
	res, err := Apply(analyzed(t, namesNotCapturedSrc), Assignment{"m.v": 4, "m.w": 4})
	if err != nil {
		t.Fatal(err)
	}
	out := ft.Print(res.Prog)
	if !strings.Contains(out, "real(kind=8) :: t1(size(a1, 1))") || !strings.Contains(out, "function g_wrapper_4_2(a1) result(wres)") {
		t.Errorf("unexpected wrappers:\n%s", out)
	}
	if _, err := ft.Analyze(ft.MustParse(out), ft.Options{}); err != nil {
		t.Errorf("the printed variant does not analyze: %v", err)
	}
	in, _ := runProg(t, res.Prog)
	for q, want := range map[string]float64{"m.w": 3, "user.z": 2} {
		if got, _ := in.Global(q); got.F != want {
			t.Errorf("%s = %v, want %v", q, got.F, want)
		}
	}
	if got, _ := in.Global("m.v"); got.Arr.Data[0] != 1 {
		t.Errorf("m.v(1) = %v after the wrapped call, want 1", got.Arr.Data[0])
	}
}

// wrapperClashSrc calls m.g and other.g_wrapper_4 from module user:
// lowering user.y makes the call of g need a wrapper whose first-choice
// name, g_wrapper_4, another module's subroutine already has.
const wrapperClashSrc = `
module m
  implicit none
contains
  subroutine g(x)
    real(kind=8), intent(inout) :: x
    x = x + 1.0d0
  end subroutine g
end module m

module other
  implicit none
contains
  subroutine g_wrapper_4(x)
    real(kind=8), intent(inout) :: x
    x = 2.0d0 * x
  end subroutine g_wrapper_4
end module other

module user
  use m
  use other
  implicit none
  real(kind=8) :: y, z
contains
  subroutine run()
    y = 1.5d0
    z = 3.0d0
    call g(y)
    call g_wrapper_4(z)
  end subroutine run
end module user

program p
  use user
  implicit none
  call run()
end program p
`

// TestWrapperNameUniqueAcrossModules pins that a wrapper takes a name
// no procedure of any module has: named like other's g_wrapper_4, the
// wrapper of m.g would make user's call of g_wrapper_4 ambiguous, and
// the variant would fail its strict analysis.
func TestWrapperNameUniqueAcrossModules(t *testing.T) {
	res, err := Apply(analyzed(t, wrapperClashSrc), Assignment{"user.y": 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := WrapperMap(res.Prog), map[string]string{"m.g_wrapper_4_2": "m.g"}; !maps.Equal(got, want) {
		t.Errorf("wrappers %v, want %v", got, want)
	}
	in, _ := runProg(t, res.Prog)
	for q, want := range map[string]float64{"user.y": 2.5, "user.z": 6} {
		if got, _ := in.Global(q); got.F != want {
			t.Errorf("%s = %v, want %v", q, got.F, want)
		}
	}
}

// sharedSitesSrc calls one function twice with kind-4 actuals.
const sharedSitesSrc = `
module m
  implicit none
  real(kind=8) :: acc
contains
  function f(x) result(r)
    real(kind=8) :: x, r
    r = x + 1.0d0
  end function f
  subroutine driver()
    real(kind=4) :: a, b
    a = 1.0
    b = 2.0
    acc = f(a) + f(b)
  end subroutine driver
end module m
program p
  use m
  implicit none
  call driver()
end program p
`

func TestWrappersSharedAcrossCallSites(t *testing.T) {
	prog, err := ft.Parse(sharedSitesSrc)
	if err != nil {
		t.Fatal(err)
	}
	info, err := ft.Analyze(prog, ft.Options{AllowKindMismatch: true})
	if err != nil {
		t.Fatal(err)
	}
	n, err := InsertWrappers(prog, info)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("two identical call sites should share one wrapper, got %d", n)
	}
	if _, err := ft.Analyze(prog, ft.Options{}); err != nil {
		t.Fatalf("strict analysis: %v", err)
	}
	in, _ := runProg(t, prog)
	if got, _ := in.Global("m.acc"); got.F != 5 {
		t.Errorf("acc = %g, want 5", got.F)
	}
}

const flowSrc = `
module fm
  implicit none
  real(kind=8) :: state(16), aux
contains
  subroutine kernel(v, s)
    real(kind=8), intent(inout) :: v(:)
    real(kind=8), intent(in) :: s
    v(1) = s
  end subroutine kernel
  subroutine driver()
    call kernel(state, aux)
  end subroutine driver
end module fm
program p
  use fm
  implicit none
  call driver()
end program p
`

func TestFlowGraphInvariant(t *testing.T) {
	prog := analyzed(t, flowSrc)
	info := ft.MustAnalyze(prog, ft.Options{})
	g := BuildFlowGraph(prog, info)
	if len(g.Nodes) == 0 || len(g.Edges) != 2 {
		t.Fatalf("graph shape: %d nodes %d edges, want edges=2\n%s",
			len(g.Nodes), len(g.Edges), g.String())
	}
	if mm := g.MismatchedEdges(); len(mm) != 0 {
		t.Errorf("baseline has mismatched edges:\n%s", g.String())
	}

	// Lower the kernel's dummies *without* wrappers: both edges must
	// now violate the matching invariant.
	variant := ft.Clone(prog)
	ft.MustAnalyze(variant, ft.Options{AllowKindMismatch: true})
	for _, d := range ft.RealDecls(variant) {
		if strings.HasPrefix(d.QName(), "fm.kernel.") {
			d.Kind = 4
		}
	}
	vinfo := ft.MustAnalyze(variant, ft.Options{AllowKindMismatch: true})
	g2 := BuildFlowGraph(variant, vinfo)
	if mm := g2.MismatchedEdges(); len(mm) != 2 {
		t.Errorf("lowered callee: %d mismatched edges, want 2\n%s", len(mm), g2.String())
	}

	// After wrapper insertion the invariant is restored: the wrapper's
	// own dummies match the actuals, and its temporaries match the
	// callee (Fig. 4's node-splitting step).
	if _, err := InsertWrappers(variant, vinfo); err != nil {
		t.Fatal(err)
	}
	vinfo = ft.MustAnalyze(variant, ft.Options{})
	g3 := BuildFlowGraph(variant, vinfo)
	if mm := g3.MismatchedEdges(); len(mm) != 0 {
		t.Errorf("wrappers did not restore matching invariant:\n%s", g3.String())
	}
}

func TestFlowGraphExpressionArgsHaveNoEdges(t *testing.T) {
	// funarc passes only expressions to fun; expression arguments carry
	// no variable-to-variable edge.
	prog := analyzed(t, funarcSrc)
	info := ft.MustAnalyze(prog, ft.Options{})
	g := BuildFlowGraph(prog, info)
	if len(g.Nodes) != 9 || len(g.Edges) != 0 {
		t.Errorf("funarc graph: %d nodes %d edges, want 9/0", len(g.Nodes), len(g.Edges))
	}
}

func TestFlowGraphElems(t *testing.T) {
	src := `
module m
  implicit none
  integer, parameter :: n = 32
contains
  subroutine kern(v, s)
    real(kind=8) :: v(n, 2)
    real(kind=8) :: s
    v(1, 1) = s
  end subroutine kern
  subroutine driver()
    real(kind=8) :: big(n, 2), x
    x = 1.0d0
    call kern(big, x)
  end subroutine driver
end module m
program p
  use m
  implicit none
  call driver()
end program p
`
	prog := analyzed(t, src)
	info := ft.MustAnalyze(prog, ft.Options{})
	g := BuildFlowGraph(prog, info)
	var arrEdge, scalEdge *FlowEdge
	for i := range g.Edges {
		if g.Edges[i].To.IsArray {
			arrEdge = &g.Edges[i]
		} else {
			scalEdge = &g.Edges[i]
		}
	}
	if arrEdge == nil || scalEdge == nil {
		t.Fatalf("edges missing: %+v", g.Edges)
	}
	if arrEdge.Elems != 64 {
		t.Errorf("array edge elems = %d, want 64", arrEdge.Elems)
	}
	if scalEdge.Elems != 1 {
		t.Errorf("scalar edge elems = %d, want 1", scalEdge.Elems)
	}
}

func TestApplyErrors(t *testing.T) {
	prog := analyzed(t, funarcSrc)
	if _, err := Apply(prog, Assignment{"no.such.atom": 4}); err == nil {
		t.Error("unknown atom accepted")
	}
	if _, err := Apply(prog, Assignment{"funarc_mod.fun.x": 16}); err == nil {
		t.Error("bad kind accepted")
	}
}

// clashSrc names its main program after its module, and declares x in
// both, so that both declarations would be the atom "clash.x".
const clashSrc = `
module clash
  implicit none
  real(kind=8) :: x
end module clash

program clash
  use clash
  implicit none
  real(kind=8) :: x
  x = 1.0d0
end program clash
`

// TestSharedAtomNamesRefused checks that analysis refuses both kinds of
// program that would give two atoms one qualified name: a main program
// named like a module (clashSrc), and a module that declares a variable
// twice.
func TestSharedAtomNamesRefused(t *testing.T) {
	for src, want := range map[string]string{
		clashSrc: `7:1: program "clash" shares its name with a module`,
		"module m\n  implicit none\n  real(kind=8) :: x\n  real(kind=4) :: x\nend module m\n": `4:19: duplicate declaration of "x" in module m`,
	} {
		prog, err := ft.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ft.Analyze(prog, ft.Options{AllowKindMismatch: true}); err == nil || err.Error() != want {
			t.Errorf("Analyze error = %v, want %s\n%s", err, want, src)
		}
	}
}

// atomsSrc declares x in its module, in the module's subroutine and in
// its main program: three atoms, clash.x, clash.s.x and main.x.
const atomsSrc = `
module clash
  implicit none
  real(kind=8) :: x
  real(kind=8), parameter :: c = 2.0d0
  integer :: n
contains
  subroutine s(y)
    real(kind=8) :: y
    real(kind=8) :: x
    x = 2.0d0 * y
    y = x
  end subroutine s
end module clash

program main
  use clash
  implicit none
  real(kind=8) :: x
  x = c
  call s(x)
end program main
`

// TestAtomDecl checks that Apply's atom lookup on a fresh, unanalyzed
// clone finds the declaration that a map from QName over RealDecls of
// the analyzed clone gives, for every bundled model, funarcSrc and
// atomsSrc. A name that is no atom (a parameter, an integer, a
// procedure, a module, a name too long or unknown) finds nothing, and
// Apply refuses it with the same error as before.
func TestAtomDecl(t *testing.T) {
	srcs := map[string]string{"funarcSrc": funarcSrc, "atomsSrc": atomsSrc}
	files, err := filepath.Glob("../models/src/*.ft")
	if err != nil || len(files) == 0 {
		t.Fatalf("no model sources found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(src)
	}
	for name, src := range srcs {
		base := analyzed(t, src)
		clone := ft.Clone(base)
		got := make(map[string]*ft.VarDecl)
		for _, d := range ft.RealDecls(base) {
			got[d.QName()] = atomDecl(clone, d.QName())
		}
		if _, err := ft.Analyze(clone, ft.Options{}); err != nil {
			t.Fatalf("%s: clone analysis: %v", name, err)
		}
		want := make(map[string]*ft.VarDecl)
		for _, d := range ft.RealDecls(clone) {
			want[d.QName()] = d
		}
		if len(got) != len(want) || len(want) != len(ft.RealDecls(clone)) {
			t.Errorf("%s: %d atom names, want %d, one per atom", name, len(got), len(want))
		}
		for q, d := range want {
			if got[q] != d {
				t.Errorf("%s: atom %s resolves to %p, want %p", name, q, got[q], d)
			}
		}
	}

	prog := analyzed(t, atomsSrc)
	for _, q := range []string{"", "x", "clash", "clash.c", "clash.n", "clash.s",
		"clash.s.x.y", "clash.s.z", "clash.t.x", "nosuch.x", "clash.x.", ".x", "main", "main.s.x"} {
		if d := atomDecl(ft.Clone(prog), q); d != nil {
			t.Errorf("atomDecl(%q) = %s, want none", q, d.QName())
		}
		want := fmt.Sprintf("transform: assignment names unknown atom %q", q)
		if _, err := Apply(prog, Assignment{q: 4}); err == nil || err.Error() != want {
			t.Errorf("Apply(%q) error = %v, want %s", q, err, want)
		}
	}
}

func TestReduceFunarc(t *testing.T) {
	prog := analyzed(t, funarcSrc)
	red, stats, err := Reduce(prog, []string{"funarc_mod.fun.d1"})
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if stats.KeptStmts >= stats.TotalStmts {
		t.Errorf("reduction kept everything: %s", stats)
	}
	// The reduced program must reparse and reanalyze.
	if _, err := ft.Analyze(red, ft.Options{}); err != nil {
		t.Fatalf("reduced program analysis: %v\n%s", err, ft.Print(red))
	}
	src := ft.Print(red)
	if !strings.Contains(src, "d1") {
		t.Error("target variable dropped")
	}
	// The reduced program keeps fun (declares the target) and the
	// statements referencing d1.
	found := false
	for _, m := range red.Modules {
		for _, p := range m.Procs {
			if p.Name == "fun" {
				found = true
			}
		}
	}
	if !found {
		t.Error("procedure declaring target missing from reduction")
	}
}

func TestReduceKeepsCalleeInterface(t *testing.T) {
	src := `
module m
  implicit none
  real(kind=8) :: target_var, unrelated
contains
  function helper(q) result(r)
    real(kind=8) :: q, r
    r = q * 2.0d0
  end function helper
  subroutine touch()
    target_var = helper(1.0d0)
  end subroutine touch
  subroutine noise()
    unrelated = 3.0d0
  end subroutine noise
end module m
program p
  use m
  implicit none
  call touch()
  call noise()
end program p
`
	prog := analyzed(t, src)
	red, stats, err := Reduce(prog, []string{"m.target_var"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ft.Analyze(red, ft.Options{}); err != nil {
		t.Fatalf("reduced analysis: %v\n%s", err, ft.Print(red))
	}
	out := ft.Print(red)
	if !strings.Contains(out, "helper") {
		t.Error("called function dropped from reduction")
	}
	if !strings.Contains(out, "r = q * 2.0_8") {
		t.Errorf("callee body computing its result dropped:\n%s", out)
	}
	if strings.Contains(out, "unrelated = 3.0_8") {
		t.Error("unrelated statement survived reduction")
	}
	if stats.KeptProcs >= stats.TotalProcs {
		t.Errorf("no procedures dropped: %s", stats)
	}
}

func TestReduceUnknownTarget(t *testing.T) {
	prog := analyzed(t, funarcSrc)
	if _, _, err := Reduce(prog, []string{"ghost.var"}); err == nil {
		t.Error("unknown reduction target accepted")
	}
}

func TestReduceDoesNotMutateOriginal(t *testing.T) {
	prog := analyzed(t, funarcSrc)
	before := ft.Print(prog)
	red, _, err := Reduce(prog, []string{"funarc_mod.funarc.s1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ft.Analyze(red, ft.Options{}); err != nil {
		t.Fatal(err)
	}
	if ft.Print(prog) != before {
		t.Error("Reduce mutated the original program")
	}
	// And the original still runs.
	runProg(t, prog)
}
