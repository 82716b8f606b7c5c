package fortran

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// everyNodeSrc uses every statement and expression type, so that each
// of Clone's slabs takes at least one node or list from it.
const everyNodeSrc = `
module m
  implicit none
  integer, parameter :: n = 4
  real(kind=8) :: a(0:n, 2)
  logical :: on
contains
  function f(x) result(y)
    real(kind=8), intent(in) :: x
    real(kind=8) :: y
    y = -x
    if (.not. on) return
    y = max(x, 1.0d0) + a(1, 2)
  end function f

  subroutine s(b)
    real(kind=8), intent(inout) :: b(:)
    integer :: i
    real(kind=8) :: t
    on = .true.
    t = 0.0d0
    do i = n, 1, -1
      if (i == 2) then
        cycle
      else if (i == 1) then
        exit
      end if
      b(i) = f(t)
    end do
    do while (t < 1.0d0)
      t = t + 0.5d0
    end do
    if (t /= t) stop 1
    print *, 'b', b(1)
  end subroutine s
end module m

program main
  use m
  implicit none
  real(kind=8) :: u(n)
  call s(u)
end program main
`

// cloneFixtures returns the programs the clone tests run on: every
// bundled model, the printer tests' sources and everyNodeSrc, each
// parsed, and analyzed when analyze is set.
func cloneFixtures(t testing.TB, analyze bool) map[string]*Program {
	t.Helper()
	srcs := map[string]string{"miniModule": miniModule, "stepModule": stepModule, "everyNodeSrc": everyNodeSrc}
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
	out := make(map[string]*Program, len(srcs))
	for name, src := range srcs {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if analyze {
			if _, err := Analyze(prog, Options{}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		out[name] = prog
	}
	return out
}

// memRange is the memory of one node, list backing array or map
// reachable from a program.
type memRange struct {
	lo, hi uintptr
	what   string
}

// reachable lists the memory of every node, list backing array and map
// reachable from v, following pointers, interfaces, slices, maps and
// struct fields; strings are immutable and not listed. A list whose
// capacity exceeds its length is reported through loose.
func reachable(v any, loose func(path string)) []memRange {
	var out []memRange
	seen := make(map[memRange]bool)
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			r := memRange{v.Pointer(), v.Pointer() + v.Type().Elem().Size(), v.Type().String()}
			if seen[r] {
				return
			}
			seen[r] = true
			out = append(out, memRange{r.lo, r.hi, path})
			walk(v.Elem(), path)
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice:
			if v.Cap() == 0 {
				return
			}
			if v.Cap() != v.Len() && loose != nil {
				loose(path)
			}
			lo := v.Pointer()
			r := memRange{lo, lo + uintptr(v.Cap())*v.Type().Elem().Size(), v.Type().String()}
			if !seen[r] {
				seen[r] = true
				out = append(out, memRange{r.lo, r.hi, path})
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Map:
			if v.IsNil() {
				return
			}
			r := memRange{v.Pointer(), v.Pointer() + 1, v.Type().String()}
			if seen[r] {
				return
			}
			seen[r] = true
			out = append(out, memRange{r.lo, r.hi, path})
			keys := v.MapKeys()
			sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
			for _, k := range keys {
				walk(v.MapIndex(k), fmt.Sprintf("%s[%v]", path, k))
			}
		}
	}
	walk(reflect.ValueOf(v), "prog")
	return out
}

// shared reports the first memory that programs a and b both reach, or "".
func shared(a, b *Program) string {
	ra, rb := reachable(a, nil), reachable(b, nil)
	sort.Slice(ra, func(i, j int) bool { return ra[i].lo < ra[j].lo })
	sort.Slice(rb, func(i, j int) bool { return rb[i].lo < rb[j].lo })
	for i, j := 0, 0; i < len(ra) && j < len(rb); {
		switch {
		case ra[i].hi <= rb[j].lo:
			i++
		case rb[j].hi <= ra[i].lo:
			j++
		default:
			return ra[i].what + " and " + rb[j].what
		}
	}
	return ""
}

// TestCloneSharesNothing walks every node, list and map of each fixture,
// parsed and analyzed, and of its clone, before and after the clone is
// analyzed, and finds no memory in both. Every list of a fresh clone
// ends at its capacity, so an append to it cannot write into the list
// after it.
func TestCloneSharesNothing(t *testing.T) {
	for _, analyze := range []bool{false, true} {
		for name, prog := range cloneFixtures(t, analyze) {
			c := Clone(prog)
			reachable(c, func(path string) { t.Errorf("%s: clone list %s has room past its length", name, path) })
			if s := shared(prog, c); s != "" {
				t.Errorf("%s: program and clone share %s", name, s)
			}
			if _, err := Analyze(c, Options{}); err != nil {
				t.Fatalf("%s: clone analysis: %v", name, err)
			}
			if s := shared(prog, c); s != "" {
				t.Errorf("%s: program and analyzed clone share %s", name, s)
			}
		}
	}
}

// TestCloneSlabsExact checks that the counting walk sizes every slab to
// exactly what the copy takes, so each slab allocates one chunk of N,
// and that everyNodeSrc, parsed (with its ApplyExprs) or analyzed (with
// their resolved forms), takes from each.
func TestCloneSlabsExact(t *testing.T) {
	used := make(map[string]bool)
	for _, analyze := range []bool{false, true} {
		for name, prog := range cloneFixtures(t, analyze) {
			var c cloner
			c.countProgram(prog)
			c.program(prog)
			v := reflect.ValueOf(&c).Elem()
			for i := 0; i < v.NumField(); i++ {
				f, slab := v.Type().Field(i).Name, v.Field(i)
				n, held := slab.FieldByName("N").Int(), slab.FieldByName("held").Int()
				chunk, taken := slab.FieldByName("chunk").Len(), slab.FieldByName("used").Int()
				if n > 0 && name == "everyNodeSrc" {
					used[f] = true
				}
				if n > 0 && (held != n || chunk != int(n) || taken != n) || n == 0 && held != 0 {
					t.Errorf("%s: slab %s counted %d, allocated %d in chunks, the last of %d with %d taken",
						name, f, n, held, chunk, taken)
				}
			}
		}
	}
	for i := 0; i < reflect.TypeOf(cloner{}).NumField(); i++ {
		if f := reflect.TypeOf(cloner{}).Field(i).Name; !used[f] {
			t.Errorf("everyNodeSrc takes nothing from slab %s", f)
		}
	}
}

// TestCloneAllocs checks that a clone makes one allocation per slab
// plus the Program, whatever the program's size.
func TestCloneAllocs(t *testing.T) {
	limit := float64(reflect.TypeOf(cloner{}).NumField() + 1)
	for name, prog := range cloneFixtures(t, true) {
		if got := testing.AllocsPerRun(5, func() { Clone(prog) }); got > limit {
			t.Errorf("%s: Clone allocates %.0f objects, want at most %.0f", name, got, limit)
		}
	}
}

// annotated renders what analysis gives a program: its printed source,
// every expression's type and every variable reference's declaration,
// in walk order, and its Info's call sites and kind mismatches (without
// source positions, which a reparse of printed source moves).
func annotated(prog *Program, info *Info) string {
	var sb strings.Builder
	sb.WriteString(Print(prog))
	note := func(e Expr) bool {
		fmt.Fprintf(&sb, "%T %s : %s", e, ExprString(e), e.Type())
		switch e := e.(type) {
		case *VarRef:
			if e.Decl != nil {
				fmt.Fprintf(&sb, " -> %s slot %d", e.Decl.QName(), e.Decl.Slot)
			}
		case *CallExpr:
			if e.Proc != nil {
				fmt.Fprintf(&sb, " -> %s", e.Proc.QName())
			}
			sb.WriteString(" " + e.Intrinsic)
		}
		sb.WriteByte('\n')
		return true
	}
	for _, p := range prog.AllProcs {
		for _, d := range p.Decls {
			for _, dim := range d.Dims {
				WalkExpr(dim.Lo, note)
				WalkExpr(dim.Hi, note)
			}
			WalkExpr(d.Init, note)
		}
		WalkExprs(p.Body, note)
	}
	for _, cs := range info.CallSites {
		fmt.Fprintf(&sb, "call %s -> %s (%s)\n", cs.Caller.QName(), cs.Callee.QName(), exprList(cs.Args))
	}
	for _, m := range info.Mismatches {
		fmt.Fprintf(&sb, "mismatch %s -> %s arg %d %s %d->%d array=%v stmt=%v\n",
			m.Caller.QName(), m.Callee.QName(), m.ArgIndex, ExprString(m.Arg), m.From, m.To, m.IsArray, m.CallStmt != nil)
	}
	return sb.String()
}

// TestCloneAnalyzesLikeReparse checks, for every fixture at its
// baseline, at uniform kind 4 and with every other atom at kind 4,
// that the analyzed clone prints like the program it was cloned from
// and carries the annotations and Info that analyzing the reparsed
// printed program gives.
func TestCloneAnalyzesLikeReparse(t *testing.T) {
	opts := Options{AllowKindMismatch: true}
	for name, base := range cloneFixtures(t, true) {
		for _, variant := range []string{"baseline", "uniform4", "alternate"} {
			prog := Clone(base)
			for i, d := range RealDecls(prog) {
				if variant == "uniform4" || variant == "alternate" && i%2 == 0 {
					d.Kind = 4
				}
			}
			if _, err := Analyze(prog, opts); err != nil {
				t.Fatalf("%s/%s: %v", name, variant, err)
			}
			c := Clone(prog)
			ci, err := Analyze(c, opts)
			if err != nil {
				t.Fatalf("%s/%s: clone analysis: %v", name, variant, err)
			}
			if Print(c) != Print(prog) {
				t.Errorf("%s/%s: the clone prints differently", name, variant)
			}
			r, err := Parse(Print(prog))
			if err != nil {
				t.Fatal(err)
			}
			ri, err := Analyze(r, opts)
			if err != nil {
				t.Fatalf("%s/%s: reparse analysis: %v", name, variant, err)
			}
			if got, want := annotated(c, ci), annotated(r, ri); got != want {
				t.Errorf("%s/%s: the analyzed clone differs from the analyzed reparse:\n%s", name, variant, firstDiff(got, want))
			}
		}
	}
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			if i >= len(w) {
				return fmt.Sprintf("line %d: %q, want end", i+1, g[i])
			}
			return fmt.Sprintf("line %d: %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// resolvedNodes lists prog's element references and calls in walk order.
func resolvedNodes(prog *Program) []Expr {
	var out []Expr
	collect := func(e Expr) bool {
		switch e.(type) {
		case *IndexExpr, *CallExpr, *ApplyExpr:
			out = append(out, e)
		}
		return true
	}
	for _, p := range prog.AllProcs {
		for _, d := range p.Decls {
			for _, dim := range d.Dims {
				WalkExpr(dim.Lo, collect)
				WalkExpr(dim.Hi, collect)
			}
			WalkExpr(d.Init, collect)
		}
		WalkExprs(p.Body, collect)
	}
	return out
}

// TestAnalyzeKeepsClonedNodes checks that a clone keeps each element
// reference and call in its resolved form, and that analyzing the
// clone keeps every one of those nodes instead of building it again.
func TestAnalyzeKeepsClonedNodes(t *testing.T) {
	for name, prog := range cloneFixtures(t, true) {
		c := Clone(prog)
		// AllProcs is an annotation: list the clone's procedures the way
		// analysis will, to walk them before it runs.
		for _, m := range c.Modules {
			c.AllProcs = append(c.AllProcs, m.Procs...)
		}
		if c.Main != nil {
			c.AllProcs = append(c.AllProcs, c.Main)
		}
		before := resolvedNodes(c)
		want := resolvedNodes(prog)
		if len(before) != len(want) {
			t.Fatalf("%s: clone has %d element references and calls, want %d", name, len(before), len(want))
		}
		for i, e := range before {
			if reflect.TypeOf(e) != reflect.TypeOf(want[i]) {
				t.Errorf("%s: clone of %T %s is a %T", name, want[i], ExprString(want[i]), e)
			}
		}
		if _, err := Analyze(c, Options{}); err != nil {
			t.Fatal(err)
		}
		after := resolvedNodes(c)
		for i, e := range after {
			if i >= len(before) || e != before[i] {
				t.Errorf("%s: analysis replaced %s", name, ExprString(e))
				break
			}
		}
	}
}
