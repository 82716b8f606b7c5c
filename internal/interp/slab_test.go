package interp

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	ft "repro/internal/fortran"
	"repro/internal/numerics"
	"repro/internal/perfmodel"
	"repro/internal/transform"
)

// chunk returns the bounds of s's newest chunk, the elements all its
// chunks hold and its N.
func chunk[T any](s *ft.Slab[T]) (lo, hi uintptr, held, n int64) {
	v := reflect.ValueOf(s).Elem()
	c := v.FieldByName("chunk")
	lo = c.Pointer()
	hi = lo + uintptr(c.Len())*reflect.TypeFor[T]().Size()
	return lo, hi, v.FieldByName("held").Int(), v.FieldByName("N").Int()
}

// holds reports whether p points into s's newest chunk.
func holds[T any](s *ft.Slab[T], p *T) bool {
	lo, hi, _, _ := chunk(s)
	a := uintptr(unsafe.Pointer(p))
	return a >= lo && a < hi
}

// oneChunk checks that the compile took all of s from one chunk of N,
// and that s's chunk and other's share no memory.
func oneChunk[T any](t *testing.T, name string, s, other *ft.Slab[T]) {
	t.Helper()
	lo, hi, held, n := chunk(s)
	olo, ohi, _, _ := chunk(other)
	switch {
	case held == 0:
		t.Errorf("the compile took no %s", name)
	case held != n:
		t.Errorf("the compile allocated %d %s elements in chunks for the %d counted", held, name, n)
	case lo < ohi && olo < hi:
		t.Errorf("the two compiles share %s slab memory", name)
	}
}

// TestCompilesShareNoSlab compiles one MPAS-A variant twice, unboxed,
// and checks that each compile takes everything from one chunk per
// slab, that the two compiles' chunks share no memory, and that each
// compiled program's statement and init lists lie in its own compile's
// chunks.
func TestCompilesShareNoSlab(t *testing.T) {
	v := lowerAlternate(t, parseModelFile(t, "../models/src/mpas_a.ft")).Prog
	model := perfmodel.Default()
	an := perfmodel.Analyze(v, model)
	a, b := newCompiler(v, model, an, nil, false), newCompiler(v, model, an, nil, false)
	cpA, cpB := a.program(), b.program()
	for _, c := range []struct {
		cp          *cprog
		mine, other *compiler
	}{{cpA, a, b}, {cpB, b, a}} {
		oneChunk(t, "eref", &c.mine.erefs, &c.other.erefs)
		oneChunk(t, "index", &c.mine.idxs, &c.other.idxs)
		oneChunk(t, "ccall", &c.mine.calls, &c.other.calls)
		oneChunk(t, "argPlan", &c.mine.plans, &c.other.plans)
		oneChunk(t, "dimPlan", &c.mine.dims, &c.other.dims)
		oneChunk(t, "vstmt", &c.mine.lists, &c.other.lists)
		oneChunk(t, "vinit", &c.mine.inits, &c.other.inits)
		oneChunk(t, "rarith", &c.mine.ariths, &c.other.ariths)
		for _, tp := range c.cp.procs {
			if len(tp.body) > 0 && (!holds(&c.mine.lists, &tp.body[0]) || holds(&c.other.lists, &tp.body[0])) {
				t.Errorf("%s: a compile's body is not in its own slab", tp.qname)
			}
		}
		for k, inits := range c.cp.modInits {
			if len(inits) > 0 && (!holds(&c.mine.inits, &inits[0]) || holds(&c.other.inits, &inits[0])) {
				t.Errorf("module %d: a compile's inits are not in its own slab", k)
			}
		}
	}
}

// arithExact checks that compiling prog unboxed and without a recorder
// took exactly its counted arithmetic nodes, from one chunk.
func arithExact(t *testing.T, name string, prog *ft.Program) {
	t.Helper()
	model := perfmodel.Default()
	c := newCompiler(prog, model, perfmodel.Analyze(prog, model), nil, false)
	c.program()
	v := reflect.ValueOf(&c.ariths).Elem()
	used, held := v.FieldByName("used").Int(), v.FieldByName("held").Int()
	if n := int64(c.ariths.N); used != n || held != n {
		t.Errorf("%s: the compile took %d arithmetic nodes in chunks of %d elements for the %d counted", name, used, held, n)
	}
}

// TestArithSlabExact checks the arithmetic node count (arithNodes)
// against what the compile takes, on every bundled model as written,
// at uniform 32-bit and with every other atom lowered, on programs of
// every differential generator and on the fused-form program. A
// recorder or a boxed compile builds no node.
func TestArithSlabExact(t *testing.T) {
	files, err := filepath.Glob("../models/src/*.ft")
	if err != nil || len(files) == 0 {
		t.Fatalf("no model sources found: %v", err)
	}
	for _, f := range files {
		prog := parseModelFile(t, f)
		arithExact(t, f, prog)
		u, err := transform.Apply(prog, transform.Uniform(transform.Atoms(prog), 4))
		if err != nil {
			t.Fatal(err)
		}
		arithExact(t, f+"/uniform-32", u.Prog)
		arithExact(t, f+"/alternate-atom", lowerAlternate(t, prog).Prog)
	}
	for seed := uint64(1); seed <= 40; seed++ {
		calls, _ := genCallProgram(seed)
		conds, _ := genCondProgram(seed)
		shapes, _ := genShapeProgram(seed)
		copyOuts, _, _ := genCopyOutProgram(seed)
		for k, src := range []string{calls, conds, shapes, copyOuts} {
			prog := ft.MustParse(src)
			if _, err := ft.Analyze(prog, ft.Options{AllowKindMismatch: true}); err != nil {
				t.Fatalf("generator %d seed %d: %v", k, seed, err)
			}
			arithExact(t, fmt.Sprintf("generator %d seed %d", k, seed), prog)
		}
	}
	fused := fusedProgram(t, 8, "1.0")
	arithExact(t, "fusedSource", fused)
	if n := newCompiler(fused, perfmodel.Default(), nil, nil, false).ariths.N; n < 30 {
		t.Errorf("fusedSource compiles to %d arithmetic nodes, want at least 30", n)
	}
	prog := parseModelFile(t, "../models/src/mpas_a.ft")
	model := perfmodel.Default()
	an := perfmodel.Analyze(prog, model)
	for _, c := range []*compiler{
		newCompiler(prog, model, an, numerics.NewRecorder("mpas_a.ft", numerics.Options{}), false),
		newCompiler(prog, model, an, nil, true),
	} {
		c.program()
		if _, _, held, n := chunk(&c.ariths); n != 0 || held != 0 {
			t.Errorf("a recorder or boxed compile counted %d arithmetic nodes and took %d", n, held)
		}
	}
}

// TestConcurrentNewAndRun compiles and runs eight interpreters of one
// MPAS-A variant at once, as a -par 8 tune and MPAS-A's set-up do, and
// checks that each run digests the same as a lone one. Under go test
// -race it also checks that a compile or a run writes nothing that
// another compile or run holds.
func TestConcurrentNewAndRun(t *testing.T) {
	v := lowerAlternate(t, parseModelFile(t, "../models/src/mpas_a.ft")).Prog
	o := runOpts{trap: true}
	want := runVM(t, v, false, o).digest(v, false)
	got := make([]string, 8)
	errs := make([]error, len(got))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r, err := runEngine(v, false, o)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = r.digest(v, false)
		}()
	}
	close(start)
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Errorf("run %d: %v", i, errs[i])
		} else if got[i] != want {
			t.Errorf("run %d beside seven others digests %s, alone %s", i, got[i], want)
		}
	}
}
