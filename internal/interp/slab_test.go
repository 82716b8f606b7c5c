package interp

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	ft "repro/internal/fortran"
	"repro/internal/perfmodel"
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
