package interp

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	ft "repro/internal/fortran"
)

// FuzzRun runs arbitrary FT source through the VM against its own
// oracle: every input that parses and analyzes (kind mismatches
// allowed, as New accepts them) runs compiled unboxed and boxed, with
// numerics off and on and TrapNonFinite on, under a cycle budget. No run
// may panic or hang, each must return a Result and a nil error or a
// *RunError, and the two compiles must agree on everything diffRuns
// compares. Each input also runs unboxed through one Pool shared by
// every input, released after each run, so its module arrays and its
// procedures' frames carry other programs' values, kinds, shapes and
// shadow lanes into it; that run too must agree with the boxed one.
// The seeds are the bundled models, one program from each differential
// generator and the fused-assignment program (fusedSource); plain go
// test replays them and the corpus under testdata/fuzz/FuzzRun. Run it
// with
//
//	go test -run '^$' -fuzz '^FuzzRun$' -fuzztime 30s ./internal/interp/
func FuzzRun(f *testing.F) {
	files, err := filepath.Glob("../models/src/*.ft")
	if err != nil || len(files) == 0 {
		f.Fatalf("no model sources found: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	calls, _ := genCallProgram(1)
	conds, _ := genCondProgram(1)
	shapes, _ := genShapeProgram(1)
	copyOuts, _, _ := genCopyOutProgram(1)
	for _, src := range []string{calls, conds, shapes, copyOuts, fusedSource(8, "1.0")} {
		f.Add(src)
	}
	// A cap under the default keeps a fuzz worker's memory small, and
	// drops arrays, as a full pool does.
	pool := Pool{limit: 8 << 20}
	f.Fuzz(func(t *testing.T, src string) {
		// A hang is a failure: the watchdog's panic ends the process,
		// and the fuzzer keeps the input that caused it.
		watchdog := time.AfterFunc(20*time.Second, func() {
			panic(fmt.Sprintf("VM did not return within 20s on %q", src))
		})
		defer watchdog.Stop()
		prog, err := ft.Parse(src)
		if err != nil {
			return
		}
		if _, err := ft.Analyze(prog, ft.Options{AllowKindMismatch: true}); err != nil || prog.Main == nil {
			return
		}
		if !fuzzSized(prog) {
			return
		}
		for _, num := range []bool{false, true} {
			o := runOpts{numerics: num, trap: true, budget: fuzzBudget}
			boxed := runVM(t, prog, true, o)
			diffRuns(t, prog, num, runVM(t, prog, false, o), boxed)
			o.pool = &pool
			pooled := runVM(t, prog, false, o)
			diffRuns(t, prog, num, pooled, boxed)
			pooled.in.Release()
		}
	})
}

// fuzzBudget bounds each fuzzed run's simulated cycles, and so its steps.
const fuzzBudget = 2e6

// fuzzSized keeps a fuzzed program's memory small on a shared host: no
// integer literal above 1<<14, and no array whose bounds fold to
// constants with over 1<<22 elements. An array whose bounds are computed
// at run time can still take up to maxArrayElems.
func fuzzSized(prog *ft.Program) bool {
	const maxLit, maxElems = 1 << 14, 1 << 22
	small := true
	lit := func(e ft.Expr) bool {
		if l, ok := e.(*ft.IntLit); ok && (l.Val > maxLit || l.Val < -maxLit) {
			small = false
		}
		return true
	}
	// fold evaluates a bound made of literals, integer parameters and
	// + - *, each operand under maxLit in magnitude.
	var fold func(e ft.Expr) (int64, bool)
	fold = func(e ft.Expr) (int64, bool) {
		switch e := e.(type) {
		case *ft.IntLit:
			return e.Val, true
		case *ft.VarRef:
			if d := e.Decl; d != nil && d.IsParam && d.ConstOK {
				return d.ConstI, true
			}
		case *ft.BinExpr:
			x, okx := fold(e.X)
			y, oky := fold(e.Y)
			if !okx || !oky || max(x, -x, y, -y) > maxLit {
				return 0, false
			}
			switch e.Op {
			case ft.PLUS:
				return x + y, true
			case ft.MINUS:
				return x - y, true
			case ft.STAR:
				return x * y, true
			}
		}
		return 0, false
	}
	decls := func(ds []*ft.VarDecl) {
		for _, d := range ds {
			ft.WalkExpr(d.Init, lit)
			n := int64(1)
			for _, dim := range d.Dims {
				ft.WalkExpr(dim.Lo, lit)
				ft.WalkExpr(dim.Hi, lit)
				lo, okLo := int64(1), true
				if dim.Lo != nil {
					lo, okLo = fold(dim.Lo)
				}
				if hi, okHi := fold(dim.Hi); okLo && okHi && hi >= lo {
					n = min(n*min(hi-lo+1, maxElems+1), maxElems+1)
				}
			}
			if n > maxElems {
				small = false
			}
		}
	}
	for _, m := range prog.Modules {
		decls(m.Decls)
	}
	for _, p := range prog.AllProcs {
		decls(p.Decls)
		ft.WalkExprs(p.Body, lit)
	}
	return small
}
