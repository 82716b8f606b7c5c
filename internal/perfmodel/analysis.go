package perfmodel

import (
	"fmt"
	"slices"
	"strings"

	ft "repro/internal/fortran"
)

// LoopDecision is the static vectorization verdict for one DO loop,
// analogous to an entry in a compiler's vectorization report.
type LoopDecision struct {
	Vectorized bool
	Kind       int     // element kind of the vector lanes (4 or 8)
	Factor     float64 // per-op cost multiplier when vectorized
	Masked     bool    // if-converted
	Reduction  bool    // scalar reduction present
	Reason     string  // why vectorization failed (when !Vectorized)
}

// Analysis holds the per-variant static analysis consumed by the
// interpreter: loop vectorization decisions and procedure inlinability.
// It must be recomputed after any precision transformation, because kind
// changes alter both verdicts — the mechanism behind the paper's
// observation that mixed precision "hindered compiler optimizations".
type Analysis struct {
	Model     *Model
	Loops     map[*ft.DoStmt]LoopDecision
	Inlinable map[*ft.Procedure]bool

	loops []loopAt // deterministic report order
}

// loopAt is one analyzed loop and the procedure it is in.
type loopAt struct {
	do   *ft.DoStmt
	proc *ft.Procedure
}

// Analyze runs the static analysis over an Analyzed program.
func Analyze(prog *ft.Program, m *Model) *Analysis {
	a := &Analysis{
		Model:     m,
		Loops:     make(map[*ft.DoStmt]LoopDecision),
		Inlinable: make(map[*ft.Procedure]bool, len(prog.AllProcs)),
	}
	for _, p := range prog.AllProcs {
		a.Inlinable[p] = a.inlinable(p)
	}
	sc := &loopScan{
		kinds:      make(map[int]bool),
		scalarWr:   make(map[string]bool),
		scalarRd:   make(map[string]bool),
		inlineable: a.Inlinable,
	}
	for _, p := range prog.AllProcs {
		ft.WalkStmts(p.Body, func(s ft.Stmt) bool {
			if do, ok := s.(*ft.DoStmt); ok {
				a.Loops[do] = a.analyzeLoop(do, sc)
				a.loops = append(a.loops, loopAt{do, p})
			}
			return true
		})
	}
	return a
}

// Loop returns the decision for a loop (zero value if unknown).
func (a *Analysis) Loop(do *ft.DoStmt) LoopDecision { return a.Loops[do] }

// inlinable mimics a compiler inlining heuristic: a procedure is
// inlinable when its flattened body is small and free of loops and
// further user calls. Tuner-generated wrappers always contain a call and
// so are never inlinable — casting at a call boundary therefore defeats
// inlining, as the paper observed for the MPAS-A flux functions.
func (a *Analysis) inlinable(p *ft.Procedure) bool {
	if p.Kind == ft.KProgram {
		return false
	}
	count := 0
	ok := true
	ft.WalkStmts(p.Body, func(s ft.Stmt) bool {
		count++
		switch s.(type) {
		case *ft.DoStmt, *ft.DoWhileStmt, *ft.CallStmt, *ft.PrintStmt, *ft.StopStmt:
			ok = false
		}
		return ok
	})
	if !ok || count > a.Model.InlineMaxStmts {
		return false
	}
	// No calls to user procedures in expressions, and no array locals
	// (register-pressure proxy).
	ft.WalkExprs(p.Body, func(e ft.Expr) bool {
		if c, isCall := e.(*ft.CallExpr); isCall && c.Proc != nil {
			ok = false
		}
		return ok
	})
	for _, d := range p.Decls {
		if d.IsArray() && !d.IsArg {
			ok = false
		}
	}
	return ok
}

// loopScan accumulates the evidence used to decide vectorization. One
// scan serves every loop of an Analyze; reset clears it between loops.
type loopScan struct {
	kinds      map[int]bool // real kinds appearing in the body
	masked     bool
	reduction  bool
	fail       string
	writes     []access // element writes indexed by the loop variable
	reads      []access
	scalarWr   map[string]bool // scalar names written
	scalarRd   map[string]bool
	loopVar    string
	inlineable map[*ft.Procedure]bool
	names      []string // the arrays in writes, sorted
}

// access is an element reference: the array and its canonical index list.
type access struct{ arr, key string }

func (sc *loopScan) reset(loopVar string) {
	clear(sc.kinds)
	sc.writes, sc.reads = sc.writes[:0], sc.reads[:0]
	clear(sc.scalarWr)
	clear(sc.scalarRd)
	sc.masked, sc.reduction, sc.fail = false, false, ""
	sc.loopVar = loopVar
}

func (sc *loopScan) failf(format string, args ...any) {
	if sc.fail == "" {
		sc.fail = fmt.Sprintf(format, args...)
	}
}

func (a *Analysis) analyzeLoop(do *ft.DoStmt, sc *loopScan) LoopDecision {
	if do.NoVector {
		return LoopDecision{Reason: "novector directive"}
	}
	sc.reset(do.Var.Name)
	sc.scanStmts(do.Body, false)
	if sc.fail != "" {
		return LoopDecision{Reason: sc.fail}
	}

	// Mixed real kinds in the body require per-iteration conversion
	// instructions; treat as non-vectorizable (paper §II-A, §IV-B).
	if sc.kinds[4] && sc.kinds[8] {
		return LoopDecision{Reason: "mixed precision in loop body"}
	}

	// Loop-carried dependence: an array written at one index function of
	// the loop variable and read at a different one.
	sc.names = sc.names[:0]
	for _, w := range sc.writes {
		sc.names = append(sc.names, w.arr)
	}
	slices.Sort(sc.names)
	for _, name := range slices.Compact(sc.names) {
		for _, r := range sc.reads {
			if r.arr != name {
				continue
			}
			for _, w := range sc.writes {
				if w.arr == name && r.key != w.key {
					return LoopDecision{Reason: fmt.Sprintf(
						"loop-carried dependence on %s (%s vs %s)", name, w.key, r.key)}
				}
			}
		}
	}

	// A scalar both read and written is a reduction (vectorizable at a
	// discount); a scalar written then used as an index-independent
	// temporary is treated the same way.
	for name := range sc.scalarWr {
		if sc.scalarRd[name] {
			sc.reduction = true
		}
	}

	kind := 8
	switch {
	case sc.kinds[4]:
		kind = 4
	case sc.kinds[8]:
		kind = 8
	}
	return LoopDecision{
		Vectorized: true,
		Kind:       kind,
		Masked:     sc.masked,
		Reduction:  sc.reduction,
		Factor:     a.Model.VecFactor(kind, sc.masked, sc.reduction),
	}
}

func (sc *loopScan) scanStmts(body []ft.Stmt, inIf bool) {
	for _, s := range body {
		if sc.fail != "" {
			return
		}
		switch s := s.(type) {
		case *ft.AssignStmt:
			sc.scanAssign(s)
		case *ft.IfStmt:
			sc.masked = true
			sc.scanExpr(s.Cond, true)
			sc.scanStmts(s.Then, true)
			sc.scanStmts(s.Else, true)
		case *ft.DoStmt:
			sc.failf("contains inner loop")
		case *ft.DoWhileStmt:
			sc.failf("contains inner while loop")
		case *ft.CallStmt:
			sc.failf("subroutine call to %s", s.Name)
		case *ft.ExitStmt:
			sc.failf("early exit")
		case *ft.CycleStmt:
			// CYCLE is plain if-conversion; already counted as masked.
			sc.masked = true
		case *ft.ReturnStmt:
			sc.failf("return inside loop")
		case *ft.StopStmt:
			sc.failf("stop inside loop")
		case *ft.PrintStmt:
			sc.failf("i/o inside loop")
		}
		_ = inIf
	}
}

func (sc *loopScan) scanAssign(s *ft.AssignStmt) {
	switch lhs := s.LHS.(type) {
	case *ft.IndexExpr:
		sc.noteKindType(lhs.Typ)
		if usesVar(lhs, sc.loopVar) {
			sc.writes = append(sc.writes, access{lhs.Arr.Name, indexKey(lhs)})
		}
		for _, ix := range lhs.Indices {
			sc.scanExpr(ix, false)
		}
	case *ft.VarRef:
		sc.noteKindType(lhs.Typ)
		if lhs.Typ.Rank > 0 {
			sc.failf("whole-array assignment")
			return
		}
		if lhs.Name != sc.loopVar {
			sc.scalarWr[lhs.Name] = true
		}
	}
	sc.scanExpr(s.RHS, true)
}

// usesVar reports whether ix's index list mentions the variable name.
func usesVar(ix *ft.IndexExpr, name string) bool {
	for _, e := range ix.Indices {
		if mentions(e, name) {
			return true
		}
	}
	return false
}

// mentions reports whether e refers to the variable name anywhere.
func mentions(e ft.Expr, name string) bool {
	switch e := e.(type) {
	case *ft.VarRef:
		return e.Name == name
	case *ft.UnExpr:
		return mentions(e.X, name)
	case *ft.BinExpr:
		return mentions(e.X, name) || mentions(e.Y, name)
	case *ft.CallExpr:
		for _, a := range e.Args {
			if mentions(a, name) {
				return true
			}
		}
	case *ft.IndexExpr:
		return e.Arr.Name == name || usesVar(e, name)
	}
	return false
}

// indexKey renders an index list canonically.
func indexKey(ix *ft.IndexExpr) string {
	key := ft.ExprString(ix.Indices[0])
	for _, e := range ix.Indices[1:] {
		key += "," + ft.ExprString(e)
	}
	return key
}

func (sc *loopScan) noteKindType(t ft.Type) {
	if t.Base == ft.TReal {
		sc.kinds[t.Kind] = true
	}
}

// scanExpr walks e in pre-order, noting kinds, scalar reads (when read)
// and the index keys of element reads.
func (sc *loopScan) scanExpr(e ft.Expr, read bool) {
	switch e := e.(type) {
	case *ft.VarRef:
		// Kind-polymorphic constants (parameters) splat into the
		// loop's working precision and do not mix kinds.
		if !ft.ConstReal(e) {
			sc.noteKindType(e.Typ)
		}
		if read && e.Typ.Rank == 0 && e.Name != sc.loopVar {
			sc.scalarRd[e.Name] = true
		}
	case *ft.IndexExpr:
		sc.noteKindType(e.Typ)
		if read && usesVar(e, sc.loopVar) {
			sc.reads = append(sc.reads, access{e.Arr.Name, indexKey(e)})
		}
		sc.scanExpr(e.Arr, read)
		for _, ix := range e.Indices {
			sc.scanExpr(ix, read)
		}
	case *ft.BinExpr:
		sc.noteKindType(e.Typ)
		sc.scanExpr(e.X, read)
		sc.scanExpr(e.Y, read)
	case *ft.UnExpr:
		sc.scanExpr(e.X, read)
	case *ft.CallExpr:
		sc.noteKindType(e.Typ)
		if e.Proc != nil {
			if !sc.inlineable[e.Proc] {
				sc.failf("call to non-inlinable %s", e.Proc.QName())
				return
			}
			// The callee is inlined into the loop: its body's kinds
			// join the loop body's.
			sc.scanInlined(e.Proc)
		}
		for _, a := range e.Args {
			sc.scanExpr(a, read)
		}
	}
	// Real literals are kind-polymorphic; they never mix kinds.
}

// scanInlined folds an inlined callee's real kinds (declarations and
// literals) into the loop scan.
func (sc *loopScan) scanInlined(p *ft.Procedure) {
	for _, d := range p.Decls {
		if d.Base == ft.TReal && !d.IsParam {
			sc.kinds[d.Kind] = true
		}
	}
	ft.WalkExprs(p.Body, func(e ft.Expr) bool {
		switch e := e.(type) {
		case *ft.CallExpr:
			if e.Proc != nil && !sc.inlineable[e.Proc] {
				sc.failf("inlined %s calls non-inlinable %s", p.Name, e.Proc.QName())
			}
		case *ft.BinExpr:
			sc.noteKindType(e.Typ)
		}
		return true
	})
	ft.WalkStmts(p.Body, func(s ft.Stmt) bool {
		if _, ok := s.(*ft.IfStmt); ok {
			sc.masked = true
		}
		return true
	})
}

// VectorizedCount returns how many analyzed loops vectorized.
func (a *Analysis) VectorizedCount() (vec, total int) {
	for _, d := range a.Loops {
		total++
		if d.Vectorized {
			vec++
		}
	}
	return vec, total
}

// Report renders a compiler-style vectorization report, one line per
// loop in deterministic order. The §V recommendations use such reports
// to filter variants before dynamic evaluation.
func (a *Analysis) Report() string {
	var sb strings.Builder
	for _, l := range a.loops {
		do, proc := l.do, l.proc.QName()
		d := a.Loops[do]
		if d.Vectorized {
			extra := ""
			if d.Masked {
				extra += " masked"
			}
			if d.Reduction {
				extra += " reduction"
			}
			fmt.Fprintf(&sb, "%s:%d: loop vectorized (kind=%d, factor=%.3f%s)\n",
				proc, do.Pos.Line, d.Kind, d.Factor, extra)
		} else {
			fmt.Fprintf(&sb, "%s:%d: loop not vectorized: %s\n", proc, do.Pos.Line, d.Reason)
		}
	}
	return sb.String()
}
