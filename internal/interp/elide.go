package interp

// Compile-time facts behind two forms that drop per-call work no run
// can observe (docs/interpreter.md). A call site skips its scalar
// copy-outs when each would write back the value its dummy was bound
// with (callFacts.skips), and a procedure compiles no zero-init for a
// scalar local that its body's leading assignments store before
// anything reads it (assignedFirst). The boxed compile asks for
// neither, so it keeps every copy-out and zero-init as their oracle.

import ft "repro/internal/fortran"

// callFacts proves, once per compile, which procedures store only into
// their own frames and which of their scalar dummies may change during
// a call. Facts are computed on demand and memoized by Procedure.Index.
type callFacts struct {
	procs []procFacts
}

// procFacts is what callFacts knows about one procedure.
type procFacts struct {
	state uint8 // factsUnknown, factsBusy or factsDone
	// local: the procedure, and everything it calls, stores only into
	// its own frame: its scalars, its local arrays, and copy-outs that
	// are skipped or land there. A recursive procedure is never local.
	local bool
	// changed, by parameter index: a scalar dummy the body may change,
	// because it is assigned, is a DO variable, or is the destination
	// of a kept copy-out. Only read when local is set; nil when no
	// dummy changes.
	changed []bool
}

const (
	factsUnknown = iota
	factsBusy    // being computed: a call reaching it again is recursion
	factsDone
)

func newCallFacts(prog *ft.Program) *callFacts {
	return &callFacts{procs: make([]procFacts, len(prog.AllProcs))}
}

// proc returns p's facts, computing them first if needed. While p's
// facts are being computed it reads as not local, so every procedure on
// a call cycle through p ends up not local.
func (f *callFacts) proc(p *ft.Procedure) *procFacts {
	pf := &f.procs[p.Index]
	if pf.state != factsUnknown {
		return pf
	}
	pf.state = factsBusy
	w := factsWalk{f: f, p: p, local: true}
	for _, d := range p.Decls {
		if d.Init != nil {
			w.expr(d.Init)
		}
		for _, dim := range d.Dims {
			w.expr(dim.Lo)
			w.expr(dim.Hi)
		}
	}
	w.stmts(p.Body)
	pf.local, pf.changed, pf.state = w.local, w.changed, factsDone
	return pf
}

// skips reports whether a call of q with these actuals may drop all its
// scalar copy-outs: q is local; no dummy a copy-out reads back may
// change; each copy-out's destination has its dummy's type and kind, so
// writing back the bound value is the identity; and every call inside
// the actuals skips too, so nothing that runs between binding and
// copy-out writes a destination.
func (f *callFacts) skips(q *ft.Procedure, args []ft.Expr) bool {
	qf := f.proc(q)
	if !qf.local {
		return false
	}
	for k, a := range args {
		if !f.callsSkip(a) {
			return false
		}
		if k >= len(q.ParamDecl) || outDest(q.ParamDecl[k], a) == nil {
			continue
		}
		d := q.ParamDecl[k]
		if qf.changed != nil && qf.changed[k] {
			return false
		}
		if t := a.Type(); t.Base != d.Base || t.Kind != d.Kind || t.Rank != 0 {
			return false
		}
	}
	return true
}

// callsSkip reports whether every user-function call in e skips.
func (f *callFacts) callsSkip(e ft.Expr) bool {
	switch e := e.(type) {
	case *ft.CallExpr:
		if e.Proc != nil {
			return f.skips(e.Proc, e.Args) // skips checks the actuals' calls
		}
		for _, a := range e.Args {
			if !f.callsSkip(a) {
				return false
			}
		}
	case *ft.BinExpr:
		return f.callsSkip(e.X) && f.callsSkip(e.Y)
	case *ft.UnExpr:
		return f.callsSkip(e.X)
	case *ft.IndexExpr:
		for _, ix := range e.Indices {
			if !f.callsSkip(ix) {
				return false
			}
		}
	}
	return true
}

// outDest returns the declaration a scalar copy-out from dummy d writes
// when bound to actual a (callSite's wantOut rule): a non-parameter
// variable, or an element's array. It returns nil when the binding
// copies nothing out.
func outDest(d *ft.VarDecl, a ft.Expr) *ft.VarDecl {
	if d == nil || d.IsArray() || d.Intent == ft.IntentIn {
		return nil
	}
	switch a := a.(type) {
	case *ft.VarRef:
		if a.Decl != nil && !a.Decl.IsParam {
			return a.Decl
		}
	case *ft.IndexExpr:
		return a.Arr.Decl // an unresolved element fails before it copies out
	}
	return nil
}

// factsWalk visits every statement and expression of one procedure,
// its declarations' initializers and bounds included, and records every
// store it may make.
type factsWalk struct {
	f       *callFacts
	p       *ft.Procedure
	local   bool
	changed []bool
}

// store records that the procedure may store into d: its own scalars
// and local arrays keep it local, a scalar dummy is marked changed, and
// anything else (a module variable, an array dummy, an unresolved
// name) makes it not local.
func (w *factsWalk) store(d *ft.VarDecl) {
	switch {
	case d == nil || d.Proc != w.p || d.IsArg && d.IsArray():
		w.local = false
	case d.IsArg:
		for k, pd := range w.p.ParamDecl {
			if pd == d {
				if w.changed == nil {
					w.changed = make([]bool, len(w.p.ParamDecl))
				}
				w.changed[k] = true
			}
		}
	}
}

// call records a call of q from the procedure: q must be local, and the
// copy-outs the site keeps are stores.
func (w *factsWalk) call(q *ft.Procedure, args []ft.Expr) {
	if q == nil || !w.f.proc(q).local {
		w.local = false
		return
	}
	if w.f.skips(q, args) {
		return
	}
	for k, a := range args {
		if k < len(q.ParamDecl) {
			if d := outDest(q.ParamDecl[k], a); d != nil {
				w.store(d)
			}
		}
	}
}

func (w *factsWalk) stmts(list []ft.Stmt) {
	for _, s := range list {
		if !w.local {
			return
		}
		switch s := s.(type) {
		case *ft.AssignStmt:
			switch l := s.LHS.(type) {
			case *ft.VarRef:
				w.store(l.Decl)
			case *ft.IndexExpr:
				w.store(l.Arr.Decl)
				for _, ix := range l.Indices {
					w.expr(ix)
				}
			}
			w.expr(s.RHS)
		case *ft.IfStmt:
			w.expr(s.Cond)
			w.stmts(s.Then)
			w.stmts(s.Else)
		case *ft.DoStmt:
			w.store(s.Var.Decl)
			w.expr(s.From)
			w.expr(s.To)
			w.expr(s.Step)
			w.stmts(s.Body)
		case *ft.DoWhileStmt:
			w.expr(s.Cond)
			w.stmts(s.Body)
		case *ft.CallStmt:
			if s.Intrinsic == "" {
				w.call(s.Proc, s.Args)
			}
			for _, a := range s.Args {
				w.expr(a)
			}
		case *ft.StopStmt:
			w.expr(s.Code)
		case *ft.PrintStmt:
			for _, a := range s.Args {
				w.expr(a)
			}
		}
	}
}

// expr visits the calls in e (nil is allowed).
func (w *factsWalk) expr(e ft.Expr) {
	switch e := e.(type) {
	case *ft.CallExpr:
		if e.Intrinsic == "" {
			w.call(e.Proc, e.Args)
		}
		for _, a := range e.Args {
			w.expr(a)
		}
	case *ft.BinExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ft.UnExpr:
		w.expr(e.X)
	case *ft.IndexExpr:
		for _, ix := range e.Indices {
			w.expr(ix)
		}
	}
}

// assignedFirst marks, by frame slot, the scalar locals of p without an
// initializer that the leading run of assignments in p's body stores
// before any statement, initializer or array bound reads them. Such a
// local needs no zero-init: nothing can read the value a recycled frame
// left in its slot. It returns nil when no local qualifies.
func assignedFirst(p *ft.Procedure) []bool {
	var state []uint8
	for _, d := range p.Decls {
		if !d.IsArg && !d.IsArray() && !d.IsParam && d.Init == nil {
			if state == nil {
				state = make([]uint8, p.NumSlots)
			}
			state[d.Slot] = slotPending
		}
	}
	if state == nil {
		return nil
	}
	for _, d := range p.Decls {
		if d.Init != nil {
			readSlots(state, p, d.Init)
		}
		for _, dim := range d.Dims {
			readSlots(state, p, dim.Lo)
			readSlots(state, p, dim.Hi)
		}
	}
	for _, s := range p.Body {
		a, ok := s.(*ft.AssignStmt)
		if !ok {
			break
		}
		readSlots(state, p, a.RHS)
		switch l := a.LHS.(type) {
		case *ft.IndexExpr:
			for _, ix := range l.Indices {
				readSlots(state, p, ix)
			}
		case *ft.VarRef:
			if d := l.Decl; d != nil && d.Proc == p && state[d.Slot] == slotPending {
				state[d.Slot] = slotStored
			}
		}
	}
	var first []bool
	for k, st := range state {
		if st == slotStored {
			if first == nil {
				first = make([]bool, len(state))
			}
			first[k] = true
		}
	}
	return first
}

// Slot states of assignedFirst's candidates.
const (
	slotNone    = iota // not a candidate
	slotPending        // not yet read or stored
	slotRead           // read before any store: keeps its zero-init
	slotStored         // stored before any read
)

// readSlots marks every pending local of p that e reads (nil is
// allowed).
func readSlots(state []uint8, p *ft.Procedure, e ft.Expr) {
	switch e := e.(type) {
	case *ft.VarRef:
		if d := e.Decl; d != nil && d.Proc == p && state[d.Slot] == slotPending {
			state[d.Slot] = slotRead
		}
	case *ft.CallExpr:
		for _, a := range e.Args {
			readSlots(state, p, a)
		}
	case *ft.BinExpr:
		readSlots(state, p, e.X)
		readSlots(state, p, e.Y)
	case *ft.UnExpr:
		readSlots(state, p, e.X)
	case *ft.IndexExpr:
		for _, ix := range e.Indices {
			readSlots(state, p, ix)
		}
	}
}
