package interp

// compile.go lowers the checked FT AST to the closure IR run by vm.go.
// Compilation happens once per Interp (inside New): every variable
// reference is resolved to a (lane, slot) pair, every operation cost is
// folded to a float constant, static type dispatch (operand kinds,
// literal detection, intrinsic selection) is decided here, and recorder
// callsites are bound to numerics.Site handles so instrumented runs pay
// no per-event map lookups. Every expression has a Value closure (the
// boxed form), and the hot shapes also compile to unboxed closures
// (compile_real.go, compile_bool.go, affine indices, integer argument
// binding) that must match their Value closure exactly: evaluation
// order, charge order and float association, recorder call sequences,
// error messages, and partial effects before an error. The Value
// closures make their kind and Base decisions at run time, from the
// operand Values, rather than trusting static types.
//
// Recorder and cast attribution follow the *executing* procedure, which
// is static for body statements (a statement of proc P always runs with
// P on top of the call stack; main's body runs with an empty stack,
// reported as "main"). Declaration initializers are the exception: a
// callee's locals are initialized before the callee is pushed, so their
// events attribute to the caller. The compiler therefore carries a
// `dyn` flag — set while compiling initializers — that switches
// recorder callsites from precompiled Sites to dynamic procName lookup.

import (
	"fmt"
	"math"

	ft "repro/internal/fortran"
	"repro/internal/gptl"
	"repro/internal/numerics"
	"repro/internal/perfmodel"
)

type compiler struct {
	prog     *ft.Program
	model    *perfmodel.Model
	an       *perfmodel.Analysis
	rec      *numerics.Recorder
	cp       *cprog
	siteProc string // recorder attribution for the body being compiled
	dyn      bool   // compiling decl inits: attribute to the dynamic caller
	// boxed makes every unboxed form decline (realExpr, boolExpr, affine
	// indices, integer argument binding, copy-out and assignment, skipped
	// copy-outs and zero-inits), so each expression runs the Value closure
	// that is its fallback and every call copies out and zero-inits. Only
	// tests compile boxed (newInterp), to check the unboxed forms against
	// those closures.
	boxed bool
	facts *callFacts // nil when boxed

	// The compile's slabs: every element reference with its indices,
	// every call site with its argument plans, every array declaration's
	// dimension plans, every statement and init list, and every
	// arithmetic node. They belong to this compile alone, and what it
	// compiled holds them.
	erefs  ft.Slab[eref]
	idxs   ft.Slab[index]
	calls  ft.Slab[ccall]
	plans  ft.Slab[argPlan]
	dims   ft.Slab[dimPlan]
	lists  ft.Slab[vstmt]
	inits  ft.Slab[vinit]
	ariths ft.Slab[rarith]
}

func compileProgram(prog *ft.Program, model *perfmodel.Model, an *perfmodel.Analysis, rec *numerics.Recorder, boxed bool) *cprog {
	return newCompiler(prog, model, an, rec, boxed).program()
}

// newCompiler returns a compiler of prog with its slabs sized.
func newCompiler(prog *ft.Program, model *perfmodel.Model, an *perfmodel.Analysis, rec *numerics.Recorder, boxed bool) *compiler {
	c := &compiler{prog: prog, model: model, an: an, rec: rec, boxed: boxed}
	if !boxed {
		c.facts = newCallFacts(prog)
	}
	c.reserve()
	return c
}

// reserve sets each slab's N, the size of its first chunk, from prog:
// an element reference per IndexExpr, a call site per call of a user
// procedure and a plan per actual, the dimensions of every array
// declaration that is not a dummy, every statement and declaration,
// and exactly the arithmetic nodes the compile builds (stmtNodes and
// valueNodes), which only an unboxed compile without a recorder does.
func (c *compiler) reserve() {
	nodes := !c.boxed && c.rec == nil
	countExpr := func(e ft.Expr) bool {
		switch e := e.(type) {
		case *ft.IndexExpr:
			c.erefs.N++
			c.idxs.N += len(e.Indices)
		case *ft.CallExpr:
			if e.Proc != nil {
				c.calls.N++
				c.plans.N += len(e.Args)
			}
		}
		return true
	}
	countStmt := func(s ft.Stmt) bool {
		c.lists.N++
		if s, ok := s.(*ft.CallStmt); ok && s.Proc != nil {
			c.calls.N++
			c.plans.N += len(s.Args)
		}
		if nodes {
			c.ariths.N += c.stmtNodes(s)
		}
		return true
	}
	countDecls := func(decls []*ft.VarDecl) {
		for _, d := range decls {
			if d.IsArg {
				continue
			}
			c.inits.N++
			c.dims.N += len(d.Dims)
			for _, dim := range d.Dims {
				ft.WalkExpr(dim.Lo, countExpr)
				ft.WalkExpr(dim.Hi, countExpr)
				if nodes && !dim.Assumed {
					c.ariths.N += c.valueNodes(dim.Lo) + c.valueNodes(dim.Hi)
				}
			}
			ft.WalkExpr(d.Init, countExpr)
			if nodes {
				c.ariths.N += c.valueNodes(d.Init)
			}
		}
	}
	for _, mod := range c.prog.Modules {
		countDecls(mod.Decls)
	}
	for _, p := range c.prog.AllProcs {
		countDecls(p.Decls)
		ft.WalkStmts(p.Body, countStmt)
		ft.WalkExprs(p.Body, countExpr)
	}
}

// program compiles c.prog.
func (c *compiler) program() *cprog {
	prog := c.prog
	cp := &cprog{prog: prog, procs: make([]*cproc, len(prog.AllProcs))}
	c.cp = cp
	shadow := c.rec != nil
	// Shells first so call sites can reference procedures compiled later
	// (mutual recursion).
	shells := make([]cproc, len(prog.AllProcs))
	// Each procedure's frame list starts with room for one frame, so a
	// procedure that does not recurse grows none.
	frames := make([]*vframe, len(prog.AllProcs))
	for _, p := range prog.AllProcs {
		numCo := 0
		for _, d := range p.ParamDecl {
			if d != nil && !d.IsArray() && d.Intent != ft.IntentIn {
				numCo++
			}
		}
		tp := &shells[p.Index]
		*tp = cproc{
			proc: p, qname: p.QName(), inlined: c.an.Inlinable[p],
			numSlots: p.NumSlots, numCo: numCo, shadow: shadow,
			pool: frames[p.Index : p.Index : p.Index+1],
		}
		cp.procs[p.Index] = tp
	}
	cp.main = cp.procs[prog.Main.Index]
	cp.modInits = make([][]vinit, len(prog.Modules))
	for _, mod := range prog.Modules {
		inits := c.inits.List(len(mod.Decls))
		for k, d := range mod.Decls {
			inits[k] = c.declInit(d)
		}
		cp.modInits[mod.Index] = inits
	}
	for _, p := range prog.AllProcs {
		tp := cp.procs[p.Index]
		if p == prog.Main {
			c.siteProc = "main"
		} else {
			c.siteProc = tp.qname
		}
		var first []bool // locals the body assigns before reading: no zero-init
		if !c.boxed {
			first = assignedFirst(p)
		}
		n := 0
		for _, d := range p.Decls {
			if !d.IsArg && (first == nil || !first[d.Slot]) {
				n++
			}
		}
		tp.inits = c.inits.List(n)[:0]
		for _, d := range p.Decls {
			if d.IsArg || first != nil && first[d.Slot] {
				continue
			}
			tp.inits = append(tp.inits, c.declInit(d))
		}
		tp.body = c.stmts(p.Body)
	}
	return cp
}

func (c *compiler) cost(cl perfmodel.OpClass, kind int) float64 {
	return c.model.OpCost(cl, kind)
}

// kindIdx maps a real kind to a 2-entry cost table index (8 -> 1).
func kindIdx(kind int) int {
	if kind == 8 {
		return 1
	}
	return 0
}

// rsite is a compiled recorder callsite: a precompiled Site for body
// statements, or a dynamic (procName at run time) fallback for decl
// initializers. Methods are only called when m.rec != nil.
type rsite struct {
	site *numerics.Site
	line int
	atom string
}

func (c *compiler) rsite(line int) rsite {
	if c.dyn || c.rec == nil {
		return rsite{line: line}
	}
	return rsite{site: c.rec.Site(c.siteProc, line), line: line}
}

func (c *compiler) asite(line int, atom string) rsite {
	if c.dyn || c.rec == nil {
		return rsite{line: line, atom: atom}
	}
	return rsite{site: c.rec.AssignSite(c.siteProc, line, atom), line: line, atom: atom}
}

func (s rsite) op(m *vm, op byte, x, y, xs, ys, res, exact, shadow float64) {
	if s.site != nil {
		s.site.Op(op, x, y, xs, ys, res, exact, shadow)
		return
	}
	m.rec.Op(m.procName(), s.line, op, x, y, xs, ys, res, exact, shadow)
}

func (s rsite) intrinsic(m *vm, name string, x, res, exact, shadow float64) {
	if s.site != nil {
		s.site.Intrinsic(name, x, res, exact, shadow)
		return
	}
	m.rec.Intrinsic(m.procName(), s.line, name, x, res, exact, shadow)
}

func (s rsite) assign(m *vm, primary, shadow, stored float64) {
	if s.site != nil {
		s.site.Assign(primary, shadow, stored)
		return
	}
	m.rec.Assign(m.procName(), s.line, s.atom, primary, shadow, stored)
}

func (s rsite) branch(m *vm) {
	if s.site != nil {
		s.site.Branch()
		return
	}
	m.rec.Branch(m.procName(), s.line)
}

func (s rsite) discretize(m *vm, primary, shadow int64) {
	if s.site != nil {
		s.site.Discretize(primary, shadow)
		return
	}
	m.rec.Discretize(m.procName(), s.line, primary, shadow)
}

// Slot access ---------------------------------------------------------------

// slotRef is a declaration's compiled storage: its slot in the running
// frame (mod arrLocal) or in the frame of module mod. A closure that
// reads or writes a slot captures its slotRef by value, so accessing a
// slot compiles to no closure of its own.
type slotRef struct {
	slot, mod int32
}

func slotOf(d *ft.VarDecl) slotRef {
	if d.Proc != nil {
		return slotRef{slot: int32(d.Slot), mod: arrLocal}
	}
	return slotRef{slot: int32(d.Slot), mod: int32(d.InMod.Index)}
}

// frame returns the frame that holds r.
func (r slotRef) frame(m *vm, fr *vframe) *vframe {
	if r.mod >= 0 {
		return m.gl[r.mod]
	}
	return fr
}

// arr returns the array in r.
func (r slotRef) arr(m *vm, fr *vframe) *Array { return r.frame(m, fr).a[r.slot] }

// setArr stores arr in r.
func (r slotRef) setArr(m *vm, fr *vframe, arr *Array) { r.frame(m, fr).a[r.slot] = arr }

// setInt stores the integer v in r.
func (r slotRef) setInt(m *vm, fr *vframe, v int64) { r.frame(m, fr).i[r.slot] = v }

// declRef is a declaration's slot with the type that its Value view
// (read) and a scalar store (store) take.
type declRef struct {
	slotRef
	base  ft.BaseType
	kind  int
	array bool
}

func declOf(d *ft.VarDecl) declRef {
	return declRef{slotRef: slotOf(d), base: d.Base, kind: d.Kind, array: d.IsArray()}
}

// read returns the declaration's Value view. Without a recorder a
// real's shadow reads as its primary.
func (r declRef) read(m *vm, fr *vframe) Value {
	g := r.frame(m, fr)
	switch {
	case r.array:
		return Value{Base: ft.TReal, Kind: r.kind, Arr: g.a[r.slot]}
	case r.base == ft.TReal:
		v := Value{Base: ft.TReal, Kind: r.kind, F: g.f[r.slot], Sh: g.f[r.slot]}
		if g.sh != nil {
			v.Sh = g.sh[r.slot]
		}
		return v
	case r.base == ft.TInteger:
		return intValue(g.i[r.slot])
	default:
		return logicalValue(g.b[r.slot])
	}
}

// store stores the scalar v, already converted to the declared type
// (convertScalar).
func (r declRef) store(m *vm, fr *vframe, v Value) {
	g := r.frame(m, fr)
	switch r.base {
	case ft.TReal:
		g.f[r.slot] = v.F
		if g.sh != nil {
			g.sh[r.slot] = v.Sh
		}
	case ft.TInteger:
		g.i[r.slot] = v.I
	default:
		g.b[r.slot] = v.B
	}
}

func (c *compiler) loadDecl(d *ft.VarDecl) vexpr {
	r := declOf(d)
	return func(m *vm, fr *vframe) (Value, error) { return r.read(m, fr), nil }
}

// errExpr compiles to a constant-error expression (the error fires at
// evaluation time, not at compile time).
func errExpr(err error) vexpr {
	return func(m *vm, fr *vframe) (Value, error) { return Value{}, err }
}

// Declarations --------------------------------------------------------------

// declInit compiles one declaration's initialization: an array is
// allocated from its bounds, evaluated in order (lower bound default 1,
// a negative extent clamps to 0); a scalar takes its initializer
// converted to the declared type, or zero. Initializer expressions
// attribute dynamically (see file comment).
//
// A procedure-local array is re-initialized in place when its slot
// still holds the array of the frame's previous activation and that
// array's storage is large enough (Array.reinit); otherwise it is
// allocated. A module array comes from the run's Pool (Pool.take),
// which allocates only when it holds no released array of the same
// rank and element count. A function's result (which invoke returns
// after the frame is back in the pool) is always allocated.
func (c *compiler) declInit(d *ft.VarDecl) vinit {
	savedDyn := c.dyn
	c.dyn = true
	defer func() { c.dyn = savedDyn }()

	if d.IsArray() {
		dims := c.dims.List(len(d.Dims))
		for k, dim := range d.Dims {
			dp := dimPlan{assumed: dim.Assumed}
			if !dim.Assumed {
				if dim.Lo != nil {
					dp.lo = c.expr(dim.Lo)
				}
				dp.hi = c.expr(dim.Hi)
			}
			dims[k] = dp
		}
		notReal := d.Base != ft.TReal
		kind := d.Kind
		at := slotOf(d)
		local := d.Proc != nil
		reuse := local && d != d.Proc.Result
		slot := d.Slot
		name := d.Name
		pos := d.Pos
		rank := len(d.Dims)
		return func(m *vm, fr *vframe) error {
			var lobuf, extbuf [4]int
			var lo, ext []int
			if rank <= len(lobuf) {
				lo, ext = lobuf[:rank], extbuf[:rank]
			} else {
				lo, ext = make([]int, rank), make([]int, rank)
			}
			for k := range dims {
				dp := &dims[k]
				if dp.assumed {
					return &RunError{Pos: pos, Kind: FailInternal,
						Msg: fmt.Sprintf("assumed-shape array %q has no bound actual", name)}
				}
				loV := 1
				if dp.lo != nil {
					v, err := dp.lo(m, fr)
					if err != nil {
						return err
					}
					loV = int(v.asInt())
				}
				hv, err := dp.hi(m, fr)
				if err != nil {
					return err
				}
				lo[k] = loV
				ext[k] = arrayExtent(loV, int(hv.asInt()))
			}
			if notReal {
				return &RunError{Pos: pos, Kind: FailInternal,
					Msg: fmt.Sprintf("array %q: only real arrays are supported", name)}
			}
			if !arrayFits(ext) {
				return &RunError{Pos: pos, Kind: FailInternal,
					Msg: fmt.Sprintf("array %q has over %d elements", name, maxArrayElems)}
			}
			if reuse {
				if arr := fr.a[slot]; arr != nil && arr.reinit(lo, ext, m.rec != nil) {
					return nil
				}
			}
			pool := m.pool
			if local {
				pool = nil
			}
			at.setArr(m, fr, pool.take(kind, lo, ext, m.rec != nil))
			return nil
		}
	}

	st := declOf(d)
	dt := d.Type()
	if d.Init == nil {
		var zero Value
		switch d.Base {
		case ft.TReal:
			zero = realValue(0, d.Kind)
		case ft.TInteger:
			zero = intValue(0)
		case ft.TLogical:
			zero = logicalValue(false)
		}
		return func(m *vm, fr *vframe) error {
			st.store(m, fr, zero)
			return nil
		}
	}
	initE := c.expr(d.Init)
	return func(m *vm, fr *vframe) error {
		v, err := initE(m, fr)
		if err != nil {
			return err
		}
		st.store(m, fr, convertScalar(v, dt))
		return nil
	}
}

// dimPlan is one compiled dimension of an array declaration.
type dimPlan struct {
	assumed bool
	lo, hi  vexpr // lo nil means default lower bound 1
}

// maxArrayElems caps one array's element count: 1 GiB of float64, and
// 8,192 times the largest array of a bundled model (ADCIRC's wave
// tables).
const maxArrayElems = 1 << 27

// arrayExtent returns the extent of the dimension lo:hi: 0 when hi <
// lo, and -1 when hi − lo + 1 does not fit in an int.
func arrayExtent(lo, hi int) int {
	if hi < lo {
		return 0
	}
	if d := uint(hi) - uint(lo); d < math.MaxInt { // exact: hi ≥ lo
		return int(d) + 1
	}
	return -1
}

// arrayFits reports whether extents from arrayExtent all fit in an int
// and hold at most maxArrayElems elements. Clamping each factor and
// each running product to maxArrayElems+1 keeps every product from
// wrapping.
func arrayFits(ext []int) bool {
	n := 1
	for _, e := range ext {
		if e < 0 {
			return false
		}
		n = min(n*min(e, maxArrayElems+1), maxArrayElems+1)
	}
	return n <= maxArrayElems
}

// Expressions ---------------------------------------------------------------

func (c *compiler) expr(e ft.Expr) vexpr {
	switch e := e.(type) {
	case *ft.IntLit:
		v := intValue(e.Val)
		return func(m *vm, fr *vframe) (Value, error) { return v, nil }
	case *ft.RealLit:
		v := realValue(e.Val, e.Kind)
		return func(m *vm, fr *vframe) (Value, error) { return v, nil }
	case *ft.LogicalLit:
		v := logicalValue(e.Val)
		return func(m *vm, fr *vframe) (Value, error) { return v, nil }
	case *ft.StrLit:
		v := Value{Base: ft.TString, S: e.Val}
		return func(m *vm, fr *vframe) (Value, error) { return v, nil }
	case *ft.VarRef:
		if e.Decl == nil {
			return errExpr(&RunError{Pos: e.Pos, Kind: FailInternal,
				Msg: fmt.Sprintf("unresolved variable %q", e.Name)})
		}
		return c.loadDecl(e.Decl)
	case *ft.IndexExpr:
		return c.loadElem(e)
	case *ft.UnExpr:
		return c.unary(e)
	case *ft.BinExpr:
		return c.binary(e)
	case *ft.CallExpr:
		if e.Intrinsic != "" {
			return c.intrinsic(e)
		}
		if e.Proc == nil {
			return errExpr(&RunError{Pos: e.Pos, Kind: FailInternal,
				Msg: fmt.Sprintf("unresolved function %q", e.Name)})
		}
		return c.invoke(e.Proc, e.Args, e.Pos)
	default:
		return errExpr(&RunError{Pos: e.ExprPos(), Kind: FailInternal,
			Msg: fmt.Sprintf("unknown expression %T", e)})
	}
}

// eref is a compiled array element reference. resolve evaluates the
// indices in order, charging one OpIntALU after each, and checks bounds.
// The array is read straight from its declaration's slot: mod is the
// module index of a module array, or arrLocal or arrUnresolved.
type eref struct {
	slot, mod int32
	affine    bool // rank 1 or 2 with every index affine: resolve's unboxed path
	idxs      []index
	name      string
	pos       ft.Pos
	ialu      float64
}

const (
	arrLocal      = -1 // eref.mod of a local or dummy array
	arrUnresolved = -2 // eref.mod of a reference with no declaration
)

// index is one compiled array index, in exactly one form: an inline
// shape (ixSlot, ixSlotOff, ixLit) that at reads without a call, the
// unboxed integer closure i of any other affine index (affineIndex), or
// the Value closure v.
type index struct {
	shape ishape
	slot  int   // ixSlot, ixSlotOff: the local integer's frame slot
	c     int64 // ixSlotOff: the signed offset; ixLit: the value
	i     vint
	v     vexpr
}

// ishape is the inline form of an index.
type ishape uint8

const (
	ixClosure ishape = iota // i or v is set
	ixSlot                  // a local integer scalar
	ixSlotOff               // a local integer scalar ± an integer literal
	ixLit                   // an integer literal
)

// vint evaluates an integer expression unboxed, charging its cost.
type vint func(m *vm, fr *vframe) int64

func (c *compiler) elemRef(e *ft.IndexExpr) *eref {
	n := len(e.Indices)
	r := c.erefs.Put(eref{
		mod:    arrUnresolved,
		affine: n == 1 || n == 2,
		idxs:   c.idxs.List(n),
		name:   e.Arr.Name,
		pos:    e.Pos,
		ialu:   c.cost(perfmodel.OpIntALU, 4),
	})
	if d := e.Arr.Decl; d != nil {
		r.slot, r.mod = int32(d.Slot), arrLocal
		if d.Proc == nil {
			r.mod = int32(d.InMod.Index)
		}
	}
	for k, ix := range e.Indices {
		switch {
		case c.boxed || !affineIndex(ix):
			r.idxs[k].v = c.expr(ix)
			r.affine = false
		default:
			if r.idxs[k] = shapeIndex(ix); r.idxs[k].shape == ixClosure {
				r.idxs[k].i = c.intIndex(ix)
			}
		}
	}
	return r
}

// shapeIndex returns the inline shape of an affine index: a local
// integer scalar i, i + c or i - c with c an integer literal (the
// offset stored signed: x - c and x + (-c) wrap alike), or a literal.
// Any other index gets shape ixClosure.
func shapeIndex(e ft.Expr) index {
	localInt := func(e ft.Expr) (int, bool) {
		v, ok := e.(*ft.VarRef)
		if !ok || v.Decl == nil || v.Decl.Proc == nil {
			return 0, false
		}
		return v.Decl.Slot, true
	}
	switch e := e.(type) {
	case *ft.IntLit:
		return index{shape: ixLit, c: e.Val}
	case *ft.VarRef:
		if slot, ok := localInt(e); ok {
			return index{shape: ixSlot, slot: slot}
		}
	case *ft.BinExpr:
		lit, isLit := e.Y.(*ft.IntLit)
		slot, ok := localInt(e.X)
		switch {
		case !isLit || !ok:
		case e.Op == ft.PLUS:
			return index{shape: ixSlotOff, slot: slot, c: lit.Val}
		case e.Op == ft.MINUS:
			return index{shape: ixSlotOff, slot: slot, c: -lit.Val}
		}
	}
	return index{}
}

// at evaluates an index of an inline shape, charging what intIndex
// would: one OpIntALU (ialu) for the ± of ixSlotOff, nothing otherwise.
// It makes no call, so it inlines; callers call an ixClosure index's
// closure themselves.
func (ix *index) at(m *vm, fr *vframe, ialu float64) int {
	switch ix.shape {
	case ixSlot:
		return int(fr.i[ix.slot])
	case ixSlotOff:
		v := fr.i[ix.slot] + ix.c
		m.charge(ialu)
		return int(v)
	}
	return int(ix.c)
}

// shaped reports whether every index of e compiles to an inline shape.
func shaped(e *ft.IndexExpr) bool {
	for _, ix := range e.Indices {
		if !affineIndex(ix) || shapeIndex(ix).shape == ixClosure {
			return false
		}
	}
	return true
}

// recharge charges what resolving r once more would: for each index of
// an inline shape, its ± (if any), then the index's OpIntALU.
func (r *eref) recharge(m *vm) {
	for k := range r.idxs {
		if r.idxs[k].shape == ixSlotOff {
			m.charge(r.ialu)
		}
		m.charge(r.ialu)
	}
}

// affineIndex reports whether e compiles to an unboxed index: an integer
// literal, an integer scalar variable (local, module or parameter), or
// +, - or * over those forms. Everything else (/, **, unary minus,
// calls, intrinsics) keeps the Value path.
func affineIndex(e ft.Expr) bool {
	switch e := e.(type) {
	case *ft.IntLit:
		return true
	case *ft.VarRef:
		d := e.Decl
		return d != nil && !d.IsArray() && d.Base == ft.TInteger
	case *ft.BinExpr:
		switch e.Op {
		case ft.PLUS, ft.MINUS, ft.STAR:
			return affineIndex(e.X) && affineIndex(e.Y)
		}
	}
	return false
}

// intIndex compiles an affineIndex expression. It reads the same slots
// as declRef.read and charges like binary()'s integer arithmetic: both
// operands first, then one OpIntALU for the operation.
func (c *compiler) intIndex(e ft.Expr) vint {
	switch e := e.(type) {
	case *ft.IntLit:
		v := e.Val
		return func(m *vm, fr *vframe) int64 { return v }
	case *ft.VarRef:
		slot := e.Decl.Slot
		if e.Decl.Proc != nil {
			return func(m *vm, fr *vframe) int64 { return fr.i[slot] }
		}
		mi := e.Decl.InMod.Index
		return func(m *vm, fr *vframe) int64 { return m.gl[mi].i[slot] }
	}
	b := e.(*ft.BinExpr)
	x, y := c.intIndex(b.X), c.intIndex(b.Y)
	cost := c.cost(perfmodel.OpIntALU, 4)
	switch b.Op {
	case ft.PLUS:
		return func(m *vm, fr *vframe) int64 {
			xv := x(m, fr)
			yv := y(m, fr)
			m.charge(cost)
			return xv + yv
		}
	case ft.MINUS:
		return func(m *vm, fr *vframe) int64 {
			xv := x(m, fr)
			yv := y(m, fr)
			m.charge(cost)
			return xv - yv
		}
	default: // ft.STAR
		return func(m *vm, fr *vframe) int64 {
			xv := x(m, fr)
			yv := y(m, fr)
			m.charge(cost)
			return xv * yv
		}
	}
}

func (r *eref) resolve(m *vm, fr *vframe) (*Array, int, error) {
	var arr *Array
	switch {
	case r.mod >= 0:
		arr = m.gl[r.mod].a[r.slot]
	case r.mod == arrLocal:
		arr = fr.a[r.slot]
	}
	if arr == nil {
		return nil, 0, notAllocated(r.pos, r.name)
	}
	if r.affine {
		// Rank 1 or 2 inline. An out-of-range index, or a header of
		// another rank, takes flatIndex (and its error text).
		var i, j int
		if ix := &r.idxs[0]; ix.shape != ixClosure {
			i = ix.at(m, fr, r.ialu)
		} else {
			i = int(ix.i(m, fr))
		}
		m.charge(r.ialu)
		if len(r.idxs) == 1 {
			if off := i - arr.Lo[0]; len(arr.Ext) == 1 && off >= 0 && off < arr.Ext[0] {
				return arr, off, nil
			}
			idx := [1]int{i}
			return r.flat(arr, idx[:])
		}
		if ix := &r.idxs[1]; ix.shape != ixClosure {
			j = ix.at(m, fr, r.ialu)
		} else {
			j = int(ix.i(m, fr))
		}
		m.charge(r.ialu)
		if len(arr.Ext) == 2 {
			i0, j0 := i-arr.Lo[0], j-arr.Lo[1]
			if i0 >= 0 && i0 < arr.Ext[0] && j0 >= 0 && j0 < arr.Ext[1] {
				return arr, i0 + j0*arr.Ext[0], nil
			}
		}
		idx := [2]int{i, j}
		return r.flat(arr, idx[:])
	}
	var buf [8]int
	var idx []int
	if len(r.idxs) <= len(buf) {
		idx = buf[:len(r.idxs)]
	} else {
		idx = make([]int, len(r.idxs))
	}
	for k := range r.idxs {
		switch ix := &r.idxs[k]; {
		case ix.shape != ixClosure:
			idx[k] = ix.at(m, fr, r.ialu)
		case ix.i != nil:
			idx[k] = int(ix.i(m, fr))
		default:
			v, err := ix.v(m, fr)
			if err != nil {
				return nil, 0, err
			}
			idx[k] = int(v.asInt())
		}
		m.charge(r.ialu)
	}
	if len(idx) == 1 && len(arr.Ext) == 1 {
		// Rank 1 inline; an out-of-range index takes flatIndex's error.
		if off := idx[0] - arr.Lo[0]; off >= 0 && off < arr.Ext[0] {
			return arr, off, nil
		}
	}
	return r.flat(arr, idx)
}

// notAllocated is the error of reading array name at pos while its slot
// holds no array.
func notAllocated(pos ft.Pos, name string) error {
	return &RunError{Pos: pos, Kind: FailInternal,
		Msg: fmt.Sprintf("%q is not an allocated array", name)}
}

// flat resolves idx through flatIndex, the general bounds check.
func (r *eref) flat(arr *Array, idx []int) (*Array, int, error) {
	off, err := arr.flatIndex(idx)
	if err != nil {
		return nil, 0, &RunError{Pos: r.pos, Kind: FailBounds,
			Msg: fmt.Sprintf("%s: %v", r.name, err)}
	}
	return arr, off, nil
}

func (c *compiler) loadElem(e *ft.IndexExpr) vexpr {
	r := c.elemRef(e)
	loadCost := [2]float64{c.cost(perfmodel.OpLoad, 4), c.cost(perfmodel.OpLoad, 8)}
	return func(m *vm, fr *vframe) (Value, error) {
		arr, off, err := r.resolve(m, fr)
		if err != nil {
			return Value{}, err
		}
		m.chargeMem(loadCost[kindIdx(arr.Kind)])
		v := Value{Base: ft.TReal, Kind: arr.Kind, F: arr.Data[off], Sh: arr.Data[off]}
		if arr.Shadow != nil {
			v.Sh = arr.Shadow[off]
		}
		return v, nil
	}
}

func (c *compiler) unary(e *ft.UnExpr) vexpr {
	xe := c.expr(e.X)
	switch e.Op {
	case ft.MINUS:
		intCost := c.cost(perfmodel.OpIntALU, 4)
		negCost := [2]float64{c.cost(perfmodel.OpAddSub, 4), c.cost(perfmodel.OpAddSub, 8)}
		return func(m *vm, fr *vframe) (Value, error) {
			x, err := xe(m, fr)
			if err != nil {
				return Value{}, err
			}
			if x.Base == ft.TInteger {
				m.charge(intCost)
				return intValue(-x.I), nil
			}
			m.charge(negCost[kindIdx(x.Kind)])
			v := realValue(-x.F, x.Kind)
			if m.rec != nil {
				v.Sh = -x.sh()
			}
			return v, nil
		}
	case ft.PLUS:
		return xe
	case ft.NOT:
		intCost := c.cost(perfmodel.OpIntALU, 4)
		return func(m *vm, fr *vframe) (Value, error) {
			x, err := xe(m, fr)
			if err != nil {
				return Value{}, err
			}
			m.charge(intCost)
			return logicalValue(!x.B), nil
		}
	default:
		err := &RunError{Pos: e.Pos, Kind: FailInternal,
			Msg: fmt.Sprintf("unknown unary op %v", e.Op)}
		return func(m *vm, fr *vframe) (Value, error) {
			if _, xerr := xe(m, fr); xerr != nil {
				return Value{}, xerr
			}
			return Value{}, err
		}
	}
}

// isLiteral reports whether e is a compile-time constant whose kind
// conversion is folded by the compiler (no runtime cast is charged).
func isLiteral(e ft.Expr) bool {
	switch e := e.(type) {
	case *ft.IntLit, *ft.RealLit, *ft.LogicalLit:
		return true
	case *ft.UnExpr:
		return isLiteral(e.X)
	case *ft.VarRef:
		return e.Decl != nil && e.Decl.IsParam
	default:
		return false
	}
}

// assignAtom is the search-atom qualified name of an assignment target:
// the declaration behind a real variable or array-element LHS ("" for
// integer/logical targets, which are not atoms). Only the recorder reads
// it, so without one it is "" too.
func (c *compiler) assignAtom(lhs ft.Expr, lt ft.Type) string {
	if c.rec == nil || lt.Base != ft.TReal {
		return ""
	}
	switch lhs := lhs.(type) {
	case *ft.VarRef:
		if lhs.Decl != nil {
			return lhs.Decl.QName()
		}
	case *ft.IndexExpr:
		if lhs.Arr != nil && lhs.Arr.Decl != nil {
			return lhs.Arr.Decl.QName()
		}
	}
	return ""
}

// operandCast compiles the charge that brings an operand of static type
// at to the operation kind opKind: an integer converts (OpConv), a real
// of another kind casts, a literal is folded and charges nothing. It
// returns nil when no charge applies.
func (c *compiler) operandCast(e ft.Expr, at ft.Type, opKind int) func(m *vm) {
	if isLiteral(e) {
		return nil
	}
	switch {
	case at.Base == ft.TInteger:
		conv := c.cost(perfmodel.OpConv, 4)
		return func(m *vm) { m.charge(conv) }
	case at.Base == ft.TReal && at.Kind != opKind:
		return func(m *vm) { m.cast(1) }
	}
	return nil
}

func (c *compiler) binary(e *ft.BinExpr) vexpr {
	xe, ye := c.expr(e.X), c.expr(e.Y)
	intCost := c.cost(perfmodel.OpIntALU, 4)

	switch e.Op {
	case ft.AND:
		return func(m *vm, fr *vframe) (Value, error) {
			x, err := xe(m, fr)
			if err != nil {
				return Value{}, err
			}
			y, err := ye(m, fr)
			if err != nil {
				return Value{}, err
			}
			m.charge(intCost)
			return logicalValue(x.B && y.B), nil
		}
	case ft.OR:
		return func(m *vm, fr *vframe) (Value, error) {
			x, err := xe(m, fr)
			if err != nil {
				return Value{}, err
			}
			y, err := ye(m, fr)
			if err != nil {
				return Value{}, err
			}
			m.charge(intCost)
			return logicalValue(x.B || y.B), nil
		}
	}

	xt, yt := e.X.Type(), e.Y.Type()
	switch e.Op {
	case ft.EQ, ft.NE, ft.LT, ft.LE, ft.GT, ft.GE:
		if xt.Base == ft.TLogical {
			isEQ := e.Op == ft.EQ
			return func(m *vm, fr *vframe) (Value, error) {
				x, err := xe(m, fr)
				if err != nil {
					return Value{}, err
				}
				y, err := ye(m, fr)
				if err != nil {
					return Value{}, err
				}
				m.charge(intCost)
				if isEQ {
					return logicalValue(x.B == y.B), nil
				}
				return logicalValue(x.B != y.B), nil
			}
		}
		if xt.Base == ft.TInteger && yt.Base == ft.TInteger {
			op := e.Op
			return func(m *vm, fr *vframe) (Value, error) {
				x, err := xe(m, fr)
				if err != nil {
					return Value{}, err
				}
				y, err := ye(m, fr)
				if err != nil {
					return Value{}, err
				}
				m.charge(intCost)
				return logicalValue(intCompare(op, x.I, y.I)), nil
			}
		}
		k := e.Typ.Kind
		if k == 0 {
			k = promoteKind(xt, yt)
		}
		chX := c.operandCast(e.X, xt, k)
		chY := c.operandCast(e.Y, yt, k)
		cmpCost := c.cost(perfmodel.OpCmp, k)
		k4 := k == 4
		op := e.Op
		kk := k
		rs := c.rsite(e.Pos.Line)
		return func(m *vm, fr *vframe) (Value, error) {
			x, err := xe(m, fr)
			if err != nil {
				return Value{}, err
			}
			y, err := ye(m, fr)
			if err != nil {
				return Value{}, err
			}
			if chX != nil {
				chX(m)
			}
			if chY != nil {
				chY(m)
			}
			m.charge(cmpCost)
			xf, yf := convertReal(x.asFloat(), kk), convertReal(y.asFloat(), kk)
			var b bool
			if k4 {
				b = f32Compare(op, float32(xf), float32(yf))
			} else {
				b = f64Compare(op, xf, yf)
			}
			if m.rec != nil && b != f64Compare(op, x.sh(), y.sh()) {
				rs.branch(m)
			}
			return logicalValue(b), nil
		}
	}

	// Arithmetic.
	if xt.Base == ft.TInteger && yt.Base == ft.TInteger {
		op := e.Op
		pos := e.Pos
		return func(m *vm, fr *vframe) (Value, error) {
			x, err := xe(m, fr)
			if err != nil {
				return Value{}, err
			}
			y, err := ye(m, fr)
			if err != nil {
				return Value{}, err
			}
			m.charge(intCost)
			return intArithVal(op, pos, x.I, y.I)
		}
	}

	k := e.Typ.Kind
	chX := c.operandCast(e.X, xt, k)
	chY := c.operandCast(e.Y, yt, k)
	var opByte byte
	var chargeOp func(m *vm)
	switch e.Op {
	case ft.PLUS:
		opByte = '+'
	case ft.MINUS:
		opByte = '-'
	case ft.STAR:
		opByte = '*'
	case ft.SLASH:
		opByte = '/'
	case ft.POW:
		opByte = '^'
	default:
		err := &RunError{Pos: e.Pos, Kind: FailInternal,
			Msg: fmt.Sprintf("unknown binary op %v", e.Op)}
		return func(m *vm, fr *vframe) (Value, error) {
			if _, e1 := xe(m, fr); e1 != nil {
				return Value{}, e1
			}
			if _, e2 := ye(m, fr); e2 != nil {
				return Value{}, e2
			}
			if chX != nil {
				chX(m)
			}
			if chY != nil {
				chY(m)
			}
			return Value{}, err
		}
	}
	switch e.Op {
	case ft.PLUS, ft.MINUS:
		cost := c.cost(perfmodel.OpAddSub, k)
		chargeOp = func(m *vm) { m.charge(cost) }
	case ft.STAR:
		cost := c.cost(perfmodel.OpMul, k)
		chargeOp = func(m *vm) { m.charge(cost) }
	case ft.SLASH:
		cost := c.cost(perfmodel.OpDiv, k)
		chargeOp = func(m *vm) { m.charge(cost) }
	case ft.POW:
		// x**n with a small constant integer exponent lowers to
		// multiplies; anything else is a pow call.
		if lit, ok := e.Y.(*ft.IntLit); ok && lit.Val >= 0 && lit.Val <= 4 {
			costN := c.cost(perfmodel.OpMul, k) * float64(max64(lit.Val-1, 1))
			chargeOp = func(m *vm) { m.charge(costN) }
		} else {
			cost := c.cost(perfmodel.OpPow, k)
			chargeOp = func(m *vm) { m.charge(cost) }
		}
	}
	// prim computes the primary-lane result at kind k.
	var prim func(xf, yf float64, y Value) float64
	isPow := e.Op == ft.POW
	powInt := isPow && yt.Base == ft.TInteger
	if isPow {
		ytt := yt
		kk := k
		prim = func(xf, yf float64, y Value) float64 { return powReal(kk, ytt, xf, yf, y.I) }
	} else if k == 4 {
		switch e.Op {
		case ft.PLUS:
			prim = func(xf, yf float64, y Value) float64 { return float64(float32(xf) + float32(yf)) }
		case ft.MINUS:
			prim = func(xf, yf float64, y Value) float64 { return float64(float32(xf) - float32(yf)) }
		case ft.STAR:
			prim = func(xf, yf float64, y Value) float64 { return float64(float32(xf) * float32(yf)) }
		default:
			prim = func(xf, yf float64, y Value) float64 { return float64(float32(xf) / float32(yf)) }
		}
	} else {
		switch e.Op {
		case ft.PLUS:
			prim = func(xf, yf float64, y Value) float64 { return xf + yf }
		case ft.MINUS:
			prim = func(xf, yf float64, y Value) float64 { return xf - yf }
		case ft.STAR:
			prim = func(xf, yf float64, y Value) float64 { return xf * yf }
		default:
			prim = func(xf, yf float64, y Value) float64 { return xf / yf }
		}
	}
	kk := k
	ob := opByte
	rs := c.rsite(e.Pos.Line)
	return func(m *vm, fr *vframe) (Value, error) {
		x, err := xe(m, fr)
		if err != nil {
			return Value{}, err
		}
		y, err := ye(m, fr)
		if err != nil {
			return Value{}, err
		}
		if chX != nil {
			chX(m)
		}
		if chY != nil {
			chY(m)
		}
		chargeOp(m)
		xf, yf := convertReal(x.asFloat(), kk), convertReal(y.asFloat(), kk)
		r := prim(xf, yf, y)
		v := Value{Base: ft.TReal, Kind: kk, F: r, Sh: r}
		if m.rec != nil {
			xs, ys := x.sh(), y.sh()
			yp := yf
			if powInt {
				// The integer-exponent path bypasses yf.
				yp = float64(y.I)
			}
			exact := binOp64(ob, xf, yp)
			v.Sh = binOp64(ob, xs, ys)
			rs.op(m, ob, xf, yp, xs, ys, r, exact, v.Sh)
		}
		return v, nil
	}
}

// Intrinsics ----------------------------------------------------------------

// arrArg is an intrinsic's compiled array argument, which must be a
// whole allocated array.
type arrArg struct {
	at   slotRef
	err  error // set when the argument is not a whole array
	pos  ft.Pos
	name string
}

// argArray compiles e as an array argument; notWhole is the error of an
// e that is not a whole array variable.
func argArray(e ft.Expr, notWhole string) arrArg {
	ref, ok := e.(*ft.VarRef)
	if !ok || ref.Decl == nil {
		return arrArg{err: &RunError{Pos: e.ExprPos(), Kind: FailInternal, Msg: notWhole}}
	}
	return arrArg{at: slotOf(ref.Decl), pos: e.ExprPos(), name: ref.Name}
}

const notWholeArray = "intrinsic array argument must be a whole array"

func (a *arrArg) get(m *vm, fr *vframe) (*Array, error) {
	if a.err != nil {
		return nil, a.err
	}
	arr := a.at.arr(m, fr)
	if arr == nil {
		return nil, notAllocated(a.pos, a.name)
	}
	return arr, nil
}

// unIntrinsic compiles the one-real-argument intrinsic pattern.
func (c *compiler) unIntrinsic(e *ft.CallExpr, kind int, cls perfmodel.OpClass, fn func(float64) float64) vexpr {
	a0 := c.expr(e.Args[0])
	cost := c.cost(cls, kind)
	name := e.Intrinsic
	rs := c.rsite(e.Pos.Line)
	kk := kind
	return func(m *vm, fr *vframe) (Value, error) {
		x0, err := a0(m, fr)
		if err != nil {
			return Value{}, err
		}
		m.charge(cost)
		x := x0.asFloat()
		v := realValue(fn(x), kk)
		if m.rec != nil {
			v.Sh = fn(x0.sh())
			rs.intrinsic(m, name, x, v.F, fn(x), v.Sh)
		}
		return v, nil
	}
}

func (c *compiler) intrinsic(e *ft.CallExpr) vexpr {
	name := e.Intrinsic
	kind := e.Typ.Kind
	if e.Typ.Base != ft.TReal {
		kind = 4
	}
	pos := e.Pos

	// Array-argument intrinsics first (they must not evaluate the array
	// as a scalar expression).
	switch name {
	case "size":
		a0 := argArray(e.Args[0], notWholeArray)
		if len(e.Args) == 2 {
			dE := c.expr(e.Args[1])
			return func(m *vm, fr *vframe) (Value, error) {
				arr, err := a0.get(m, fr)
				if err != nil {
					return Value{}, err
				}
				dv, err := dE(m, fr)
				if err != nil {
					return Value{}, err
				}
				d := int(dv.asInt())
				if d < 1 || d > len(arr.Ext) {
					return Value{}, &RunError{Pos: pos, Kind: FailBounds,
						Msg: fmt.Sprintf("size dim %d out of range 1..%d", d, len(arr.Ext))}
				}
				return intValue(int64(arr.Ext[d-1])), nil
			}
		}
		return func(m *vm, fr *vframe) (Value, error) {
			arr, err := a0.get(m, fr)
			if err != nil {
				return Value{}, err
			}
			return intValue(int64(arr.Size())), nil
		}
	case "sum", "minval", "maxval":
		a0 := argArray(e.Args[0], notWholeArray)
		rs := c.rsite(pos.Line)
		nm := name
		return func(m *vm, fr *vframe) (Value, error) {
			arr, err := a0.get(m, fr)
			if err != nil {
				return Value{}, err
			}
			return m.reduce(nm, arr, rs)
		}
	case "dot_product":
		aG := argArray(e.Args[0], notWholeArray)
		bG := argArray(e.Args[1], notWholeArray)
		rs := c.rsite(pos.Line)
		kk := e.Typ.Kind
		return func(m *vm, fr *vframe) (Value, error) {
			a, err := aG.get(m, fr)
			if err != nil {
				return Value{}, err
			}
			b, err := bG.get(m, fr)
			if err != nil {
				return Value{}, err
			}
			return m.dot(a, b, kk, pos, rs)
		}
	}

	switch name {
	case "abs":
		if e.Typ.Base == ft.TInteger {
			a0 := c.expr(e.Args[0])
			cost := c.cost(perfmodel.OpIntALU, 4)
			return func(m *vm, fr *vframe) (Value, error) {
				x, err := a0(m, fr)
				if err != nil {
					return Value{}, err
				}
				m.charge(cost)
				v := x.I
				if v < 0 {
					v = -v
				}
				return intValue(v), nil
			}
		}
		return c.unIntrinsic(e, kind, perfmodel.OpSimple, math.Abs)
	case "sqrt":
		return c.unIntrinsic(e, kind, perfmodel.OpSqrt, math.Sqrt)
	case "exp":
		return c.unIntrinsic(e, kind, perfmodel.OpTrans, math.Exp)
	case "log":
		return c.unIntrinsic(e, kind, perfmodel.OpTrans, math.Log)
	case "log10":
		return c.unIntrinsic(e, kind, perfmodel.OpTrans, math.Log10)
	case "sin":
		return c.unIntrinsic(e, kind, perfmodel.OpTrans, math.Sin)
	case "cos":
		return c.unIntrinsic(e, kind, perfmodel.OpTrans, math.Cos)
	case "tan":
		return c.unIntrinsic(e, kind, perfmodel.OpTrans, math.Tan)
	case "asin":
		return c.unIntrinsic(e, kind, perfmodel.OpTrans, math.Asin)
	case "acos":
		return c.unIntrinsic(e, kind, perfmodel.OpTrans, math.Acos)
	case "atan":
		return c.unIntrinsic(e, kind, perfmodel.OpTrans, math.Atan)
	case "sinh":
		return c.unIntrinsic(e, kind, perfmodel.OpTrans, math.Sinh)
	case "cosh":
		return c.unIntrinsic(e, kind, perfmodel.OpTrans, math.Cosh)
	case "tanh":
		return c.unIntrinsic(e, kind, perfmodel.OpTrans, math.Tanh)
	case "aint":
		return c.unIntrinsic(e, kind, perfmodel.OpSimple, math.Trunc)
	case "anint":
		return c.unIntrinsic(e, kind, perfmodel.OpSimple, math.Round)
	case "atan2":
		a0, a1 := c.expr(e.Args[0]), c.expr(e.Args[1])
		cost := c.cost(perfmodel.OpTrans, kind)
		rs := c.rsite(pos.Line)
		kk := kind
		return func(m *vm, fr *vframe) (Value, error) {
			x0, err := a0(m, fr)
			if err != nil {
				return Value{}, err
			}
			x1, err := a1(m, fr)
			if err != nil {
				return Value{}, err
			}
			m.charge(cost)
			xf := math.Atan2(x0.asFloat(), x1.asFloat())
			v := realValue(xf, kk)
			if m.rec != nil {
				v.Sh = math.Atan2(x0.sh(), x1.sh())
				rs.intrinsic(m, "atan2", x0.asFloat(), v.F, xf, v.Sh)
			}
			return v, nil
		}
	case "sign":
		a0, a1 := c.expr(e.Args[0]), c.expr(e.Args[1])
		cost := c.cost(perfmodel.OpSimple, kind)
		isInt := e.Typ.Base == ft.TInteger
		kk := kind
		return func(m *vm, fr *vframe) (Value, error) {
			x0, err := a0(m, fr)
			if err != nil {
				return Value{}, err
			}
			x1, err := a1(m, fr)
			if err != nil {
				return Value{}, err
			}
			m.charge(cost)
			if isInt {
				mg := x0.I
				if mg < 0 {
					mg = -mg
				}
				if x1.I < 0 {
					mg = -mg
				}
				return intValue(mg), nil
			}
			mg := math.Abs(x0.asFloat())
			if math.Signbit(x1.asFloat()) {
				mg = -mg
			}
			v := realValue(mg, kk)
			if m.rec != nil {
				// The shadow magnitude follows the primary lane's sign
				// decision; a lane disagreement on the sign argument shows
				// up as divergence downstream.
				ms := math.Abs(x0.sh())
				if math.Signbit(x1.asFloat()) {
					ms = -ms
				}
				v.Sh = ms
			}
			return v, nil
		}
	case "mod":
		a0, a1 := c.expr(e.Args[0]), c.expr(e.Args[1])
		if e.Typ.Base == ft.TInteger {
			cost := c.cost(perfmodel.OpIntALU, 4)
			return func(m *vm, fr *vframe) (Value, error) {
				x0, err := a0(m, fr)
				if err != nil {
					return Value{}, err
				}
				x1, err := a1(m, fr)
				if err != nil {
					return Value{}, err
				}
				m.charge(cost)
				if x1.I == 0 {
					return Value{}, &RunError{Pos: pos, Kind: FailNonFinite, Msg: "mod by zero"}
				}
				return intValue(x0.I % x1.I), nil
			}
		}
		cost := c.cost(perfmodel.OpDiv, kind)
		rs := c.rsite(pos.Line)
		kk := kind
		return func(m *vm, fr *vframe) (Value, error) {
			x0, err := a0(m, fr)
			if err != nil {
				return Value{}, err
			}
			x1, err := a1(m, fr)
			if err != nil {
				return Value{}, err
			}
			m.charge(cost)
			mf := math.Mod(x0.asFloat(), x1.asFloat())
			v := realValue(mf, kk)
			if m.rec != nil {
				v.Sh = math.Mod(x0.sh(), x1.sh())
				rs.intrinsic(m, "mod", x0.asFloat(), v.F, mf, v.Sh)
			}
			return v, nil
		}
	case "min", "max":
		argEs := make([]vexpr, len(e.Args))
		for k, a := range e.Args {
			argEs[k] = c.expr(a)
		}
		costN := c.cost(perfmodel.OpSimple, kind) * float64(len(argEs)-1)
		isMin := name == "min"
		isInt := e.Typ.Base == ft.TInteger
		kk := kind
		return func(m *vm, fr *vframe) (Value, error) {
			var buf [8]Value
			var argv []Value
			if len(argEs) <= len(buf) {
				argv = buf[:len(argEs)]
			} else {
				argv = make([]Value, len(argEs))
			}
			for k, ae := range argEs {
				v, err := ae(m, fr)
				if err != nil {
					return Value{}, err
				}
				argv[k] = v
			}
			m.charge(costN)
			if isInt {
				best := argv[0].I
				for _, v := range argv[1:] {
					if isMin && v.I < best || !isMin && v.I > best {
						best = v.I
					}
				}
				return intValue(best), nil
			}
			best := argv[0].asFloat()
			for _, v := range argv[1:] {
				f := v.asFloat()
				if isMin {
					best = math.Min(best, f)
				} else {
					best = math.Max(best, f)
				}
			}
			v := realValue(best, kk)
			if m.rec != nil {
				sh := argv[0].sh()
				for _, a := range argv[1:] {
					if isMin {
						sh = math.Min(sh, a.sh())
					} else {
						sh = math.Max(sh, a.sh())
					}
				}
				v.Sh = sh
			}
			return v, nil
		}
	case "int", "nint", "floor":
		var fn func(float64) float64
		switch name {
		case "int":
			fn = math.Trunc
		case "nint":
			fn = math.Round
		default:
			fn = math.Floor
		}
		a0 := c.expr(e.Args[0])
		cost := c.cost(perfmodel.OpConv, 4)
		rs := c.rsite(pos.Line)
		return func(m *vm, fr *vframe) (Value, error) {
			x, err := a0(m, fr)
			if err != nil {
				return Value{}, err
			}
			m.charge(cost)
			p := int64(fn(x.asFloat()))
			if m.rec != nil {
				rs.discretize(m, p, int64(fn(x.sh())))
			}
			return intValue(p), nil
		}
	case "real", "dble":
		// Explicit conversions are real work unless the operand is a
		// literal or already of the target kind.
		a0 := c.expr(e.Args[0])
		at := e.Args[0].Type()
		var ch func(m *vm)
		switch {
		case isLiteral(e.Args[0]):
		case at.Base == ft.TInteger:
			conv := c.cost(perfmodel.OpConv, 4)
			ch = func(m *vm) { m.charge(conv) }
		case at.Kind != kind:
			ch = func(m *vm) { m.cast(1) }
		}
		kk := kind
		return func(m *vm, fr *vframe) (Value, error) {
			x, err := a0(m, fr)
			if err != nil {
				return Value{}, err
			}
			if ch != nil {
				ch(m)
			}
			v := realValue(x.asFloat(), kk)
			v.Sh = x.sh()
			return v, nil
		}
	case "epsilon", "huge", "tiny":
		argEs := make([]vexpr, len(e.Args))
		for k, a := range e.Args {
			argEs[k] = c.expr(a)
		}
		var cv Value
		switch name {
		case "epsilon":
			if kind == 4 {
				cv = realValue(float64(nextAfter32(1)), 4)
			} else {
				cv = realValue(math.Nextafter(1, 2)-1, 8)
			}
		case "huge":
			if kind == 4 {
				cv = realValue(math.MaxFloat32, 4)
			} else {
				cv = realValue(math.MaxFloat64, 8)
			}
		default: // tiny
			if kind == 4 {
				cv = realValue(math.SmallestNonzeroFloat32*(1<<23), 4)
			} else {
				cv = realValue(2.2250738585072014e-308, 8)
			}
		}
		return func(m *vm, fr *vframe) (Value, error) {
			for _, ae := range argEs {
				if _, err := ae(m, fr); err != nil {
					return Value{}, err
				}
			}
			return cv, nil
		}
	case "isnan":
		a0 := c.expr(e.Args[0])
		cost := c.cost(perfmodel.OpCmp, 8)
		return func(m *vm, fr *vframe) (Value, error) {
			x, err := a0(m, fr)
			if err != nil {
				return Value{}, err
			}
			m.charge(cost)
			return logicalValue(math.IsNaN(x.asFloat())), nil
		}
	default:
		argEs := make([]vexpr, len(e.Args))
		for k, a := range e.Args {
			argEs[k] = c.expr(a)
		}
		err := &RunError{Pos: pos, Kind: FailInternal,
			Msg: fmt.Sprintf("unknown intrinsic %q", name)}
		return func(m *vm, fr *vframe) (Value, error) {
			for _, ae := range argEs {
				if _, aerr := ae(m, fr); aerr != nil {
					return Value{}, aerr
				}
			}
			return Value{}, err
		}
	}
}

// reduce runs sum/minval/maxval, priced as a vectorized reduction over
// the array's kind. A kind-4 sum accumulates in binary32.
func (m *vm) reduce(name string, arr *Array, rs rsite) (Value, error) {
	n := arr.Size()
	vf := m.model.VecFactor(arr.Kind, false, true)
	m.chargeMemN(m.model.OpCost(perfmodel.OpLoad, arr.Kind), float64(n), vf)
	cls := perfmodel.OpAddSub
	if name != "sum" {
		cls = perfmodel.OpCmp
	}
	m.chargeN(m.model.OpCost(cls, arr.Kind), float64(n), vf)
	if n == 0 {
		if name == "minval" {
			return realValue(math.MaxFloat64, arr.Kind), nil
		}
		if name == "maxval" {
			return realValue(-math.MaxFloat64, arr.Kind), nil
		}
		return realValue(0, arr.Kind), nil
	}
	switch name {
	case "sum":
		if arr.Kind == 4 {
			var s float32
			for _, v := range arr.Data {
				s += float32(v)
			}
			v := realValue(float64(s), 4)
			if m.rec != nil {
				var exact float64
				for _, d := range arr.Data {
					exact += d
				}
				v.Sh = shadowSum(arr, exact)
				rs.intrinsic(m, name, exact, v.F, exact, v.Sh)
			}
			return v, nil
		}
		var s float64
		for _, v := range arr.Data {
			s += v
		}
		v := realValue(s, 8)
		if m.rec != nil {
			v.Sh = shadowSum(arr, s)
			rs.intrinsic(m, name, s, s, s, v.Sh)
		}
		return v, nil
	case "minval":
		best := arr.Data[0]
		for _, v := range arr.Data[1:] {
			best = math.Min(best, v)
		}
		v := realValue(best, arr.Kind)
		if m.rec != nil && arr.Shadow != nil {
			sh := arr.Shadow[0]
			for _, d := range arr.Shadow[1:] {
				sh = math.Min(sh, d)
			}
			v.Sh = sh
		}
		return v, nil
	default: // maxval
		best := arr.Data[0]
		for _, v := range arr.Data[1:] {
			best = math.Max(best, v)
		}
		v := realValue(best, arr.Kind)
		if m.rec != nil && arr.Shadow != nil {
			sh := arr.Shadow[0]
			for _, d := range arr.Shadow[1:] {
				sh = math.Max(sh, d)
			}
			v.Sh = sh
		}
		return v, nil
	}
}

// dot runs dot_product: same-kind inputs run as a vector reduction;
// mixed kinds run scalar with a cast per element.
func (m *vm) dot(a, b *Array, kind int, pos ft.Pos, rs rsite) (Value, error) {
	if a.Size() != b.Size() {
		return Value{}, &RunError{Pos: pos, Kind: FailBounds,
			Msg: fmt.Sprintf("dot_product size mismatch (%d vs %d)", a.Size(), b.Size())}
	}
	n := a.Size()
	if a.Kind == b.Kind {
		vf := m.model.VecFactor(a.Kind, false, true)
		m.chargeMemN(m.model.OpCost(perfmodel.OpLoad, a.Kind), 2*float64(n), vf)
		m.chargeN(m.model.OpCost(perfmodel.OpMul, a.Kind), float64(n), vf)
		m.chargeN(m.model.OpCost(perfmodel.OpAddSub, a.Kind), float64(n), vf)
	} else {
		m.chargeMemN(m.model.OpCost(perfmodel.OpLoad, 8), 2*float64(n), 1)
		m.chargeN(m.model.OpCost(perfmodel.OpMul, 8), float64(n), 1)
		m.chargeN(m.model.OpCost(perfmodel.OpAddSub, 8), float64(n), 1)
		m.cast(int64(n))
	}
	if kind == 4 {
		var s float32
		for k := 0; k < n; k++ {
			s += float32(a.Data[k]) * float32(b.Data[k])
		}
		v := realValue(float64(s), 4)
		if m.rec != nil {
			var exact float64
			for k := 0; k < n; k++ {
				exact += a.Data[k] * b.Data[k]
			}
			v.Sh = shadowDot(a, b, exact)
			rs.intrinsic(m, "dot_product", exact, v.F, exact, v.Sh)
		}
		return v, nil
	}
	var s float64
	for k := 0; k < n; k++ {
		s += a.Data[k] * b.Data[k]
	}
	v := realValue(s, 8)
	if m.rec != nil {
		v.Sh = shadowDot(a, b, s)
		rs.intrinsic(m, "dot_product", s, s, s, v.Sh)
	}
	return v, nil
}

// Procedure calls -----------------------------------------------------------

// argPlan is the compiled binding strategy for one actual argument.
type argPlan struct {
	slot    int   // the dummy's slot in the callee frame
	missing error // set when the dummy declaration is absent

	// Array dummies bind by reference.
	isArr   bool
	arrBind arrBinding

	// Scalar dummies copy in (and maybe out). Exactly one of val, rval,
	// elem and ival is set: rval is the unboxed form of a real actual
	// bound to a real dummy, with its cast charge decided statically
	// (rcast); elem that of an element actual whose indices all have an
	// inline shape, bound to a real dummy it is copied back into; and
	// ival that of an affine integer actual bound to an integer dummy.
	val       vexpr
	rval      vreals
	elem      *eref
	load      [2]float64 // elem's OpLoad cost by kindIdx
	ival      vint
	rcast     bool
	realDummy bool
	dummyKind int
	lit       bool
	dummyType ft.Type
	dummy     declRef // val's store, and a copy-out's read that converts a Value

	// Copy-out destination, resolved statically where possible.
	wantOut     bool
	required    bool // intent(out)/intent(inout) must have an lvalue
	intentErr   error
	outScalar   *ft.VarDecl
	outType     ft.Type
	hasOutStore bool
	outStore    declRef
	outName     string
	outElem     *eref
	// outSlot/outMod locate a real scalar destination, which is written
	// lane by lane, or an integer one of an integer dummy (intOut),
	// copied slot to slot; outMod < 0 for the caller's locals. outStore
	// (hasOutStore) is set for any other scalar destination.
	outSlot int
	outMod  int
	intOut  bool
}

// outFrame returns the frame that holds the scalar copy-out destination.
func (p *argPlan) outFrame(m *vm, fr *vframe) *vframe {
	if p.outMod >= 0 {
		return m.gl[p.outMod]
	}
	return fr
}

// coRec is one pending scalar copy-out for the current call.
type coRec struct {
	p   *argPlan
	arr *Array // array-element destination (nil for scalars)
	off int
}

// arrBinding is the compiled binding of an array actual to an array
// dummy: by reference, with assumed-shape bounds rebased to 1.
type arrBinding struct {
	arg     arrArg      // the actual, by the rules of an array argument
	dummy   *ft.VarDecl // named by a kind mismatch
	assumed bool
}

func argArrayBind(argExpr ft.Expr, dummy *ft.VarDecl) arrBinding {
	b := arrBinding{arg: argArray(argExpr, "array argument must be a whole array variable"),
		dummy: dummy, assumed: true}
	for _, d := range dummy.Dims {
		if !d.Assumed {
			b.assumed = false
		}
	}
	return b
}

func (b *arrBinding) bind(m *vm, fr *vframe) (*Array, error) {
	arr, err := b.arg.get(m, fr)
	if err != nil {
		return nil, err
	}
	pos, name := b.arg.pos, b.arg.name
	if dKind := b.dummy.Kind; arr.Kind != dKind {
		// Arrays pass by reference; a kind mismatch cannot be patched by
		// a hidden copy. The wrapper generator must have rewritten this
		// call — reaching here means the variant is malformed.
		return nil, &RunError{Pos: pos, Kind: FailInternal,
			Msg: fmt.Sprintf("array kind mismatch passing %s (kind=%d) to %s.%s (kind=%d): wrapper required",
				name, arr.Kind, b.dummy.Proc.QName(), b.dummy.Name, dKind)}
	}
	if b.assumed {
		if len(b.dummy.Dims) != len(arr.Ext) {
			return nil, &RunError{Pos: pos, Kind: FailBounds,
				Msg: fmt.Sprintf("rank mismatch passing %s", name)}
		}
		rebase := false
		for _, lo := range arr.Lo {
			if lo != 1 {
				rebase = true
			}
		}
		if rebase {
			ones := make([]int, len(arr.Ext))
			for k := range ones {
				ones[k] = 1
			}
			return &Array{Kind: arr.Kind, Lo: ones, Ext: arr.Ext,
				Data: arr.Data, Shadow: arr.Shadow}, nil
		}
	}
	return arr, nil
}

// ccall is one compiled user-procedure call, run in four phases: bind
// the arguments, initialize the callee's locals, run its body, copy the
// scalars out. A call not inlined first charges a branch and the call
// overhead, each at the current vector factor. The Value form (invoke)
// and the unboxed real form (realCall) share it and differ only in how
// they read a function's result from the callee frame.
type ccall struct {
	callee   *cproc
	plans    []argPlan
	pos      ft.Pos
	brCost   float64
	callCost float64
	timerOv  float64
	// skipOut: every scalar copy-out would write back the value its dummy
	// was bound with (callFacts.skips), so run queues only those whose
	// bound real would trap under TrapNonFinite.
	skipOut bool
}

// callSite compiles the argument binding plans for a call of proc.
func (c *compiler) callSite(proc *ft.Procedure, args []ft.Expr, pos ft.Pos) *ccall {
	s := c.calls.Put(ccall{
		callee:   c.cp.procs[proc.Index],
		plans:    c.plans.List(len(args)),
		pos:      pos,
		brCost:   c.cost(perfmodel.OpBranch, 4),
		callCost: c.model.CallCycles,
		timerOv:  c.model.TimerOverhead,
		skipOut:  c.facts != nil && c.facts.skips(proc, args),
	})
	for ai, argExpr := range args {
		p := &s.plans[ai]
		var dummy *ft.VarDecl
		if ai < len(proc.ParamDecl) {
			dummy = proc.ParamDecl[ai]
		}
		if dummy == nil {
			p.missing = &RunError{Pos: pos, Kind: FailInternal,
				Msg: fmt.Sprintf("%s: missing dummy decl", s.callee.qname)}
			continue
		}
		p.slot, p.dummy = dummy.Slot, declOf(dummy)
		if dummy.IsArray() {
			p.isArr = true
			p.arrBind = argArrayBind(argExpr, dummy)
			continue
		}
		p.realDummy = dummy.Base == ft.TReal
		p.dummyKind = dummy.Kind
		p.lit = isLiteral(argExpr)
		at := argExpr.Type()
		switch {
		case dummy.Base == ft.TInteger && affineIndex(argExpr) && !c.boxed:
			p.ival = c.intIndex(argExpr)
		case p.realDummy && at.Base == ft.TReal && at.Rank == 0:
			// realExpr forms carry their static kind at run time, so the
			// Value path's dynamic cast test folds to a constant.
			p.rcast = at.Kind != p.dummyKind && !p.lit
			if a, ok := argExpr.(*ft.IndexExpr); ok && dummy.Intent != ft.IntentIn && !c.boxed && shaped(a) {
				p.elem = c.elemRef(a)
				p.load = [2]float64{c.cost(perfmodel.OpLoad, 4), c.cost(perfmodel.OpLoad, 8)}
			} else {
				p.rval = c.realExpr(argExpr)
			}
		}
		if p.rval == nil && p.ival == nil && p.elem == nil {
			p.val = c.expr(argExpr)
			p.dummyType = dummy.Type()
		}
		if dummy.Intent != ft.IntentIn {
			p.wantOut = true
			p.required = dummy.Intent == ft.IntentOut || dummy.Intent == ft.IntentInOut
			if p.required {
				p.intentErr = &RunError{Pos: argExpr.ExprPos(), Kind: FailInternal,
					Msg: fmt.Sprintf("intent(%s) argument is not a variable", dummy.Intent)}
			}
			switch a := argExpr.(type) {
			case *ft.VarRef:
				if a.Decl != nil && !a.Decl.IsParam {
					p.outScalar = a.Decl
					p.outType = a.Decl.Type()
					p.outName = a.Decl.Name
					p.intOut = p.outType.Base == ft.TInteger && dummy.Base == ft.TInteger && !c.boxed
					if p.outType.Base == ft.TReal || p.intOut {
						p.outSlot, p.outMod = a.Decl.Slot, -1
						if a.Decl.Proc == nil {
							p.outMod = a.Decl.InMod.Index
						}
					} else {
						p.hasOutStore, p.outStore = true, declOf(a.Decl)
					}
				}
			case *ft.IndexExpr:
				if p.elem == nil {
					p.outElem = c.elemRef(a)
				}
			}
		}
	}
	return s
}

// call runs the call and returns the callee's activation frame still
// live: the caller reads the result from it and then puts it back. On
// an error the frame is already back in the pool.
func (s *ccall) call(m *vm, fr *vframe) (*vframe, error) {
	if m.depth >= maxCallDepth {
		return nil, &RunError{Pos: s.pos, Kind: FailInternal,
			Msg: fmt.Sprintf("call stack exceeds %d frames", maxCallDepth)}
	}
	callee := s.callee
	if !callee.inlined {
		m.charge(s.brCost)
		m.cycles += s.callCost * m.vecFactor
	}
	cf := callee.frame(m.pool)
	if err := s.run(m, fr, cf); err != nil {
		callee.put(cf)
		return nil, err
	}
	return cf, nil
}

// run binds the arguments into cf, initializes the callee's locals, runs
// its body inside its GPTL region and copies the scalars out.
func (s *ccall) run(m *vm, fr, cf *vframe) error {
	callee := s.callee

	// Phase 1: bind arguments. Pending copy-outs live in the callee
	// activation's own storage, sized for its copy-out dummies.
	copyOuts := cf.co[:0]
	for k := range s.plans {
		p := &s.plans[k]
		if p.missing != nil {
			return p.missing
		}
		if p.isArr {
			arr, err := p.arrBind.bind(m, fr)
			if err != nil {
				return err
			}
			cf.a[p.slot] = arr
			continue
		}
		switch {
		case p.ival != nil:
			cf.i[p.slot] = p.ival(m, fr)
		case p.elem != nil:
			// Read the element and queue its copy-out from one resolve.
			// Nothing runs between the read and the copy-out's resolve that
			// could move the element, so the second resolve would find the
			// same array and offset; recharge charges what it would have.
			arr, off, err := p.elem.resolve(m, fr)
			if err != nil {
				return err
			}
			m.chargeMem(p.load[kindIdx(arr.Kind)])
			f, sh := arr.Data[off], arr.Data[off]
			if arr.Shadow != nil {
				sh = arr.Shadow[off]
			}
			if p.rcast {
				m.cast(1)
			}
			cf.f[p.slot] = convertReal(f, p.dummyKind)
			if cf.sh != nil {
				cf.sh[p.slot] = sh
			}
			p.elem.recharge(m)
			// A skipped element copy-out never needs queuing for its trap:
			// every store into an array traps a non-finite value, so under
			// TrapNonFinite no element holds one.
			if !s.skipOut {
				copyOuts = append(copyOuts, coRec{p: p, arr: arr, off: off})
			}
			continue
		case p.rval != nil:
			f, sh, err := p.rval(m, fr)
			if err != nil {
				return err
			}
			if p.rcast {
				m.cast(1)
			}
			cf.f[p.slot] = convertReal(f, p.dummyKind)
			if cf.sh != nil {
				cf.sh[p.slot] = sh
			}
		default:
			v, err := p.val(m, fr)
			if err != nil {
				return err
			}
			if p.realDummy && v.Base == ft.TReal && v.Kind != p.dummyKind && !p.lit {
				// Post-wrapper programs never reach here with a mismatch; it
				// is still priced correctly for raw (pre-transform) programs.
				m.cast(1)
			}
			p.dummy.store(m, cf, convertScalar(v, p.dummyType))
		}
		if p.wantOut {
			// A skipped copy-out still resolves its element (for the
			// charges and the intent error), and is queued when its bound
			// real would trap, so the copy-out phase fails as it would.
			queue := !s.skipOut || p.realDummy && m.trap && nonFinite(cf.f[p.slot])
			switch {
			case p.outScalar != nil:
				if queue {
					copyOuts = append(copyOuts, coRec{p: p})
				}
			case p.outElem != nil:
				arr, off, err := p.outElem.resolve(m, fr)
				if err == nil {
					if queue {
						copyOuts = append(copyOuts, coRec{p: p, arr: arr, off: off})
					}
				} else if p.required {
					return p.intentErr
				}
			case p.required:
				return p.intentErr
			}
		}
	}

	// Phase 2: initialize non-argument locals (may use argument values).
	for _, init := range callee.inits {
		if err := init(m, cf); err != nil {
			return err
		}
	}

	// Phase 3: execute, inside the callee's GPTL region. Its handle is
	// looked up on the procedure's first call, so a procedure that never
	// runs gets no region. A call not inlined charges TimerOverhead
	// before the region starts and again after it stops.
	var region *gptl.Region
	if m.timers != nil {
		if !callee.inlined {
			m.cycles += s.timerOv
		}
		idx := callee.proc.Index
		if region = m.regions[idx]; region == nil {
			region = m.timers.Lookup(callee.qname)
			m.regions[idx] = region
		}
		m.timers.StartRegion(region)
	}
	m.depth++
	m.curProc = append(m.curProc, callee)
	_, err := m.runStmts(cf, callee.body)
	m.curProc = m.curProc[:len(m.curProc)-1]
	m.depth--
	if m.timers != nil {
		// StopRegion reads the clock before the stop-event overhead is
		// charged, so the instrumentation cost lands in the caller, not
		// inside the measured region.
		if terr := m.timers.StopRegion(region); terr != nil && err == nil {
			err = &RunError{Pos: s.pos, Kind: FailInternal, Msg: terr.Error()}
		}
		if !callee.inlined {
			m.cycles += s.timerOv
		}
	}
	if err != nil {
		return err
	}

	// Phase 4: scalar copy-out. A logical destination converts through
	// the dummy's Value. An integer dummy copies slot to slot into an
	// integer scalar. A real destination is written lane by lane, and a
	// real dummy's lanes are read directly.
	for _, co := range copyOuts {
		p := co.p
		if p.hasOutStore {
			p.outStore.store(m, fr, convertScalar(p.dummy.read(m, cf), p.outType))
			continue
		}
		if p.intOut {
			p.outFrame(m, fr).i[p.outSlot] = cf.i[p.slot]
			continue
		}
		var f, sh float64
		if p.realDummy {
			f = cf.f[p.slot]
			sh = f
			if cf.sh != nil {
				sh = cf.sh[p.slot]
			}
		} else {
			v := p.dummy.read(m, cf)
			f, sh = v.asFloat(), v.sh()
		}
		if p.outScalar != nil {
			fs := convertReal(f, p.outType.Kind)
			if m.trap && nonFinite(fs) {
				return &RunError{Pos: s.pos, Kind: FailNonFinite,
					Msg: fmt.Sprintf("non-finite value returned into %s", p.outName)}
			}
			g := p.outFrame(m, fr)
			g.f[p.outSlot] = fs
			if g.sh != nil {
				g.sh[p.outSlot] = sh
			}
			continue
		}
		fs := convertReal(f, co.arr.Kind)
		if m.trap && nonFinite(fs) {
			return &RunError{Pos: s.pos, Kind: FailNonFinite,
				Msg: "non-finite value returned into array element"}
		}
		co.arr.Data[co.off] = fs
		if co.arr.Shadow != nil {
			co.arr.Shadow[co.off] = sh
		}
	}
	return nil
}

// invoke compiles a user-procedure call to its Value form: arrays by
// reference, scalars by copy-in/copy-out (ccall), and a function's
// result read through its declRef.
func (c *compiler) invoke(proc *ft.Procedure, args []ft.Expr, pos ft.Pos) vexpr {
	s := c.callSite(proc, args, pos)
	callee := s.callee
	var noResult error // a subroutine call yields the empty Value
	if proc.Kind == ft.KFunction {
		if proc.Result != nil {
			result := declOf(proc.Result)
			return func(m *vm, fr *vframe) (Value, error) {
				cf, err := s.call(m, fr)
				if err != nil {
					return Value{}, err
				}
				v := result.read(m, cf)
				callee.put(cf)
				return v, nil
			}
		}
		noResult = &RunError{Pos: pos, Kind: FailInternal,
			Msg: fmt.Sprintf("%s has no result", callee.qname)}
	}
	return func(m *vm, fr *vframe) (Value, error) {
		cf, err := s.call(m, fr)
		if err != nil {
			return Value{}, err
		}
		callee.put(cf)
		return Value{}, noResult
	}
}

// Statements ----------------------------------------------------------------

// errStmt compiles to a statement that fails after the usual budget
// check, so the failing statement still counts a step and a budget
// timeout still takes precedence.
func errStmt(pos ft.Pos, err error) vstmt {
	return func(m *vm, fr *vframe) (control, error) {
		if berr := m.checkBudget(pos); berr != nil {
			return ctlNone, berr
		}
		return ctlNone, err
	}
}

func (c *compiler) stmts(list []ft.Stmt) []vstmt {
	out := c.lists.List(len(list))
	for k, s := range list {
		out[k] = c.stmt(s)
	}
	return out
}

// stmt compiles one statement. Every compiled statement begins with a
// budget check (vm.checkBudget), which also counts the step.
func (c *compiler) stmt(s ft.Stmt) vstmt {
	pos := s.StmtPos()
	switch s := s.(type) {
	case *ft.AssignStmt:
		return c.assign(s)
	case *ft.IfStmt:
		brCost := c.cost(perfmodel.OpBranch, 4)
		cond := c.cond(s.Cond)
		then := c.stmts(s.Then)
		els := c.stmts(s.Else)
		return func(m *vm, fr *vframe) (control, error) {
			if err := m.checkBudget(pos); err != nil {
				return ctlNone, err
			}
			m.charge(brCost)
			b, err := cond(m, fr)
			if err != nil {
				return ctlNone, err
			}
			if b {
				return m.runStmts(fr, then)
			}
			return m.runStmts(fr, els)
		}
	case *ft.DoStmt:
		return c.doStmt(s)
	case *ft.DoWhileStmt:
		return c.doWhile(s)
	case *ft.CallStmt:
		return c.callStmt(s)
	case *ft.ReturnStmt:
		return func(m *vm, fr *vframe) (control, error) {
			if err := m.checkBudget(pos); err != nil {
				return ctlNone, err
			}
			return ctlReturn, nil
		}
	case *ft.ExitStmt:
		return func(m *vm, fr *vframe) (control, error) {
			if err := m.checkBudget(pos); err != nil {
				return ctlNone, err
			}
			return ctlExit, nil
		}
	case *ft.CycleStmt:
		return func(m *vm, fr *vframe) (control, error) {
			if err := m.checkBudget(pos); err != nil {
				return ctlNone, err
			}
			return ctlCycle, nil
		}
	case *ft.StopStmt:
		if s.Code == nil {
			return errStmt(pos, &RunError{Pos: s.Pos, Kind: FailStop, Msg: "stop"})
		}
		code := c.expr(s.Code)
		return func(m *vm, fr *vframe) (control, error) {
			if err := m.checkBudget(pos); err != nil {
				return ctlNone, err
			}
			v, err := code(m, fr)
			if err != nil {
				return ctlNone, err
			}
			return ctlNone, &RunError{Pos: s.Pos, Kind: FailStop,
				Msg: fmt.Sprintf("stop %s", v)}
		}
	case *ft.PrintStmt:
		argEs := make([]vexpr, len(s.Args))
		for k, a := range s.Args {
			argEs[k] = c.expr(a)
		}
		return func(m *vm, fr *vframe) (control, error) {
			if err := m.checkBudget(pos); err != nil {
				return ctlNone, err
			}
			if m.stdout != nil {
				for k, ae := range argEs {
					v, err := ae(m, fr)
					if err != nil {
						return ctlNone, err
					}
					if k > 0 {
						fmt.Fprint(m.stdout, " ")
					}
					fmt.Fprint(m.stdout, v.String())
				}
				fmt.Fprintln(m.stdout)
				return ctlNone, nil
			}
			// PRINT arguments may have side effects; evaluate regardless.
			for _, ae := range argEs {
				if _, err := ae(m, fr); err != nil {
					return ctlNone, err
				}
			}
			return ctlNone, nil
		}
	default:
		return errStmt(pos, &RunError{Pos: pos, Kind: FailInternal,
			Msg: fmt.Sprintf("unknown statement %T", s)})
	}
}

func (c *compiler) doStmt(s *ft.DoStmt) vstmt {
	pos := s.Pos
	from := c.expr(s.From)
	to := c.expr(s.To)
	var stepE vexpr
	if s.Step != nil {
		stepE = c.expr(s.Step)
	}
	dec := c.an.Loop(s)
	vec := dec.Vectorized
	factor := dec.Factor
	body := c.stmts(s.Body)
	loopVar := slotOf(s.Var.Decl)
	iterCost := c.cost(perfmodel.OpLoopIter, 4)
	return func(m *vm, fr *vframe) (control, error) {
		if err := m.checkBudget(pos); err != nil {
			return ctlNone, err
		}
		fromV, err := from(m, fr)
		if err != nil {
			return ctlNone, err
		}
		toV, err := to(m, fr)
		if err != nil {
			return ctlNone, err
		}
		step := int64(1)
		if stepE != nil {
			sv, err := stepE(m, fr)
			if err != nil {
				return ctlNone, err
			}
			step = sv.asInt()
			if step == 0 {
				return ctlNone, &RunError{Pos: pos, Kind: FailInternal, Msg: "DO step is zero"}
			}
		}
		lo := fromV.asInt()
		last, ok := lastTrip(lo, toV.asInt(), step)
		if !ok {
			return ctlNone, nil
		}
		// Vectorization: enter the discounted pricing regime for the body.
		saved := m.vecFactor
		if vec {
			m.vecFactor = factor
		}
		// The variable keeps the value of the last trip: v advances only
		// between trips, so it never steps past the bounds.
		for v, k := lo, uint64(0); ; v, k = v+step, k+1 {
			loopVar.setInt(m, fr, v)
			m.charge(iterCost)
			if err := m.checkBudget(pos); err != nil {
				m.vecFactor = saved
				return ctlNone, err
			}
			ctl, err := m.runStmts(fr, body)
			if err != nil {
				m.vecFactor = saved
				return ctlNone, err
			}
			switch ctl {
			case ctlExit:
				m.vecFactor = saved
				return ctlNone, nil
			case ctlReturn:
				m.vecFactor = saved
				return ctlReturn, nil
			}
			if k == last {
				break
			}
		}
		m.vecFactor = saved
		return ctlNone, nil
	}
}

// lastTrip counts the trips of do v = lo, hi, step once, as Fortran
// does: max((hi - lo + step) / step, 0). It returns the index of the
// last trip (trips - 1), or false for none. The count is taken in
// unsigned arithmetic, so it cannot overflow: lo = MinInt64, hi =
// MaxInt64, step 1 is 2^64 trips, whose last has index MaxUint64.
func lastTrip(lo, hi, step int64) (uint64, bool) {
	switch {
	case step > 0 && lo <= hi:
		return (uint64(hi) - uint64(lo)) / uint64(step), true
	case step < 0 && lo >= hi:
		// -step wraps for MinInt64, and uint64 reads it as 2^63.
		return (uint64(lo) - uint64(hi)) / uint64(-step), true
	}
	return 0, false
}

func (c *compiler) doWhile(s *ft.DoWhileStmt) vstmt {
	pos := s.Pos
	brCost := c.cost(perfmodel.OpBranch, 4)
	cond := c.cond(s.Cond)
	body := c.stmts(s.Body)
	return func(m *vm, fr *vframe) (control, error) {
		// The statement-entry check first, as for every statement, then
		// one per loop-top test.
		if err := m.checkBudget(pos); err != nil {
			return ctlNone, err
		}
		for {
			if err := m.checkBudget(pos); err != nil {
				return ctlNone, err
			}
			m.charge(brCost)
			b, err := cond(m, fr)
			if err != nil {
				return ctlNone, err
			}
			if !b {
				return ctlNone, nil
			}
			ctl, err := m.runStmts(fr, body)
			if err != nil {
				return ctlNone, err
			}
			switch ctl {
			case ctlExit:
				return ctlNone, nil
			case ctlReturn:
				return ctlReturn, nil
			}
		}
	}
}

func (c *compiler) callStmt(s *ft.CallStmt) vstmt {
	pos := s.Pos
	if s.Intrinsic != "" {
		switch s.Intrinsic {
		case "mpi_allreduce_sum", "mpi_allreduce_max":
			// Numerically the identity (the simulation is the full global
			// domain on one logical rank) but priced as a full collective:
			// latency plus log2(ranks) hops, never vectorized.
			arg := c.expr(s.Args[0])
			arCost := c.model.AllreduceCost()
			return func(m *vm, fr *vframe) (control, error) {
				if err := m.checkBudget(pos); err != nil {
					return ctlNone, err
				}
				if _, err := arg(m, fr); err != nil {
					return ctlNone, err
				}
				m.cycles += arCost
				return ctlNone, nil
			}
		default:
			return errStmt(pos, &RunError{Pos: pos, Kind: FailInternal,
				Msg: fmt.Sprintf("unknown intrinsic subroutine %q", s.Intrinsic)})
		}
	}
	if s.Proc == nil {
		return errStmt(pos, &RunError{Pos: pos, Kind: FailInternal,
			Msg: fmt.Sprintf("unresolved call to %q", s.Name)})
	}
	inv := c.invoke(s.Proc, s.Args, pos)
	return func(m *vm, fr *vframe) (control, error) {
		if err := m.checkBudget(pos); err != nil {
			return ctlNone, err
		}
		_, err := inv(m, fr)
		return ctlNone, err
	}
}

// assign compiles scalar and whole-array assignment. A scalar
// assignment pushes its target atom for the recorder, evaluates the
// right-hand side, charges the store's conversion (OpConv between
// integer and real, a cast between real kinds unless the right-hand
// side is a literal), then converts and stores, trapping non-finite
// reals when TrapNonFinite is set.
func (c *compiler) assign(s *ft.AssignStmt) vstmt {
	lt := s.LHS.Type()
	if lt.Rank > 0 {
		return c.arrayAssign(s)
	}
	pos := s.Pos
	atom := c.assignAtom(s.LHS, lt)
	rt := s.RHS.Type()

	// Conversion cost for the store (static decision).
	var chConv func(m *vm)
	if lt.Base == ft.TReal {
		switch {
		case rt.Base == ft.TInteger:
			conv := c.cost(perfmodel.OpConv, 4)
			chConv = func(m *vm) { m.charge(conv) }
		case rt.Base == ft.TReal && rt.Kind != lt.Kind && !isLiteral(s.RHS):
			chConv = func(m *vm) { m.cast(1) }
		}
	} else if lt.Base == ft.TInteger && rt.Base == ft.TReal {
		conv := c.cost(perfmodel.OpConv, 4)
		chConv = func(m *vm) { m.charge(conv) }
	}

	switch lhs := s.LHS.(type) {
	case *ft.VarRef:
		// Real scalar target with an unboxed-compilable RHS: take the
		// float fast path (compile_real.go). Bit-identical by contract.
		if lt.Base == ft.TReal && lhs.Decl != nil && !lhs.Decl.IsArray() {
			if n, rv := c.realRHS(s.RHS); n != nil || rv != nil {
				return c.realAssignVar(s, lhs.Decl, lhs.Name, n, rv, chConv, atom)
			}
		}
		if lt.Base == ft.TInteger && lhs.Decl != nil && !lhs.Decl.IsArray() && !c.boxed && affineIndex(s.RHS) {
			return c.intAssignVar(s, lhs.Decl, atom)
		}
		rhs := c.expr(s.RHS)
		st := declOf(lhs.Decl)
		as := c.asite(pos.Line, atom)
		isReal := lt.Base == ft.TReal
		name := lhs.Name
		ltt := lt
		return func(m *vm, fr *vframe) (control, error) {
			if err := m.checkBudget(pos); err != nil {
				return ctlNone, err
			}
			m.rec.PushTarget(atom)
			rv, err := rhs(m, fr)
			if err != nil {
				m.rec.PopTarget()
				return ctlNone, err
			}
			if chConv != nil {
				chConv(m)
			}
			v := convertScalar(rv, ltt)
			if m.rec != nil && isReal {
				as.assign(m, v.F, v.Sh, rv.asFloat())
			}
			if m.trap && isReal && nonFinite(v.F) {
				m.rec.PopTarget()
				return ctlNone, &RunError{Pos: pos, Kind: FailNonFinite,
					Msg: fmt.Sprintf("assigning non-finite value to %s", name)}
			}
			st.store(m, fr, v)
			m.rec.PopTarget()
			return ctlNone, nil
		}
	case *ft.IndexExpr:
		if n, rv := c.realRHS(s.RHS); n != nil || rv != nil {
			return c.realAssignElem(s, lhs, n, rv, chConv, atom)
		}
		rhs := c.expr(s.RHS)
		er := c.elemRef(lhs)
		storeCost := [2]float64{c.cost(perfmodel.OpStore, 4), c.cost(perfmodel.OpStore, 8)}
		as := c.asite(pos.Line, atom)
		arrName := lhs.Arr.Name
		return func(m *vm, fr *vframe) (control, error) {
			if err := m.checkBudget(pos); err != nil {
				return ctlNone, err
			}
			m.rec.PushTarget(atom)
			rv, err := rhs(m, fr)
			if err != nil {
				m.rec.PopTarget()
				return ctlNone, err
			}
			if chConv != nil {
				chConv(m)
			}
			arr, off, err := er.resolve(m, fr)
			if err != nil {
				m.rec.PopTarget()
				return ctlNone, err
			}
			m.chargeMem(storeCost[kindIdx(arr.Kind)])
			f := convertReal(rv.asFloat(), arr.Kind)
			if m.rec != nil {
				as.assign(m, f, rv.sh(), rv.asFloat())
			}
			if m.trap && nonFinite(f) {
				m.rec.PopTarget()
				return ctlNone, &RunError{Pos: pos, Kind: FailNonFinite,
					Msg: fmt.Sprintf("assigning non-finite value to %s(...)", arrName)}
			}
			arr.Data[off] = f
			if arr.Shadow != nil {
				arr.Shadow[off] = rv.sh()
			}
			m.rec.PopTarget()
			return ctlNone, nil
		}
	default:
		return errStmt(pos, &RunError{Pos: pos, Kind: FailInternal, Msg: "bad assignment target"})
	}
}

// intAssignVar compiles `intvar = <affine>` through intIndex, with the
// Value path's budget check, target push and pop, and charges. An
// integer store converts nothing, traps nothing and records nothing.
func (c *compiler) intAssignVar(s *ft.AssignStmt, d *ft.VarDecl, atom string) vstmt {
	pos := s.Pos
	iv := c.intIndex(s.RHS)
	if d.Proc != nil && c.rec == nil {
		// A local without a recorder, whose push and pop are no-ops.
		slot := d.Slot
		return func(m *vm, fr *vframe) (control, error) {
			if err := m.checkBudget(pos); err != nil {
				return ctlNone, err
			}
			fr.i[slot] = iv(m, fr)
			return ctlNone, nil
		}
	}
	at := slotOf(d)
	return func(m *vm, fr *vframe) (control, error) {
		if err := m.checkBudget(pos); err != nil {
			return ctlNone, err
		}
		m.rec.PushTarget(atom)
		at.setInt(m, fr, iv(m, fr))
		m.rec.PopTarget()
		return ctlNone, nil
	}
}

// arrayAssign compiles "a = scalar" (fill) and "a = b" (copy).
func (c *compiler) arrayAssign(s *ft.AssignStmt) vstmt {
	pos := s.Pos
	lref, ok := s.LHS.(*ft.VarRef)
	if !ok {
		return errStmt(pos, &RunError{Pos: pos, Kind: FailInternal, Msg: "bad array assignment target"})
	}
	dstAt := slotOf(lref.Decl)
	qn := "" // the recorder's target, which nothing else reads
	if c.rec != nil {
		qn = lref.Decl.QName()
	}
	lname := lref.Name
	rt := s.RHS.Type()

	if rt.Rank == 0 {
		// Broadcast fill.
		rhs := c.expr(s.RHS)
		as := c.asite(pos.Line, qn)
		storeCost := [2]float64{c.cost(perfmodel.OpStore, 4), c.cost(perfmodel.OpStore, 8)}
		return func(m *vm, fr *vframe) (control, error) {
			if err := m.checkBudget(pos); err != nil {
				return ctlNone, err
			}
			dst := dstAt.arr(m, fr)
			if dst == nil {
				return ctlNone, notAllocated(pos, lname)
			}
			n := dst.Size()
			m.rec.PushTarget(qn)
			v, err := rhs(m, fr)
			if err != nil {
				m.rec.PopTarget()
				return ctlNone, err
			}
			f := convertReal(v.asFloat(), dst.Kind)
			if m.rec != nil {
				// One representative record for the whole fill.
				as.assign(m, f, v.sh(), v.asFloat())
			}
			if m.trap && nonFinite(f) {
				m.rec.PopTarget()
				return ctlNone, &RunError{Pos: pos, Kind: FailNonFinite,
					Msg: fmt.Sprintf("assigning non-finite value to %s", lname)}
			}
			m.chargeMemN(storeCost[kindIdx(dst.Kind)], float64(n),
				m.model.VecFactor(dst.Kind, false, false))
			for k := range dst.Data {
				dst.Data[k] = f
			}
			if dst.Shadow != nil {
				fs := v.sh()
				for k := range dst.Shadow {
					dst.Shadow[k] = fs
				}
			}
			m.rec.PopTarget()
			return ctlNone, nil
		}
	}

	// Whole-array copy.
	rref, ok := s.RHS.(*ft.VarRef)
	if !ok {
		srcErr := &RunError{Pos: pos, Kind: FailInternal,
			Msg: "array assignment source must be a whole array"}
		return func(m *vm, fr *vframe) (control, error) {
			if err := m.checkBudget(pos); err != nil {
				return ctlNone, err
			}
			dst := dstAt.arr(m, fr)
			if dst == nil {
				return ctlNone, notAllocated(pos, lname)
			}
			m.rec.PushTarget(qn)
			m.rec.PopTarget()
			return ctlNone, srcErr
		}
	}
	srcAt := slotOf(rref.Decl)
	rname := rref.Name
	loadCost := [2]float64{c.cost(perfmodel.OpLoad, 4), c.cost(perfmodel.OpLoad, 8)}
	storeCost := [2]float64{c.cost(perfmodel.OpStore, 4), c.cost(perfmodel.OpStore, 8)}
	return func(m *vm, fr *vframe) (control, error) {
		if err := m.checkBudget(pos); err != nil {
			return ctlNone, err
		}
		dst := dstAt.arr(m, fr)
		if dst == nil {
			return ctlNone, notAllocated(pos, lname)
		}
		n := dst.Size()
		m.rec.PushTarget(qn)
		src := srcAt.arr(m, fr)
		if src == nil {
			m.rec.PopTarget()
			return ctlNone, notAllocated(pos, rname)
		}
		if src.Size() != n {
			m.rec.PopTarget()
			return ctlNone, &RunError{Pos: pos, Kind: FailBounds,
				Msg: fmt.Sprintf("array size mismatch in %s = %s (%d vs %d)",
					lname, rname, n, src.Size())}
		}
		if src.Kind == dst.Kind {
			vf := m.model.VecFactor(dst.Kind, false, false)
			m.chargeMemN(loadCost[kindIdx(src.Kind)], float64(n), vf)
			m.chargeMemN(storeCost[kindIdx(dst.Kind)], float64(n), vf)
			copy(dst.Data, src.Data)
		} else {
			// Converting copy: scalar loads/stores plus a cast per element.
			m.chargeMemN(loadCost[kindIdx(src.Kind)], float64(n), 1)
			m.chargeMemN(storeCost[kindIdx(dst.Kind)], float64(n), 1)
			m.cast(int64(n))
			for k := range dst.Data {
				f := convertReal(src.Data[k], dst.Kind)
				if m.trap && nonFinite(f) {
					m.rec.PopTarget()
					return ctlNone, &RunError{Pos: pos, Kind: FailNonFinite,
						Msg: fmt.Sprintf("assigning non-finite value to %s", lname)}
				}
				dst.Data[k] = f
			}
		}
		if dst.Shadow != nil {
			// The shadow lane copies unrounded in either direction.
			if src.Shadow != nil {
				copy(dst.Shadow, src.Shadow)
			} else {
				copy(dst.Shadow, src.Data)
			}
		}
		m.rec.PopTarget()
		return ctlNone, nil
	}
}
