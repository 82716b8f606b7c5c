package fortran

import "fmt"

// Mismatch records a real-kind mismatch between an actual argument and
// the corresponding dummy argument at a call site. The Fortran standard
// permits implicit kind conversion only through assignment, so these are
// errors in strict mode; the precision tuner's wrapper generator consumes
// them in tolerant mode (see internal/transform).
type Mismatch struct {
	Caller   *Procedure
	Callee   *Procedure
	CallStmt *CallStmt // non-nil for subroutine calls
	CallExpr *CallExpr // non-nil for function calls
	ArgIndex int
	Arg      Expr
	From, To int  // actual kind -> dummy kind
	IsArray  bool // the mismatched argument is an array
}

// CallSite describes one resolved call from Caller to Callee.
type CallSite struct {
	Caller *Procedure
	Callee *Procedure
	Args   []Expr
	Pos    Pos
}

// Info is the result of semantic analysis.
type Info struct {
	Prog *Program
	// Mismatches lists each call's mismatches together, in argument
	// order.
	Mismatches []Mismatch
	CallSites  []CallSite
	Errors     []*Error
}

// Options configures Analyze.
type Options struct {
	// AllowKindMismatch records real-kind argument mismatches in
	// Info.Mismatches instead of reporting them as errors.
	AllowKindMismatch bool
}

type checker struct {
	prog  *Program
	opts  Options
	info  *Info
	proc  *Procedure // procedure being checked
	local map[string]*VarDecl
	// names is the one name map of an analysis: bindProc and checkProc
	// clear it and fill it with each procedure's declarations in turn.
	names map[string]*VarDecl
}

// Analyze resolves names, types, and call sites across prog, assigning
// frame slots and rewriting ambiguous ApplyExpr nodes into CallExpr or
// IndexExpr nodes. It must be called before interpretation or
// transformation. Analyze is idempotent.
func Analyze(prog *Program, opts Options) (*Info, error) {
	c := &checker{prog: prog, opts: opts, info: &Info{Prog: prog}}
	c.collect()
	if len(c.info.Errors) == 0 {
		for _, m := range prog.Modules {
			for _, d := range m.Decls {
				c.checkModuleDecl(m, d)
			}
		}
		// Bind every procedure's declarations before checking any body:
		// call sites may reference procedures defined later.
		most := 0
		for _, p := range prog.AllProcs {
			most = max(most, len(p.Decls))
		}
		c.names = make(map[string]*VarDecl, most)
		for _, p := range prog.AllProcs {
			c.bindProc(p)
		}
		for _, p := range prog.AllProcs {
			c.checkProc(p)
		}
	}
	if len(c.info.Errors) > 0 {
		return c.info, c.info.Errors[0]
	}
	return c.info, nil
}

// MustAnalyze is Analyze for programs known to be valid; it panics on error.
func MustAnalyze(prog *Program, opts Options) *Info {
	info, err := Analyze(prog, opts)
	if err != nil {
		panic(fmt.Sprintf("fortran.MustAnalyze: %v", err))
	}
	return info
}

func (c *checker) errorf(pos Pos, format string, args ...any) {
	c.info.Errors = append(c.info.Errors, errf(pos, format, args...))
}

// collect builds the module and procedure maps and assigns indices/slots.
func (c *checker) collect() {
	p := c.prog
	procs, most := 1, 0 // the main program, and the most declarations of a module
	for _, m := range p.Modules {
		procs += len(m.Procs)
		most = max(most, len(m.Decls))
	}
	p.ModMap = make(map[string]*Module, len(p.Modules))
	p.ProcMap = make(map[string]*Procedure, procs)
	p.AllProcs = make([]*Procedure, 0, procs)
	declared := make(map[string]bool, most)
	for i, m := range p.Modules {
		if _, dup := p.ModMap[m.Name]; dup {
			c.errorf(m.Pos, "duplicate module %q", m.Name)
			continue
		}
		m.Index = i
		p.ModMap[m.Name] = m
		clear(declared)
		for slot, d := range m.Decls {
			if declared[d.Name] {
				c.errorf(d.Pos, "duplicate declaration of %q in module %s", d.Name, m.Name)
				continue
			}
			declared[d.Name] = true
			d.Slot = slot
			d.InMod = m
			d.Proc = nil
			if d.IsArray() {
				c.reserved(d.Pos, "array", d.Name)
			}
		}
		for _, pr := range m.Procs {
			pr.Module = m
			c.reserved(pr.Pos, "procedure", pr.Name)
			c.registerProc(pr)
		}
	}
	if p.Main != nil {
		// A program unit's name is global: a main program named like a
		// module would give its variables the module's qualified names.
		if _, clash := p.ModMap[p.Main.Name]; clash {
			c.errorf(p.Main.Pos, "program %q shares its name with a module", p.Main.Name)
		}
		p.Main.Module = nil
		c.registerProc(p.Main)
	}
	// Verify use targets exist.
	check := func(pos Pos, uses []string) {
		for _, u := range uses {
			if _, ok := p.ModMap[u]; !ok {
				c.errorf(pos, "use of undefined module %q", u)
			}
		}
	}
	for _, m := range p.Modules {
		check(m.Pos, m.Uses)
		for _, pr := range m.Procs {
			check(pr.Pos, pr.Uses)
		}
	}
	if p.Main != nil {
		check(p.Main.Pos, p.Main.Uses)
	}
}

// reserved refuses an array or procedure named like an intrinsic, for
// which name(args) would be ambiguous: an array in scope captures an
// intrinsic call of its name, such as a wrapper's size(), and an
// intrinsic shadows a procedure of its name, which is then never
// called. A scalar may take the name, since name(args) never resolves
// to one.
func (c *checker) reserved(pos Pos, what, name string) {
	_, f := intrinsicFuncs[name]
	_, s := intrinsicSubs[name]
	if f || s {
		c.errorf(pos, "%s %q is named like an intrinsic", what, name)
	}
}

func (c *checker) registerProc(pr *Procedure) {
	q := pr.QName()
	pr.qname = q
	if _, dup := c.prog.ProcMap[q]; dup {
		c.errorf(pr.Pos, "duplicate procedure %q", q)
		return
	}
	pr.Index = len(c.prog.AllProcs)
	c.prog.ProcMap[q] = pr
	c.prog.AllProcs = append(c.prog.AllProcs, pr)
}

func (c *checker) checkModuleDecl(m *Module, d *VarDecl) {
	if d.IsParam && d.Init == nil {
		c.errorf(d.Pos, "parameter %q lacks an initializer", d.Name)
	}
	if d.Init != nil {
		c.proc = nil
		c.local = nil
		d.Init = c.checkExpr(d.Init, m)
	}
	for i := range d.Dims {
		dim := &d.Dims[i]
		if dim.Assumed {
			c.errorf(d.Pos, "module array %q may not be assumed-shape", d.Name)
			continue
		}
		if dim.Lo != nil {
			dim.Lo = c.checkExpr(dim.Lo, m)
		}
		dim.Hi = c.checkExpr(dim.Hi, m)
	}
}

// bindProc assigns slots and resolves dummy-argument and result
// declarations, without touching the body.
func (c *checker) bindProc(pr *Procedure) {
	local := c.names
	clear(local)
	for slot, d := range pr.Decls {
		if _, dup := local[d.Name]; dup {
			c.errorf(d.Pos, "duplicate declaration of %q in %s", d.Name, pr.QName())
			continue
		}
		d.Slot = slot
		d.Proc = pr
		d.InMod = pr.Module
		local[d.Name] = d
		if d.IsArray() {
			c.reserved(d.Pos, "array", d.Name)
		}
	}
	pr.NumSlots = len(pr.Decls)

	// Dummy arguments must be declared. An earlier analysis's list is
	// reused.
	if len(pr.ParamDecl) == len(pr.Params) {
		clear(pr.ParamDecl)
	} else {
		pr.ParamDecl = make([]*VarDecl, len(pr.Params))
	}
	for i, name := range pr.Params {
		d, ok := local[name]
		if !ok {
			c.errorf(pr.Pos, "dummy argument %q of %s is not declared", name, pr.QName())
			continue
		}
		d.IsArg = true
		pr.ParamDecl[i] = d
	}
	if pr.Kind == KFunction {
		d, ok := local[pr.ResultName]
		if !ok {
			c.errorf(pr.Pos, "function result %q of %s is not declared", pr.ResultName, pr.QName())
		} else {
			pr.Result = d
		}
	}
}

func (c *checker) checkProc(pr *Procedure) {
	c.proc = pr
	c.local = c.names
	clear(c.local)
	for _, d := range pr.Decls {
		c.local[d.Name] = d
	}

	mod := pr.Module
	for _, d := range pr.Decls {
		if d.IsParam && d.Init == nil {
			c.errorf(d.Pos, "parameter %q lacks an initializer", d.Name)
		}
		if d.Init != nil {
			if !d.IsParam {
				c.errorf(d.Pos, "only PARAMETER declarations may be initialized (%q)", d.Name)
			}
			d.Init = c.checkExpr(d.Init, mod)
		}
		for i := range d.Dims {
			dim := &d.Dims[i]
			if dim.Assumed {
				if !d.IsArg {
					c.errorf(d.Pos, "assumed-shape array %q must be a dummy argument", d.Name)
				}
				continue
			}
			if dim.Lo != nil {
				dim.Lo = c.checkExpr(dim.Lo, mod)
			}
			dim.Hi = c.checkExpr(dim.Hi, mod)
		}
	}
	c.checkStmts(pr.Body, mod)
}

func (c *checker) checkStmts(stmts []Stmt, mod *Module) {
	for _, s := range stmts {
		c.checkStmt(s, mod)
	}
}

func (c *checker) checkStmt(s Stmt, mod *Module) {
	switch s := s.(type) {
	case *AssignStmt:
		s.LHS = c.checkExpr(s.LHS, mod)
		s.RHS = c.checkExpr(s.RHS, mod)
		c.checkAssign(s)
	case *IfStmt:
		s.Cond = c.checkExpr(s.Cond, mod)
		if t := s.Cond.Type(); t.Base != TLogical && t.Base != TInvalid {
			c.errorf(s.Pos, "IF condition must be logical, got %s", t)
		}
		c.checkStmts(s.Then, mod)
		c.checkStmts(s.Else, mod)
	case *DoStmt:
		v := c.checkExpr(s.Var, mod)
		vr, ok := v.(*VarRef)
		if !ok || vr.Typ.Base != TInteger || vr.Typ.Rank != 0 {
			c.errorf(s.Pos, "DO variable must be a scalar integer")
		} else {
			s.Var = vr
		}
		s.From = c.checkIntExpr(s.From, mod, "DO lower bound")
		s.To = c.checkIntExpr(s.To, mod, "DO upper bound")
		if s.Step != nil {
			s.Step = c.checkIntExpr(s.Step, mod, "DO step")
		}
		c.checkStmts(s.Body, mod)
	case *DoWhileStmt:
		s.Cond = c.checkExpr(s.Cond, mod)
		if t := s.Cond.Type(); t.Base != TLogical && t.Base != TInvalid {
			c.errorf(s.Pos, "DO WHILE condition must be logical, got %s", t)
		}
		c.checkStmts(s.Body, mod)
	case *CallStmt:
		c.checkCallStmt(s, mod)
	case *PrintStmt:
		for i, a := range s.Args {
			s.Args[i] = c.checkExpr(a, mod)
		}
	case *StopStmt:
		if s.Code != nil {
			s.Code = c.checkExpr(s.Code, mod)
		}
	case *ReturnStmt, *ExitStmt, *CycleStmt:
	default:
		c.errorf(s.StmtPos(), "internal: unknown statement %T", s)
	}
}

func (c *checker) checkAssign(s *AssignStmt) {
	lt := s.LHS.Type()
	rt := s.RHS.Type()
	if lt.Base == TInvalid || rt.Base == TInvalid {
		return
	}
	switch s.LHS.(type) {
	case *VarRef, *IndexExpr:
	default:
		c.errorf(s.Pos, "assignment target must be a variable or array element")
		return
	}
	if vr, ok := s.LHS.(*VarRef); ok && vr.Decl != nil && vr.Decl.IsParam {
		c.errorf(s.Pos, "cannot assign to PARAMETER %q", vr.Name)
	}
	numeric := func(t Type) bool { return t.Base == TReal || t.Base == TInteger }
	switch {
	case numeric(lt) && numeric(rt):
		// Implicit conversion through assignment is permitted; the
		// interpreter counts the cast. Ranks must agree, except that a
		// scalar may be broadcast to an array.
		if lt.Rank != rt.Rank && rt.Rank != 0 {
			c.errorf(s.Pos, "rank mismatch in assignment (%s = %s)", lt, rt)
		}
	case lt.Base == TLogical && rt.Base == TLogical && lt.Rank == rt.Rank:
	default:
		c.errorf(s.Pos, "cannot assign %s to %s", rt, lt)
	}
}

func (c *checker) checkIntExpr(e Expr, mod *Module, what string) Expr {
	e = c.checkExpr(e, mod)
	if t := e.Type(); t.Base != TInteger && t.Base != TInvalid || t.Rank != 0 {
		c.errorf(e.ExprPos(), "%s must be a scalar integer, got %s", what, e.Type())
	}
	return e
}

// lookupVar resolves a variable name: local scope, then the enclosing
// module, then modules used by the procedure or its module.
func (c *checker) lookupVar(name string, mod *Module) *VarDecl {
	if c.local != nil {
		if d, ok := c.local[name]; ok {
			return d
		}
	}
	seen := map[string]bool{}
	var search func(m *Module) *VarDecl
	search = func(m *Module) *VarDecl {
		if m == nil || seen[m.Name] {
			return nil
		}
		seen[m.Name] = true
		for _, d := range m.Decls {
			if d.Name == name {
				return d
			}
		}
		for _, u := range m.Uses {
			if d := search(c.prog.ModMap[u]); d != nil {
				return d
			}
		}
		return nil
	}
	if d := search(mod); d != nil {
		return d
	}
	if c.proc != nil {
		for _, u := range c.proc.Uses {
			if d := search(c.prog.ModMap[u]); d != nil {
				return d
			}
		}
	}
	return nil
}

// lookupProc resolves a procedure name: the enclosing module first, then
// a unique match across all modules.
func (c *checker) lookupProc(name string, mod *Module) *Procedure {
	if mod != nil {
		if pr, ok := c.prog.ProcMap[mod.Name+"."+name]; ok {
			return pr
		}
	}
	var found *Procedure
	for _, pr := range c.prog.AllProcs {
		if pr.Name == name {
			if found != nil {
				return nil
			}
			found = pr
		}
	}
	return found
}

func (c *checker) checkCallStmt(s *CallStmt, mod *Module) {
	for i, a := range s.Args {
		s.Args[i] = c.checkExpr(a, mod)
	}
	if sig, ok := intrinsicSubs[s.Name]; ok {
		s.Intrinsic = s.Name
		s.Proc = nil
		if sig.nargs >= 0 && len(s.Args) != sig.nargs {
			c.errorf(s.Pos, "intrinsic %s expects %d argument(s), got %d", s.Name, sig.nargs, len(s.Args))
		}
		return
	}
	pr := c.lookupProc(s.Name, mod)
	if pr == nil {
		c.errorf(s.Pos, "call to undefined subroutine %q", s.Name)
		return
	}
	if pr.Kind != KSubroutine {
		c.errorf(s.Pos, "%q is not a subroutine", s.Name)
		return
	}
	s.Proc = pr
	c.checkArgs(pr, s.Args, s.Pos, s, nil)
}

// checkArgs validates actual-vs-dummy argument compatibility and records
// real-kind mismatches.
func (c *checker) checkArgs(pr *Procedure, args []Expr, pos Pos, cs *CallStmt, ce *CallExpr) {
	c.info.CallSites = append(c.info.CallSites, CallSite{
		Caller: c.proc, Callee: pr, Args: args, Pos: pos,
	})
	if len(args) != len(pr.Params) {
		c.errorf(pos, "%s expects %d argument(s), got %d", pr.QName(), len(pr.Params), len(args))
		return
	}
	for i, arg := range args {
		dummy := pr.ParamDecl[i]
		if dummy == nil {
			continue
		}
		at := arg.Type()
		dt := dummy.Type()
		if at.Base == TInvalid {
			continue
		}
		if at.Base != dt.Base {
			c.errorf(arg.ExprPos(), "argument %d of %s: cannot pass %s to %s dummy %q",
				i+1, pr.QName(), at, dt, dummy.Name)
			continue
		}
		if at.Rank != dt.Rank {
			c.errorf(arg.ExprPos(), "argument %d of %s: rank mismatch (%d vs %d)",
				i+1, pr.QName(), at.Rank, dt.Rank)
			continue
		}
		if dummy.Intent == IntentOut || dummy.Intent == IntentInOut || at.Rank > 0 {
			// Must be passable by reference.
			switch arg.(type) {
			case *VarRef, *IndexExpr:
			default:
				if dummy.Intent != IntentIn && dummy.Intent != IntentNone || at.Rank > 0 {
					c.errorf(arg.ExprPos(), "argument %d of %s must be a variable (dummy %q has intent(%s))",
						i+1, pr.QName(), dummy.Name, dummy.Intent)
					continue
				}
			}
		}
		if at.Base == TReal && at.Kind != dt.Kind {
			if ConstReal(arg) {
				// Kind-polymorphic constants adopt the dummy's kind.
				continue
			}
			m := Mismatch{
				Caller: c.proc, Callee: pr, CallStmt: cs, CallExpr: ce,
				ArgIndex: i, Arg: arg, From: at.Kind, To: dt.Kind,
				IsArray: at.Rank > 0,
			}
			c.info.Mismatches = append(c.info.Mismatches, m)
			if !c.opts.AllowKindMismatch {
				c.errorf(arg.ExprPos(),
					"argument %d of %s: real kind mismatch (actual kind=%d, dummy %q kind=%d); Fortran converts kinds only through assignment",
					i+1, pr.QName(), at.Kind, dummy.Name, dt.Kind)
			}
		}
	}
}

// checkExpr resolves and types e, returning a possibly rewritten node.
func (c *checker) checkExpr(e Expr, mod *Module) Expr {
	switch e := e.(type) {
	case *IntLit, *RealLit, *LogicalLit, *StrLit:
		return e
	case *VarRef:
		d := c.lookupVar(e.Name, mod)
		if d == nil {
			c.errorf(e.Pos, "undefined variable %q", e.Name)
			e.Typ = Type{}
			return e
		}
		e.Decl = d
		e.Typ = d.Type()
		return e
	case *UnExpr:
		e.X = c.checkExpr(e.X, mod)
		xt := e.X.Type()
		switch e.Op {
		case MINUS, PLUS:
			if xt.Base != TReal && xt.Base != TInteger && xt.Base != TInvalid || xt.Rank != 0 {
				c.errorf(e.Pos, "unary %v requires a scalar numeric operand, got %s", e.Op, xt)
			}
			e.Typ = xt
		case NOT:
			if xt.Base != TLogical && xt.Base != TInvalid {
				c.errorf(e.Pos, ".not. requires a logical operand, got %s", xt)
			}
			e.Typ = Type{Base: TLogical}
		}
		return e
	case *BinExpr:
		e.X = c.checkExpr(e.X, mod)
		e.Y = c.checkExpr(e.Y, mod)
		e.Typ = c.binType(e)
		return e
	case *ApplyExpr:
		return c.resolveApply(e, e.Pos, e.Name, e.Args, mod)
	case *IndexExpr:
		return c.resolveApply(e, e.Pos, e.Arr.Name, e.Indices, mod)
	case *CallExpr:
		return c.resolveApply(e, e.Pos, e.Name, e.Args, mod)
	default:
		c.errorf(e.ExprPos(), "internal: unknown expression %T", e)
		return e
	}
}

func (c *checker) binType(e *BinExpr) Type {
	xt, yt := e.X.Type(), e.Y.Type()
	if xt.Base == TInvalid || yt.Base == TInvalid {
		return Type{}
	}
	numeric := func(t Type) bool {
		return (t.Base == TReal || t.Base == TInteger) && t.Rank == 0
	}
	switch e.Op {
	case PLUS, MINUS, STAR, SLASH, POW:
		if !numeric(xt) || !numeric(yt) {
			c.errorf(e.Pos, "operator %v requires scalar numeric operands (got %s, %s); write array operations as DO loops", e.Op, xt, yt)
			return Type{}
		}
		return promotePoly(e.X, e.Y, xt, yt)
	case EQ, NE, LT, LE, GT, GE:
		if !numeric(xt) || !numeric(yt) {
			if xt.Base == TLogical && yt.Base == TLogical && (e.Op == EQ || e.Op == NE) {
				return Type{Base: TLogical}
			}
			c.errorf(e.Pos, "comparison %v requires scalar numeric operands (got %s, %s)", e.Op, xt, yt)
			return Type{}
		}
		// The comparison is performed at the polymorphic operand kind;
		// record it in Kind (the result base remains logical).
		opk := promotePoly(e.X, e.Y, xt, yt)
		return Type{Base: TLogical, Kind: opk.Kind}
	case AND, OR:
		if xt.Base != TLogical || yt.Base != TLogical {
			c.errorf(e.Pos, "operator %v requires logical operands (got %s, %s)", e.Op, xt, yt)
		}
		return Type{Base: TLogical}
	default:
		c.errorf(e.Pos, "internal: unknown binary operator %v", e.Op)
		return Type{}
	}
}

// promote computes the result type of a numeric binary operation:
// real(8) > real(4) > integer.
func promote(x, y Type) Type {
	if x.Base == TReal || y.Base == TReal {
		k := 4
		if x.Base == TReal && x.Kind == 8 || y.Base == TReal && y.Kind == 8 {
			k = 8
		}
		return Type{Base: TReal, Kind: k}
	}
	return Type{Base: TInteger}
}

// ConstReal reports whether e is a compile-time real constant: a real
// literal, a signed real literal, or a reference to a real PARAMETER.
//
// FT treats such constants as *kind-polymorphic*: combined with a real
// variable of either kind they adopt the variable's kind, the way
// weather/climate codes write constants with the working-precision kind
// parameter (2.0_RKIND). This is what lets a declaration-only precision
// transformation produce uniformly low-precision loops — without it,
// every d0 literal would drag lowered code back to 64-bit arithmetic.
func ConstReal(e Expr) bool {
	switch e := e.(type) {
	case *RealLit:
		return true
	case *UnExpr:
		return (e.Op == MINUS || e.Op == PLUS) && ConstReal(e.X)
	case *VarRef:
		return e.Decl != nil && e.Decl.IsParam && e.Decl.Base == TReal
	}
	return false
}

// promotePoly is promote with kind-polymorphic constants: when exactly
// one real operand is a constant, the result takes the other operand's
// kind.
func promotePoly(xe, ye Expr, x, y Type) Type {
	if x.Base == TReal && y.Base == TReal && x.Kind != y.Kind {
		cx, cy := ConstReal(xe), ConstReal(ye)
		if cx && !cy {
			return Type{Base: TReal, Kind: y.Kind}
		}
		if cy && !cx {
			return Type{Base: TReal, Kind: x.Kind}
		}
	}
	// An integer combined with a real constant adopts the constant's
	// kind as written.
	return promote(x, y)
}

// resolveApply resolves name(args), the form e of which is a parsed
// ApplyExpr, a cloned or analyzed IndexExpr or CallExpr, or a CallExpr
// that a transform renamed (Proc reset) or built. A call that is
// already resolved, to a procedure by an earlier analysis or to an
// intrinsic by the transform that built it (a wrapper's size()), stays
// so. Otherwise an array variable in scope makes name(args) an element
// reference, and an intrinsic or a user function a call. resolveApply
// returns e itself when e already has the form the name resolves to,
// and builds the other form otherwise.
func (c *checker) resolveApply(e Expr, pos Pos, name string, args []Expr, mod *Module) Expr {
	call, isCall := e.(*CallExpr)
	resolved := isCall && (call.Proc != nil || call.Intrinsic != "")
	var d *VarDecl
	if !resolved {
		d = c.lookupVar(name, mod)
	}
	if d != nil && d.IsArray() {
		idx, ok := e.(*IndexExpr)
		if !ok {
			idx = &IndexExpr{Pos: pos, Arr: &VarRef{Pos: pos, Name: name}, Indices: args}
		}
		if len(args) != len(d.Dims) {
			c.errorf(pos, "array %q has rank %d but %d index(es) given", name, len(d.Dims), len(args))
		}
		for i, a := range args {
			args[i] = c.checkIntExpr(a, mod, "array index")
		}
		idx.Arr.Decl, idx.Arr.Typ = d, d.Type()
		idx.Typ = Type{Base: d.Base, Kind: d.Kind}
		return idx
	}
	if !isCall {
		call = &CallExpr{Pos: pos, Name: name, Args: args}
	}
	for i, a := range args {
		args[i] = c.checkExpr(a, mod)
	}
	if !resolved {
		if _, ok := intrinsicFuncs[name]; ok {
			call.Intrinsic = name
		} else if pr := c.lookupProc(name, mod); pr == nil {
			c.errorf(pos, "undefined function or array %q", name)
			return call
		} else if pr.Kind != KFunction {
			c.errorf(pos, "%q is a subroutine, not a function", name)
			return call
		} else {
			call.Proc = pr
		}
	}
	if call.Intrinsic != "" {
		call.Typ = c.intrinsicType(call)
		return call
	}
	if call.Proc.Result != nil {
		call.Typ = call.Proc.Result.Type()
	}
	c.checkArgs(call.Proc, call.Args, call.Pos, nil, call)
	return call
}

// Intrinsic signatures -------------------------------------------------------

type intrinsicSig struct {
	nargs int // -1: variadic or special-cased
	// result computes the call's type; nil means "same as first argument".
	result func(c *checker, e *CallExpr) Type
}

func realOf(kind int) Type { return Type{Base: TReal, Kind: kind} }

var intType = Type{Base: TInteger}

// intrinsicFuncs are the supported intrinsic functions.
var intrinsicFuncs = map[string]intrinsicSig{
	"abs": {1, nil}, "sqrt": {1, nil}, "exp": {1, nil}, "log": {1, nil},
	"log10": {1, nil}, "sin": {1, nil}, "cos": {1, nil}, "tan": {1, nil},
	"asin": {1, nil}, "acos": {1, nil}, "atan": {1, nil},
	"sinh": {1, nil}, "cosh": {1, nil}, "tanh": {1, nil},
	"aint": {1, nil}, "anint": {1, nil},
	"atan2": {2, nil}, "sign": {2, nil}, "mod": {2, nil},
	"min": {-1, nil}, "max": {-1, nil},
	"int":   {1, func(*checker, *CallExpr) Type { return intType }},
	"nint":  {1, func(*checker, *CallExpr) Type { return intType }},
	"floor": {1, func(*checker, *CallExpr) Type { return intType }},
	"real": {-1, func(c *checker, e *CallExpr) Type {
		kind := 4
		if len(e.Args) == 2 {
			if lit, ok := e.Args[1].(*IntLit); ok && (lit.Val == 4 || lit.Val == 8) {
				kind = int(lit.Val)
			} else {
				c.errorf(e.Pos, "second argument of real() must be the literal 4 or 8")
			}
		} else if len(e.Args) != 1 {
			c.errorf(e.Pos, "real() expects 1 or 2 arguments")
		}
		return realOf(kind)
	}},
	"dble": {1, func(*checker, *CallExpr) Type { return realOf(8) }},
	"size": {-1, func(c *checker, e *CallExpr) Type {
		if len(e.Args) < 1 || len(e.Args) > 2 {
			c.errorf(e.Pos, "size() expects 1 or 2 arguments")
			return intType
		}
		if t := e.Args[0].Type(); t.Rank == 0 && t.Base != TInvalid {
			c.errorf(e.Pos, "size() requires an array argument")
		}
		if len(e.Args) == 2 {
			if t := e.Args[1].Type(); t.Base != TInteger && t.Base != TInvalid {
				c.errorf(e.Pos, "size() dim argument must be an integer")
			}
		}
		return intType
	}},
	"epsilon": {1, epsLikeType}, "huge": {1, epsLikeType}, "tiny": {1, epsLikeType},
	"sum": {1, reduceType}, "minval": {1, reduceType}, "maxval": {1, reduceType},
	"dot_product": {2, func(c *checker, e *CallExpr) Type {
		t := promoteArrays(e)
		for _, a := range e.Args {
			if a.Type().Rank != 1 && a.Type().Base != TInvalid {
				c.errorf(e.Pos, "dot_product requires rank-1 array arguments")
			}
		}
		return t
	}},
	"isnan": {1, func(*checker, *CallExpr) Type { return Type{Base: TLogical} }},
}

func epsLikeType(c *checker, e *CallExpr) Type {
	t := e.Args[0].Type()
	if t.Base != TReal && t.Base != TInvalid {
		c.errorf(e.Pos, "%s() requires a real argument", e.Name)
		return realOf(8)
	}
	return realOf(t.Kind)
}

func reduceType(c *checker, e *CallExpr) Type {
	t := e.Args[0].Type()
	if t.Rank == 0 && t.Base != TInvalid {
		c.errorf(e.Pos, "%s() requires an array argument", e.Name)
	}
	return Type{Base: t.Base, Kind: t.Kind}
}

// promoteArrays computes the promoted element type of an intrinsic's
// arguments, letting kind-polymorphic constants follow the variables.
func promoteArrays(e *CallExpr) Type {
	t := Type{Base: TInteger}
	anyVar := false
	for _, a := range e.Args {
		at := a.Type()
		if at.Base == TReal && ConstReal(a) {
			continue
		}
		anyVar = true
		t = promote(t, Type{Base: at.Base, Kind: at.Kind})
	}
	if !anyVar || t.Base != TReal {
		// All-constant (or integer-only) arguments: fall back to the
		// constants' written kinds.
		for _, a := range e.Args {
			at := a.Type()
			t = promote(t, Type{Base: at.Base, Kind: at.Kind})
		}
	}
	return t
}

// intrinsicSubs are the supported intrinsic subroutines.
// mpi_allreduce_sum models a sum-reduction across the configured MPI
// ranks: numerically the identity on a single rank's data, but the
// machine model charges a non-vectorizable latency cost (see
// internal/perfmodel).
var intrinsicSubs = map[string]intrinsicSig{
	"mpi_allreduce_sum": {1, nil},
	"mpi_allreduce_max": {1, nil},
}

func (c *checker) intrinsicType(e *CallExpr) Type {
	sig := intrinsicFuncs[e.Intrinsic]
	if sig.nargs >= 0 && len(e.Args) != sig.nargs {
		c.errorf(e.Pos, "intrinsic %s expects %d argument(s), got %d", e.Name, sig.nargs, len(e.Args))
		return Type{}
	}
	if sig.nargs == -1 && (e.Name == "min" || e.Name == "max") {
		if len(e.Args) < 2 {
			c.errorf(e.Pos, "intrinsic %s expects at least 2 arguments", e.Name)
			return Type{}
		}
	}
	if sig.result != nil {
		return sig.result(c, e)
	}
	// Elemental numeric: result has the promoted type of the arguments,
	// except single-argument math functions which keep their input type.
	t := promoteArrays(e)
	for _, a := range e.Args {
		if at := a.Type(); at.Rank != 0 && at.Base != TInvalid {
			c.errorf(e.Pos, "intrinsic %s requires scalar arguments", e.Name)
		}
	}
	switch e.Name {
	case "sqrt", "exp", "log", "log10", "sin", "cos", "tan",
		"asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh", "aint", "anint":
		if t.Base != TReal {
			// Fortran requires real arguments for these.
			c.errorf(e.Pos, "intrinsic %s requires real argument(s)", e.Name)
			return realOf(8)
		}
	}
	return t
}
