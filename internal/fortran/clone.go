package fortran

// Clone returns a deep copy of prog with every semantic annotation
// cleared; the copy must be Analyzed again. The precision tuner clones
// the baseline AST before applying each precision assignment, so
// variants never share mutable state and may be built in parallel, as
// in the paper's per-node variant pipeline: the copy shares no node, no
// list backing array and no annotation with prog.
//
// A resolved node keeps its form: an IndexExpr is copied as an
// IndexExpr with a fresh VarRef, and a CallExpr as a CallExpr, with
// Decl, Typ, Proc and Intrinsic cleared. Analyze resolves them by name
// again and keeps the node when the name still resolves to its form.
//
// The copy takes its nodes and lists from one slab per node and list
// type, sized exactly by a counting walk over prog, so a clone costs one
// allocation per type, not one per node. Every list is a sub-slice
// whose capacity ends at its length, so an append to it reallocates
// instead of writing into the list after it.
func Clone(prog *Program) *Program {
	var c cloner
	c.countProgram(prog)
	return c.program(prog)
}

// cloner holds one slab per node type and per list type.
type cloner struct {
	mods     Slab[Module]
	procs    Slab[Procedure]
	decls    Slab[VarDecl]
	dims     Slab[Dim]
	assigns  Slab[AssignStmt]
	ifs      Slab[IfStmt]
	dos      Slab[DoStmt]
	whiles   Slab[DoWhileStmt]
	callSts  Slab[CallStmt]
	returns  Slab[ReturnStmt]
	exits    Slab[ExitStmt]
	cycles   Slab[CycleStmt]
	stops    Slab[StopStmt]
	prints   Slab[PrintStmt]
	refs     Slab[VarRef]
	ints     Slab[IntLit]
	reals    Slab[RealLit]
	logicals Slab[LogicalLit]
	strs     Slab[StrLit]
	bins     Slab[BinExpr]
	uns      Slab[UnExpr]
	applies  Slab[ApplyExpr]
	callEs   Slab[CallExpr]
	indexes  Slab[IndexExpr]
	modList  Slab[*Module]
	procList Slab[*Procedure]
	declList Slab[*VarDecl]
	stmtList Slab[Stmt]
	exprList Slab[Expr]
	strList  Slab[string]
}

// The counting walk visits exactly what the copy below takes, in any
// order: a node or list it misses costs the copy a second chunk.

func (c *cloner) countProgram(p *Program) {
	c.modList.N += len(p.Modules)
	for _, m := range p.Modules {
		c.mods.N++
		c.strList.N += len(m.Uses)
		c.countDecls(m.Decls)
		c.procList.N += len(m.Procs)
		for _, pr := range m.Procs {
			c.countProc(pr)
		}
	}
	if p.Main != nil {
		c.countProc(p.Main)
	}
}

func (c *cloner) countProc(p *Procedure) {
	c.procs.N++
	c.strList.N += len(p.Params) + len(p.Uses)
	c.countDecls(p.Decls)
	c.countStmts(p.Body)
}

func (c *cloner) countDecls(decls []*VarDecl) {
	c.declList.N += len(decls)
	c.decls.N += len(decls)
	for _, d := range decls {
		c.dims.N += len(d.Dims)
		for _, dim := range d.Dims {
			c.countExpr(dim.Lo)
			c.countExpr(dim.Hi)
		}
		c.countExpr(d.Init)
	}
}

func (c *cloner) countStmts(list []Stmt) {
	c.stmtList.N += len(list)
	for _, s := range list {
		switch s := s.(type) {
		case *AssignStmt:
			c.assigns.N++
			c.countExpr(s.LHS)
			c.countExpr(s.RHS)
		case *IfStmt:
			c.ifs.N++
			c.countExpr(s.Cond)
			c.countStmts(s.Then)
			c.countStmts(s.Else)
		case *DoStmt:
			c.dos.N++
			c.refs.N++
			c.countExpr(s.From)
			c.countExpr(s.To)
			c.countExpr(s.Step)
			c.countStmts(s.Body)
		case *DoWhileStmt:
			c.whiles.N++
			c.countExpr(s.Cond)
			c.countStmts(s.Body)
		case *CallStmt:
			c.callSts.N++
			c.countExprs(s.Args)
		case *ReturnStmt:
			c.returns.N++
		case *ExitStmt:
			c.exits.N++
		case *CycleStmt:
			c.cycles.N++
		case *StopStmt:
			c.stops.N++
			c.countExpr(s.Code)
		case *PrintStmt:
			c.prints.N++
			c.countExprs(s.Args)
		default:
			panic("fortran.Clone: unknown statement")
		}
	}
}

func (c *cloner) countExprs(list []Expr) {
	c.exprList.N += len(list)
	for _, e := range list {
		c.countExpr(e)
	}
}

func (c *cloner) countExpr(e Expr) {
	switch e := e.(type) {
	case nil:
	case *IntLit:
		c.ints.N++
	case *RealLit:
		c.reals.N++
	case *LogicalLit:
		c.logicals.N++
	case *StrLit:
		c.strs.N++
	case *VarRef:
		c.refs.N++
	case *UnExpr:
		c.uns.N++
		c.countExpr(e.X)
	case *BinExpr:
		c.bins.N++
		c.countExpr(e.X)
		c.countExpr(e.Y)
	case *ApplyExpr:
		c.applies.N++
		c.countExprs(e.Args)
	case *CallExpr:
		c.callEs.N++
		c.countExprs(e.Args)
	case *IndexExpr:
		c.indexes.N++
		c.refs.N++
		c.countExprs(e.Indices)
	default:
		panic("fortran.Clone: unknown expression")
	}
}

func (c *cloner) program(p *Program) *Program {
	out := &Program{Modules: c.modList.List(len(p.Modules))}
	for i, m := range p.Modules {
		out.Modules[i] = c.module(m)
	}
	if p.Main != nil {
		out.Main = c.proc(p.Main)
	}
	return out
}

func (c *cloner) module(m *Module) *Module {
	out := c.mods.Put(Module{
		Pos: m.Pos, Name: m.Name, Uses: c.strings(m.Uses), Decls: c.declsOf(m.Decls),
		Procs: c.procList.List(len(m.Procs)),
	})
	for i, p := range m.Procs {
		out.Procs[i] = c.proc(p)
	}
	return out
}

func (c *cloner) proc(p *Procedure) *Procedure {
	return c.procs.Put(Procedure{
		Pos:        p.Pos,
		Kind:       p.Kind,
		Name:       p.Name,
		Params:     c.strings(p.Params),
		ResultName: p.ResultName,
		Uses:       c.strings(p.Uses),
		Decls:      c.declsOf(p.Decls),
		Body:       c.stmts(p.Body),
		WrapperFor: p.WrapperFor,
		qname:      p.qname,
	})
}

func (c *cloner) strings(list []string) []string {
	out := c.strList.List(len(list))
	copy(out, list)
	return out
}

func (c *cloner) declsOf(list []*VarDecl) []*VarDecl {
	out := c.declList.List(len(list))
	for i, d := range list {
		dims := c.dims.List(len(d.Dims))
		for j, dim := range d.Dims {
			dims[j] = Dim{Lo: c.expr(dim.Lo), Hi: c.expr(dim.Hi), Assumed: dim.Assumed}
		}
		out[i] = c.decls.Put(VarDecl{
			Pos: d.Pos, Name: d.Name, Base: d.Base, Kind: d.Kind, Dims: dims,
			Intent: d.Intent, IsParam: d.IsParam, Init: c.expr(d.Init),
		})
	}
	return out
}

func (c *cloner) stmts(list []Stmt) []Stmt {
	out := c.stmtList.List(len(list))
	for i, s := range list {
		out[i] = c.stmt(s)
	}
	return out
}

func (c *cloner) stmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *AssignStmt:
		return c.assigns.Put(AssignStmt{Pos: s.Pos, LHS: c.expr(s.LHS), RHS: c.expr(s.RHS)})
	case *IfStmt:
		return c.ifs.Put(IfStmt{
			Pos: s.Pos, Cond: c.expr(s.Cond),
			Then: c.stmts(s.Then), Else: c.stmts(s.Else), ElseIf: s.ElseIf,
		})
	case *DoStmt:
		return c.dos.Put(DoStmt{
			Pos: s.Pos, Var: c.ref(s.Var),
			From: c.expr(s.From), To: c.expr(s.To), Step: c.expr(s.Step),
			Body: c.stmts(s.Body), NoVector: s.NoVector,
		})
	case *DoWhileStmt:
		return c.whiles.Put(DoWhileStmt{Pos: s.Pos, Cond: c.expr(s.Cond), Body: c.stmts(s.Body)})
	case *CallStmt:
		return c.callSts.Put(CallStmt{Pos: s.Pos, Name: s.Name, Args: c.exprs(s.Args)})
	case *ReturnStmt:
		return c.returns.Put(*s)
	case *ExitStmt:
		return c.exits.Put(*s)
	case *CycleStmt:
		return c.cycles.Put(*s)
	case *StopStmt:
		return c.stops.Put(StopStmt{Pos: s.Pos, Code: c.expr(s.Code)})
	case *PrintStmt:
		return c.prints.Put(PrintStmt{Pos: s.Pos, Args: c.exprs(s.Args)})
	default:
		panic("fortran.Clone: unknown statement")
	}
}

func (c *cloner) exprs(list []Expr) []Expr {
	out := c.exprList.List(len(list))
	for i, e := range list {
		out[i] = c.expr(e)
	}
	return out
}

// ref copies a variable reference without its resolution.
func (c *cloner) ref(r *VarRef) *VarRef {
	return c.refs.Put(VarRef{Pos: r.Pos, Name: r.Name})
}

func (c *cloner) expr(e Expr) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *IntLit:
		return c.ints.Put(*e)
	case *RealLit:
		return c.reals.Put(*e)
	case *LogicalLit:
		return c.logicals.Put(*e)
	case *StrLit:
		return c.strs.Put(*e)
	case *VarRef:
		return c.ref(e)
	case *UnExpr:
		return c.uns.Put(UnExpr{Pos: e.Pos, Op: e.Op, X: c.expr(e.X)})
	case *BinExpr:
		return c.bins.Put(BinExpr{Pos: e.Pos, Op: e.Op, X: c.expr(e.X), Y: c.expr(e.Y)})
	case *ApplyExpr:
		return c.applies.Put(ApplyExpr{Pos: e.Pos, Name: e.Name, Args: c.exprs(e.Args)})
	case *CallExpr:
		return c.callEs.Put(CallExpr{Pos: e.Pos, Name: e.Name, Args: c.exprs(e.Args)})
	case *IndexExpr:
		return c.indexes.Put(IndexExpr{Pos: e.Pos, Arr: c.ref(e.Arr), Indices: c.exprs(e.Indices)})
	default:
		panic("fortran.Clone: unknown expression")
	}
}

// Walk utilities --------------------------------------------------------------

// WalkStmts calls fn for every statement in list, recursively (pre-order).
// If fn returns false, the walk does not descend into that statement.
func WalkStmts(list []Stmt, fn func(Stmt) bool) {
	for _, s := range list {
		walkStmt(s, fn)
	}
}

func walkStmt(s Stmt, fn func(Stmt) bool) {
	if s == nil || !fn(s) {
		return
	}
	switch s := s.(type) {
	case *IfStmt:
		WalkStmts(s.Then, fn)
		WalkStmts(s.Else, fn)
	case *DoStmt:
		WalkStmts(s.Body, fn)
	case *DoWhileStmt:
		WalkStmts(s.Body, fn)
	}
}

// WalkExprs calls fn for every expression appearing in the statement
// tree, recursively (pre-order). If fn returns false the walk does not
// descend into that expression's children.
func WalkExprs(list []Stmt, fn func(Expr) bool) {
	WalkStmts(list, func(s Stmt) bool {
		switch s := s.(type) {
		case *AssignStmt:
			walkExpr(s.LHS, fn)
			walkExpr(s.RHS, fn)
		case *IfStmt:
			walkExpr(s.Cond, fn)
		case *DoStmt:
			walkExpr(s.Var, fn)
			walkExpr(s.From, fn)
			walkExpr(s.To, fn)
			walkExpr(s.Step, fn)
		case *DoWhileStmt:
			walkExpr(s.Cond, fn)
		case *CallStmt:
			for _, a := range s.Args {
				walkExpr(a, fn)
			}
		case *StopStmt:
			walkExpr(s.Code, fn)
		case *PrintStmt:
			for _, a := range s.Args {
				walkExpr(a, fn)
			}
		}
		return true
	})
}

// WalkExpr walks a single expression tree.
func WalkExpr(e Expr, fn func(Expr) bool) { walkExpr(e, fn) }

func walkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch e := e.(type) {
	case *UnExpr:
		walkExpr(e.X, fn)
	case *BinExpr:
		walkExpr(e.X, fn)
		walkExpr(e.Y, fn)
	case *ApplyExpr:
		for _, a := range e.Args {
			walkExpr(a, fn)
		}
	case *CallExpr:
		for _, a := range e.Args {
			walkExpr(a, fn)
		}
	case *IndexExpr:
		walkExpr(e.Arr, fn)
		for _, a := range e.Indices {
			walkExpr(a, fn)
		}
	}
}

// RealDecls returns every real variable declaration in prog (module
// variables and procedure locals), in deterministic order. These are the
// search atoms of the precision tuner (§III-A of the paper).
func RealDecls(prog *Program) []*VarDecl {
	var out []*VarDecl
	add := func(decls []*VarDecl) {
		for _, d := range decls {
			if d.Base == TReal && !d.IsParam {
				out = append(out, d)
			}
		}
	}
	for _, m := range prog.Modules {
		add(m.Decls)
		for _, p := range m.Procs {
			add(p.Decls)
		}
	}
	if prog.Main != nil {
		add(prog.Main.Decls)
	}
	return out
}
