package fortran

// BaseType is the fundamental type of a value or variable.
type BaseType int

// Base types supported by FT.
const (
	TInvalid BaseType = iota
	TReal
	TInteger
	TLogical
	TString // PRINT arguments only
)

func (b BaseType) String() string {
	switch b {
	case TReal:
		return "real"
	case TInteger:
		return "integer"
	case TLogical:
		return "logical"
	case TString:
		return "character"
	default:
		return "invalid"
	}
}

// Type describes the static type of an expression: base type, real kind
// (4 or 8; 0 for non-real), and rank (0 for scalars).
type Type struct {
	Base BaseType
	Kind int
	Rank int
}

func (t Type) String() string {
	s := t.Base.String()
	if t.Base == TReal {
		if t.Kind == 8 {
			s = "real(kind=8)"
		} else {
			s = "real(kind=4)"
		}
	}
	if t.Rank > 0 {
		s += "[]"
	}
	return s
}

// Intent is the declared intent of a dummy argument.
type Intent int

// Intents.
const (
	IntentNone Intent = iota
	IntentIn
	IntentOut
	IntentInOut
)

func (i Intent) String() string {
	switch i {
	case IntentIn:
		return "in"
	case IntentOut:
		return "out"
	case IntentInOut:
		return "inout"
	default:
		return ""
	}
}

// Dim is one dimension of an array declaration. A nil Lo means the
// default lower bound of 1. Assumed marks an assumed-shape dimension
// "(:)" whose extent comes from the actual argument.
type Dim struct {
	Lo, Hi  Expr
	Assumed bool
}

// VarDecl declares exactly one variable (multi-name declaration lines are
// split by the parser, so that each declaration is an independent search
// atom for the precision tuner).
type VarDecl struct {
	Pos     Pos
	Name    string
	Base    BaseType
	Kind    int // real kind: 4 or 8 (parser defaults real to 4)
	Dims    []Dim
	Intent  Intent
	IsParam bool // PARAMETER constant
	Init    Expr

	// Filled by semantic analysis.
	Slot    int        // frame slot (locals) or module slot
	IsArg   bool       // dummy argument of the enclosing procedure
	Proc    *Procedure // enclosing procedure, nil for module variables
	InMod   *Module    // owning module (for module variables)
	ConstI  int64      // evaluated value for integer parameters
	ConstOK bool
}

// IsArray reports whether the declaration has array dimensions.
func (d *VarDecl) IsArray() bool { return len(d.Dims) > 0 }

// Type returns the declared type.
func (d *VarDecl) Type() Type {
	return Type{Base: d.Base, Kind: d.Kind, Rank: len(d.Dims)}
}

// QName returns the fully qualified "module.proc.name" (or "module.name")
// identifier used to key precision assignments.
func (d *VarDecl) QName() string {
	if d.Proc != nil {
		return d.Proc.QName() + "." + d.Name
	}
	if d.InMod != nil {
		return d.InMod.Name + "." + d.Name
	}
	return d.Name
}

// ProcKind distinguishes subroutines, functions, and the main program.
type ProcKind int

// Procedure kinds.
const (
	KSubroutine ProcKind = iota
	KFunction
	KProgram
)

// Procedure is a subroutine, function, or main program.
type Procedure struct {
	Pos        Pos
	Kind       ProcKind
	Name       string
	Params     []string // dummy argument names, in order
	ResultName string   // function result variable (defaults to Name)
	Uses       []string
	Decls      []*VarDecl
	Body       []Stmt

	// WrapperFor is the qualified name of the procedure this one was
	// generated to wrap (transform's parameter-passing shims, paper
	// Fig. 4), or "" for every user-written procedure. Tools that must
	// distinguish generated wrappers — e.g. hotspot CPU-time attribution
	// — check this marker rather than pattern-matching names, so a user
	// procedure that happens to be named like a wrapper is never
	// misclassified.
	WrapperFor string

	// Filled by semantic analysis.
	Module    *Module
	ParamDecl []*VarDecl // decl for each dummy argument, parallel to Params
	Result    *VarDecl   // function result declaration
	NumSlots  int        // local frame size
	Index     int        // global procedure index
}

// QName returns "module.name" ("name" for the main program).
func (p *Procedure) QName() string {
	if p.Module != nil {
		return p.Module.Name + "." + p.Name
	}
	return p.Name
}

// Module is an FT module: module-level declarations plus procedures.
type Module struct {
	Pos   Pos
	Name  string
	Uses  []string
	Decls []*VarDecl
	Procs []*Procedure

	// Filled by semantic analysis.
	Index int
}

// Program is a parsed FT program: a set of modules and an optional main
// program block.
type Program struct {
	Modules []*Module
	Main    *Procedure

	// Filled by semantic analysis.
	ModMap   map[string]*Module
	ProcMap  map[string]*Procedure // qualified name -> proc
	AllProcs []*Procedure          // by Index
}

// Statements ----------------------------------------------------------------

// Stmt is implemented by all statement nodes.
type Stmt interface {
	stmtNode()
	StmtPos() Pos
}

// AssignStmt is "lhs = rhs". LHS is a *VarRef or *IndexExpr.
type AssignStmt struct {
	Pos Pos
	LHS Expr
	RHS Expr
}

// IfStmt is a block IF. ELSE IF chains are represented as a nested IfStmt
// as the sole statement of Else.
type IfStmt struct {
	Pos    Pos
	Cond   Expr
	Then   []Stmt
	Else   []Stmt
	ElseIf bool // this node came from an ELSE IF (printer hint)
}

// DoStmt is a counted DO loop.
type DoStmt struct {
	Pos      Pos
	Var      *VarRef
	From, To Expr
	Step     Expr // nil means 1
	Body     []Stmt

	// NoVector marks loops annotated "!dir$ novector" in the source,
	// modeling loop-carried dependences the cost model must respect.
	NoVector bool
}

// DoWhileStmt is "do while (cond)".
type DoWhileStmt struct {
	Pos  Pos
	Cond Expr
	Body []Stmt
}

// CallStmt is "call name(args)".
type CallStmt struct {
	Pos  Pos
	Name string
	Args []Expr

	Proc      *Procedure // resolved callee (nil for intrinsic subroutines)
	Intrinsic string     // non-empty for intrinsic subroutines
}

// ReturnStmt returns from the enclosing procedure.
type ReturnStmt struct{ Pos Pos }

// ExitStmt exits the innermost loop.
type ExitStmt struct{ Pos Pos }

// CycleStmt continues the innermost loop.
type CycleStmt struct{ Pos Pos }

// StopStmt halts the program. A non-nil Code signals an error stop, which
// the dynamic evaluator classifies as a runtime failure of the variant.
type StopStmt struct {
	Pos  Pos
	Code Expr
}

// PrintStmt is "print *, args".
type PrintStmt struct {
	Pos  Pos
	Args []Expr
}

func (*AssignStmt) stmtNode()  {}
func (*IfStmt) stmtNode()      {}
func (*DoStmt) stmtNode()      {}
func (*DoWhileStmt) stmtNode() {}
func (*CallStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()  {}
func (*ExitStmt) stmtNode()    {}
func (*CycleStmt) stmtNode()   {}
func (*StopStmt) stmtNode()    {}
func (*PrintStmt) stmtNode()   {}

// StmtPos implementations.
func (s *AssignStmt) StmtPos() Pos  { return s.Pos }
func (s *IfStmt) StmtPos() Pos      { return s.Pos }
func (s *DoStmt) StmtPos() Pos      { return s.Pos }
func (s *DoWhileStmt) StmtPos() Pos { return s.Pos }
func (s *CallStmt) StmtPos() Pos    { return s.Pos }
func (s *ReturnStmt) StmtPos() Pos  { return s.Pos }
func (s *ExitStmt) StmtPos() Pos    { return s.Pos }
func (s *CycleStmt) StmtPos() Pos   { return s.Pos }
func (s *StopStmt) StmtPos() Pos    { return s.Pos }
func (s *PrintStmt) StmtPos() Pos   { return s.Pos }

// Expressions ---------------------------------------------------------------

// Expr is implemented by all expression nodes. Typ is valid after
// semantic analysis.
type Expr interface {
	exprNode()
	ExprPos() Pos
	Type() Type
}

// VarRef is a reference to a scalar variable or a whole array.
type VarRef struct {
	Pos  Pos
	Name string

	Decl *VarDecl // resolved declaration
	Typ  Type
}

// IntLit is an integer literal.
type IntLit struct {
	Pos Pos
	Val int64
}

// RealLit is a real literal with an explicit kind.
type RealLit struct {
	Pos  Pos
	Val  float64
	Kind int
}

// LogicalLit is .true. or .false..
type LogicalLit struct {
	Pos Pos
	Val bool
}

// StrLit is a character literal (PRINT arguments only).
type StrLit struct {
	Pos Pos
	Val string
}

// BinExpr is a binary operation.
type BinExpr struct {
	Pos  Pos
	Op   TokKind
	X, Y Expr
	Typ  Type
}

// UnExpr is a unary operation (-x, .not. x, +x).
type UnExpr struct {
	Pos Pos
	Op  TokKind
	X   Expr
	Typ Type
}

// ApplyExpr is the parse-time form of "name(args)", ambiguous between a
// function call and an array element reference. Semantic analysis
// replaces it with a *CallExpr or an *IndexExpr.
type ApplyExpr struct {
	Pos  Pos
	Name string
	Args []Expr
}

// CallExpr is a resolved function call (user function or intrinsic).
type CallExpr struct {
	Pos  Pos
	Name string
	Args []Expr

	Proc      *Procedure // nil for intrinsics
	Intrinsic string     // non-empty for intrinsic functions
	Typ       Type
}

// IndexExpr is a resolved array element reference a(i[,j...]).
type IndexExpr struct {
	Pos     Pos
	Arr     *VarRef
	Indices []Expr
	Typ     Type
}

func (*VarRef) exprNode()     {}
func (*IntLit) exprNode()     {}
func (*RealLit) exprNode()    {}
func (*LogicalLit) exprNode() {}
func (*StrLit) exprNode()     {}
func (*BinExpr) exprNode()    {}
func (*UnExpr) exprNode()     {}
func (*ApplyExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
func (*IndexExpr) exprNode()  {}

// ExprPos implementations.
func (e *VarRef) ExprPos() Pos     { return e.Pos }
func (e *IntLit) ExprPos() Pos     { return e.Pos }
func (e *RealLit) ExprPos() Pos    { return e.Pos }
func (e *LogicalLit) ExprPos() Pos { return e.Pos }
func (e *StrLit) ExprPos() Pos     { return e.Pos }
func (e *BinExpr) ExprPos() Pos    { return e.Pos }
func (e *UnExpr) ExprPos() Pos     { return e.Pos }
func (e *ApplyExpr) ExprPos() Pos  { return e.Pos }
func (e *CallExpr) ExprPos() Pos   { return e.Pos }
func (e *IndexExpr) ExprPos() Pos  { return e.Pos }

// Type implementations.
func (e *VarRef) Type() Type     { return e.Typ }
func (e *IntLit) Type() Type     { return Type{Base: TInteger} }
func (e *RealLit) Type() Type    { return Type{Base: TReal, Kind: e.Kind} }
func (e *LogicalLit) Type() Type { return Type{Base: TLogical} }
func (e *StrLit) Type() Type     { return Type{Base: TString} }
func (e *BinExpr) Type() Type    { return e.Typ }
func (e *UnExpr) Type() Type     { return e.Typ }
func (e *ApplyExpr) Type() Type  { return Type{} }
func (e *CallExpr) Type() Type   { return e.Typ }
func (e *IndexExpr) Type() Type  { return e.Typ }
