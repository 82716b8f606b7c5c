package fortran

import (
	"fmt"
)

// Parser builds an AST from a token stream. It is a hand-written
// recursive-descent parser over the line-oriented FT grammar.
type Parser struct {
	toks []Token
	pos  int
	errs []*Error
	file string
}

// Parse lexes and parses src into a Program. The returned error is the
// first diagnostic if any were produced.
func Parse(src string) (*Program, error) {
	return ParseFile("", src)
}

// ParseFile is Parse with a file name used in diagnostics.
func ParseFile(file, src string) (*Program, error) {
	toks, lexErrs := Lex(src)
	p := &Parser{toks: toks, file: file}
	for _, e := range lexErrs {
		e.File = file
		p.errs = append(p.errs, e)
	}
	prog := p.parseProgram()
	if len(p.errs) > 0 {
		return prog, p.errs[0]
	}
	return prog, nil
}

// MustParse parses src and panics on error; intended for embedded model
// sources that are fixed at build time.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("fortran.MustParse: %v", err))
	}
	return prog
}

func (p *Parser) errorf(pos Pos, format string, args ...any) {
	e := errf(pos, format, args...)
	e.File = p.file
	p.errs = append(p.errs, e)
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.advance(); return t }

func (p *Parser) advance() {
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
}

func (p *Parser) at(k TokKind) bool { return p.cur().Kind == k }

// atKw reports whether the current token is the identifier kw.
func (p *Parser) atKw(kw string) bool {
	t := p.cur()
	return t.Kind == IDENT && t.Text == kw
}

func (p *Parser) acceptKw(kw string) bool {
	if p.atKw(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k TokKind) Token {
	t := p.cur()
	if t.Kind != k {
		p.errorf(t.Pos, "expected %v, found %v", k, t)
		// Attempt resynchronization at next newline.
		p.syncLine()
		return Token{Kind: k, Pos: t.Pos}
	}
	p.advance()
	return t
}

func (p *Parser) expectKw(kw string) {
	t := p.cur()
	if t.Kind != IDENT || t.Text != kw {
		p.errorf(t.Pos, "expected %q, found %v", kw, t)
		p.syncLine()
		return
	}
	p.advance()
}

// eol consumes the end of a statement (NEWLINE or ';'), tolerating blank
// lines.
func (p *Parser) eol() {
	if p.at(SEMI) || p.at(NEWLINE) {
		p.advance()
		p.skipBlankLines()
		return
	}
	if p.at(EOF) {
		return
	}
	p.errorf(p.cur().Pos, "expected end of statement, found %v", p.cur())
	p.syncLine()
}

func (p *Parser) skipBlankLines() {
	for p.at(NEWLINE) {
		p.advance()
	}
}

func (p *Parser) syncLine() {
	for !p.at(NEWLINE) && !p.at(EOF) {
		p.advance()
	}
	p.skipBlankLines()
}

// parseProgram parses a whole source file: modules and at most one
// program block, in any order.
func (p *Parser) parseProgram() *Program {
	prog := &Program{}
	p.skipBlankLines()
	for !p.at(EOF) {
		switch {
		case p.atKw("module"):
			prog.Modules = append(prog.Modules, p.parseModule())
		case p.atKw("program"):
			mp := p.parseMainProgram()
			if prog.Main != nil {
				p.errorf(mp.Pos, "duplicate program block %q", mp.Name)
			}
			prog.Main = mp
		default:
			p.errorf(p.cur().Pos, "expected 'module' or 'program' at top level, found %v", p.cur())
			p.syncLine()
		}
		p.skipBlankLines()
	}
	return prog
}

func (p *Parser) parseModule() *Module {
	pos := p.cur().Pos
	p.expectKw("module")
	name := p.expect(IDENT).Text
	p.eol()
	m := &Module{Pos: pos, Name: name}

	// Header: use statements, implicit none, declarations.
	for {
		switch {
		case p.atKw("use"):
			p.advance()
			m.Uses = append(m.Uses, p.expect(IDENT).Text)
			p.eol()
		case p.atKw("implicit"):
			p.advance()
			p.expectKw("none")
			p.eol()
		case p.atDeclStart():
			m.Decls = append(m.Decls, p.parseDeclLine()...)
		default:
			goto header_done
		}
	}
header_done:

	if p.acceptKw("contains") {
		p.eol()
		for p.atKw("subroutine") || p.atKw("function") {
			m.Procs = append(m.Procs, p.parseProcedure())
			p.skipBlankLines()
		}
	}
	p.expectKw("end")
	p.expectKw("module")
	if p.at(IDENT) {
		if got := p.next().Text; got != name {
			p.errorf(pos, "end module %q does not match module %q", got, name)
		}
	}
	p.eol()
	return m
}

func (p *Parser) parseMainProgram() *Procedure {
	pos := p.cur().Pos
	p.expectKw("program")
	name := p.expect(IDENT).Text
	p.eol()
	proc := &Procedure{Pos: pos, Kind: KProgram, Name: name}
	p.parseProcBody(proc)
	p.expectKw("end")
	p.expectKw("program")
	if p.at(IDENT) {
		p.advance()
	}
	p.eol()
	return proc
}

func (p *Parser) parseProcedure() *Procedure {
	pos := p.cur().Pos
	var kind ProcKind
	switch {
	case p.acceptKw("subroutine"):
		kind = KSubroutine
	case p.acceptKw("function"):
		kind = KFunction
	default:
		p.errorf(pos, "expected subroutine or function")
		p.syncLine()
		return &Procedure{Pos: pos, Kind: KSubroutine, Name: "<error>"}
	}
	name := p.expect(IDENT).Text
	proc := &Procedure{Pos: pos, Kind: kind, Name: name}
	if p.at(LPAREN) {
		p.advance()
		for !p.at(RPAREN) && !p.atStmtEnd() {
			proc.Params = append(proc.Params, p.expect(IDENT).Text)
			if !p.listSep() {
				break
			}
		}
		p.expect(RPAREN)
	}
	if kind == KFunction {
		proc.ResultName = name
		if p.acceptKw("result") {
			p.expect(LPAREN)
			proc.ResultName = p.expect(IDENT).Text
			p.expect(RPAREN)
		}
	}
	p.eol()
	p.parseProcBody(proc)
	p.expectKw("end")
	switch kind {
	case KSubroutine:
		p.expectKw("subroutine")
	case KFunction:
		p.expectKw("function")
	}
	if p.at(IDENT) {
		if got := p.next().Text; got != name {
			p.errorf(pos, "end procedure %q does not match %q", got, name)
		}
	}
	p.eol()
	return proc
}

// parseProcBody parses uses, declarations, then executable statements up
// to (but not consuming) the closing "end".
func (p *Parser) parseProcBody(proc *Procedure) {
	for {
		switch {
		case p.atKw("use"):
			p.advance()
			proc.Uses = append(proc.Uses, p.expect(IDENT).Text)
			p.eol()
		case p.atKw("implicit"):
			p.advance()
			p.expectKw("none")
			p.eol()
		case p.atDeclStart():
			proc.Decls = append(proc.Decls, p.parseDeclLine()...)
		default:
			proc.Body = p.parseStmts()
			return
		}
	}
}

// atDeclStart reports whether the current line begins a type declaration.
func (p *Parser) atDeclStart() bool {
	return p.atKw("real") || p.atKw("integer") || p.atKw("logical") ||
		p.atKw("double")
}

// parseDeclLine parses one declaration statement, which may declare
// several names; one VarDecl is returned per name.
func (p *Parser) parseDeclLine() []*VarDecl {
	pos := p.cur().Pos
	base := TInvalid
	kind := 0
	switch {
	case p.acceptKw("real"):
		base, kind = TReal, 4
		if p.at(LPAREN) {
			p.advance()
			if p.acceptKw("kind") {
				p.expect(ASSIGN)
			}
			kt := p.expect(INT)
			switch kt.Int {
			case 4, 8:
				kind = int(kt.Int)
			default:
				p.errorf(kt.Pos, "unsupported real kind %d (want 4 or 8)", kt.Int)
			}
			p.expect(RPAREN)
		}
	case p.acceptKw("double"):
		p.expectKw("precision")
		base, kind = TReal, 8
	case p.acceptKw("integer"):
		base = TInteger
		if p.at(LPAREN) { // integer(kind=...) tolerated, kind ignored
			p.advance()
			if p.acceptKw("kind") {
				p.expect(ASSIGN)
			}
			p.expect(INT)
			p.expect(RPAREN)
		}
	case p.acceptKw("logical"):
		base = TLogical
	default:
		p.errorf(pos, "expected type declaration")
		p.syncLine()
		return nil
	}

	isParam := false
	intent := IntentNone
	var dimAttr []Dim
	for p.at(COMMA) {
		p.advance()
		attrPos := p.cur().Pos
		switch {
		case p.acceptKw("parameter"):
			isParam = true
		case p.acceptKw("intent"):
			p.expect(LPAREN)
			switch {
			case p.acceptKw("in"):
				intent = IntentIn
			case p.acceptKw("out"):
				intent = IntentOut
			case p.acceptKw("inout"):
				intent = IntentInOut
			default:
				p.errorf(p.cur().Pos, "expected in/out/inout in intent")
				p.syncLine()
				return nil
			}
			p.expect(RPAREN)
		case p.acceptKw("dimension"):
			p.expect(LPAREN)
			dimAttr = p.parseDims()
			p.expect(RPAREN)
		case p.acceptKw("save"), p.acceptKw("target"), p.acceptKw("allocatable"):
			// Accepted and ignored: all FT arrays are statically shaped.
		default:
			p.errorf(attrPos, "unsupported declaration attribute %v", p.cur())
			p.syncLine()
			return nil
		}
	}
	p.expect(DCOLON)

	var decls []*VarDecl
	for {
		npos := p.cur().Pos
		name := p.expect(IDENT).Text
		d := &VarDecl{
			Pos: npos, Name: name, Base: base, Kind: kind,
			Intent: intent, IsParam: isParam,
		}
		if p.at(LPAREN) {
			p.advance()
			d.Dims = p.parseDims()
			p.expect(RPAREN)
		} else if dimAttr != nil {
			d.Dims = dimAttr
		}
		if p.at(ASSIGN) {
			p.advance()
			d.Init = p.parseExpr()
		}
		decls = append(decls, d)
		if !p.at(COMMA) {
			break
		}
		p.advance()
	}
	p.eol()
	return decls
}

// parseDims parses a dimension list: "n", "0:n", ":", "n,m", ...
func (p *Parser) parseDims() []Dim {
	var dims []Dim
	for {
		if p.at(COLON) {
			p.advance()
			dims = append(dims, Dim{Assumed: true})
		} else {
			e := p.parseExpr()
			if p.at(COLON) {
				p.advance()
				hi := p.parseExpr()
				dims = append(dims, Dim{Lo: e, Hi: hi})
			} else {
				dims = append(dims, Dim{Hi: e})
			}
		}
		if !p.at(COMMA) {
			return dims
		}
		p.advance()
	}
}

// parseStmts parses statements until an "end", "else", "contains", or EOF
// is seen (without consuming it).
func (p *Parser) parseStmts() []Stmt {
	var stmts []Stmt
	for {
		p.skipBlankLines()
		if p.at(EOF) || p.atKw("end") || p.atKw("else") ||
			p.atKw("contains") || p.atKw("elseif") {
			return stmts
		}
		s := p.parseStmt()
		if s != nil {
			stmts = append(stmts, s)
		}
	}
}

func (p *Parser) parseStmt() Stmt {
	pos := p.cur().Pos
	switch {
	case p.at(DIRECTIVE):
		dir := p.next().Text
		p.eol()
		s := p.parseStmt()
		if dir == "novector" {
			if d, ok := s.(*DoStmt); ok {
				d.NoVector = true
			} else {
				p.errorf(pos, "!dir$ novector must precede a DO loop")
			}
		} else {
			p.errorf(pos, "unknown directive %q", dir)
		}
		return s
	case p.atKw("if"):
		return p.parseIf()
	case p.atKw("do"):
		return p.parseDo()
	case p.atKw("call"):
		p.advance()
		name := p.expect(IDENT).Text
		var args []Expr
		if p.at(LPAREN) {
			args = p.parseArgs()
		}
		p.eol()
		return &CallStmt{Pos: pos, Name: name, Args: args}
	case p.atKw("return"):
		p.advance()
		p.eol()
		return &ReturnStmt{Pos: pos}
	case p.atKw("exit"):
		p.advance()
		p.eol()
		return &ExitStmt{Pos: pos}
	case p.atKw("cycle"):
		p.advance()
		p.eol()
		return &CycleStmt{Pos: pos}
	case p.atKw("stop"):
		p.advance()
		var code Expr
		if !p.at(NEWLINE) && !p.at(SEMI) && !p.at(EOF) {
			code = p.parseExpr()
		}
		p.eol()
		return &StopStmt{Pos: pos, Code: code}
	case p.atKw("print"):
		p.advance()
		p.expect(STAR)
		var args []Expr
		for p.at(COMMA) {
			p.advance()
			args = append(args, p.parseExpr())
		}
		p.eol()
		return &PrintStmt{Pos: pos, Args: args}
	case p.at(IDENT):
		// Assignment: lhs [= expr]; lhs is ident or ident(indices).
		lhs := p.parsePrimary()
		switch lhs.(type) {
		case *VarRef, *ApplyExpr:
		default:
			p.errorf(pos, "invalid assignment target")
		}
		p.expect(ASSIGN)
		rhs := p.parseExpr()
		p.eol()
		return &AssignStmt{Pos: pos, LHS: lhs, RHS: rhs}
	default:
		p.errorf(pos, "unexpected token %v at start of statement", p.cur())
		p.syncLine()
		return nil
	}
}

func (p *Parser) parseIf() Stmt {
	pos := p.cur().Pos
	p.expectKw("if")
	p.expect(LPAREN)
	cond := p.parseExpr()
	p.expect(RPAREN)
	if !p.atKw("then") {
		// Single-statement logical IF.
		body := p.parseStmt()
		var then []Stmt
		if body != nil {
			then = []Stmt{body}
		}
		return &IfStmt{Pos: pos, Cond: cond, Then: then}
	}
	p.expectKw("then")
	p.eol()
	node := &IfStmt{Pos: pos, Cond: cond}
	node.Then = p.parseStmts()
	for {
		switch {
		case p.atKw("elseif"):
			p.advance()
			elif := p.parseElseIfTail()
			node.Else = []Stmt{elif}
			return node
		case p.atKw("else"):
			p.advance()
			if p.atKw("if") {
				p.advance()
				elif := p.parseElseIfTail()
				node.Else = []Stmt{elif}
				return node
			}
			p.eol()
			node.Else = p.parseStmts()
			p.expectKw("end")
			p.expectKw("if")
			p.eol()
			return node
		case p.atKw("end"):
			p.advance()
			p.expectKw("if")
			p.eol()
			return node
		default:
			p.errorf(p.cur().Pos, "expected else/end if, found %v", p.cur())
			p.syncLine()
			return node
		}
	}
}

// parseElseIfTail parses "(cond) then body ..." after ELSE IF, returning
// a nested IfStmt and consuming the final END IF.
func (p *Parser) parseElseIfTail() *IfStmt {
	pos := p.cur().Pos
	p.expect(LPAREN)
	cond := p.parseExpr()
	p.expect(RPAREN)
	p.expectKw("then")
	p.eol()
	node := &IfStmt{Pos: pos, Cond: cond, ElseIf: true}
	node.Then = p.parseStmts()
	switch {
	case p.atKw("elseif"):
		p.advance()
		node.Else = []Stmt{p.parseElseIfTail()}
	case p.atKw("else"):
		p.advance()
		if p.atKw("if") {
			p.advance()
			node.Else = []Stmt{p.parseElseIfTail()}
		} else {
			p.eol()
			node.Else = p.parseStmts()
			p.expectKw("end")
			p.expectKw("if")
			p.eol()
		}
	case p.atKw("end"):
		p.advance()
		p.expectKw("if")
		p.eol()
	default:
		p.errorf(p.cur().Pos, "expected else/end if, found %v", p.cur())
		p.syncLine()
	}
	return node
}

func (p *Parser) parseDo() Stmt {
	pos := p.cur().Pos
	p.expectKw("do")
	if p.acceptKw("while") {
		p.expect(LPAREN)
		cond := p.parseExpr()
		p.expect(RPAREN)
		p.eol()
		body := p.parseStmts()
		p.expectKw("end")
		p.expectKw("do")
		p.eol()
		return &DoWhileStmt{Pos: pos, Cond: cond, Body: body}
	}
	vtok := p.expect(IDENT)
	v := &VarRef{Pos: vtok.Pos, Name: vtok.Text}
	p.expect(ASSIGN)
	from := p.parseExpr()
	p.expect(COMMA)
	to := p.parseExpr()
	var step Expr
	if p.at(COMMA) {
		p.advance()
		step = p.parseExpr()
	}
	p.eol()
	body := p.parseStmts()
	p.expectKw("end")
	p.expectKw("do")
	p.eol()
	return &DoStmt{Pos: pos, Var: v, From: from, To: to, Step: step, Body: body}
}

func (p *Parser) parseArgs() []Expr {
	p.expect(LPAREN)
	var args []Expr
	for !p.at(RPAREN) && !p.atStmtEnd() {
		args = append(args, p.parseExpr())
		if !p.listSep() {
			break
		}
	}
	p.expect(RPAREN)
	return args
}

// atStmtEnd reports whether the current token ends the statement, so a
// parenthesized list that reaches it is missing its ')'.
func (p *Parser) atStmtEnd() bool {
	return p.at(NEWLINE) || p.at(SEMI) || p.at(EOF)
}

// listSep consumes the ',' between two list items. It reports false,
// ending the list, at the closing ')', at the end of the statement, and
// after any other token, which it reports before skipping the line.
func (p *Parser) listSep() bool {
	if p.at(RPAREN) || p.atStmtEnd() {
		return false
	}
	if !p.at(COMMA) {
		p.expect(COMMA)
		return false
	}
	p.advance()
	return true
}

// Expression parsing, lowest to highest precedence:
// .or. | .and. | .not. | relational | additive | multiplicative | unary | ** | primary

func (p *Parser) parseExpr() Expr { return p.parseOr() }

func (p *Parser) parseOr() Expr {
	x := p.parseAnd()
	for p.at(OR) {
		pos := p.next().Pos
		y := p.parseAnd()
		x = &BinExpr{Pos: pos, Op: OR, X: x, Y: y}
	}
	return x
}

func (p *Parser) parseAnd() Expr {
	x := p.parseNot()
	for p.at(AND) {
		pos := p.next().Pos
		y := p.parseNot()
		x = &BinExpr{Pos: pos, Op: AND, X: x, Y: y}
	}
	return x
}

func (p *Parser) parseNot() Expr {
	if p.at(NOT) {
		pos := p.next().Pos
		x := p.parseNot()
		return &UnExpr{Pos: pos, Op: NOT, X: x}
	}
	return p.parseRel()
}

func (p *Parser) parseRel() Expr {
	x := p.parseAdd()
	switch k := p.cur().Kind; k {
	case EQ, NE, LT, LE, GT, GE:
		pos := p.next().Pos
		y := p.parseAdd()
		return &BinExpr{Pos: pos, Op: k, X: x, Y: y}
	}
	return x
}

func (p *Parser) parseAdd() Expr {
	var x Expr
	// Leading unary sign binds looser than * and / per the Fortran grammar.
	switch k := p.cur().Kind; k {
	case MINUS, PLUS:
		pos := p.next().Pos
		operand := p.parseMul()
		if k == MINUS {
			x = &UnExpr{Pos: pos, Op: MINUS, X: operand}
		} else {
			x = operand
		}
	default:
		x = p.parseMul()
	}
	for p.at(PLUS) || p.at(MINUS) {
		t := p.next()
		y := p.parseMul()
		x = &BinExpr{Pos: t.Pos, Op: t.Kind, X: x, Y: y}
	}
	return x
}

func (p *Parser) parseMul() Expr {
	x := p.parsePow()
	for p.at(STAR) || p.at(SLASH) {
		t := p.next()
		y := p.parsePow()
		x = &BinExpr{Pos: t.Pos, Op: t.Kind, X: x, Y: y}
	}
	return x
}

func (p *Parser) parsePow() Expr {
	x := p.parsePrimary()
	if p.at(POW) {
		pos := p.next().Pos
		// ** is right-associative; "-" after ** is a unary operand sign.
		var y Expr
		if p.at(MINUS) {
			mpos := p.next().Pos
			y = &UnExpr{Pos: mpos, Op: MINUS, X: p.parsePow()}
		} else {
			y = p.parsePow()
		}
		return &BinExpr{Pos: pos, Op: POW, X: x, Y: y}
	}
	return x
}

func (p *Parser) parsePrimary() Expr {
	t := p.cur()
	switch t.Kind {
	case INT:
		p.advance()
		return &IntLit{Pos: t.Pos, Val: t.Int}
	case REAL:
		p.advance()
		return &RealLit{Pos: t.Pos, Val: t.Real, Kind: t.RK}
	case TRUE:
		p.advance()
		return &LogicalLit{Pos: t.Pos, Val: true}
	case FALSE:
		p.advance()
		return &LogicalLit{Pos: t.Pos, Val: false}
	case STRING:
		p.advance()
		return &StrLit{Pos: t.Pos, Val: t.Text}
	case LPAREN:
		p.advance()
		e := p.parseExpr()
		p.expect(RPAREN)
		return e
	case IDENT:
		p.advance()
		if p.at(LPAREN) {
			args := p.parseArgs()
			return &ApplyExpr{Pos: t.Pos, Name: t.Text, Args: args}
		}
		return &VarRef{Pos: t.Pos, Name: t.Text}
	case MINUS:
		// Reached only in argument/index contexts like f(-x).
		p.advance()
		return &UnExpr{Pos: t.Pos, Op: MINUS, X: p.parseMul()}
	default:
		p.errorf(t.Pos, "unexpected token %v in expression", t)
		p.advance()
		return &IntLit{Pos: t.Pos, Val: 0}
	}
}
