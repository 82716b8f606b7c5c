package fortran

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders prog back to FT source. The output re-parses to an
// equivalent program (round-trip property, tested in printer_test.go) and
// is the format in which mixed-precision variants are shown to users.
func Print(prog *Program) string {
	var pr printer
	for i, m := range prog.Modules {
		if i > 0 {
			pr.nl()
		}
		pr.module(m)
	}
	if prog.Main != nil {
		if len(prog.Modules) > 0 {
			pr.nl()
		}
		pr.mainProgram(prog.Main)
	}
	return pr.sb.String()
}

type printer struct {
	sb     strings.Builder
	indent int
}

func (pr *printer) line(format string, args ...any) {
	pr.sb.WriteString(strings.Repeat("  ", pr.indent))
	fmt.Fprintf(&pr.sb, format, args...)
	pr.sb.WriteByte('\n')
}

func (pr *printer) nl() { pr.sb.WriteByte('\n') }

func (pr *printer) module(m *Module) {
	pr.line("module %s", m.Name)
	pr.indent++
	for _, u := range m.Uses {
		pr.line("use %s", u)
	}
	pr.line("implicit none")
	for _, d := range m.Decls {
		pr.decl(d)
	}
	if len(m.Procs) > 0 {
		pr.indent--
		pr.line("contains")
		pr.indent++
		for _, p := range m.Procs {
			pr.nl()
			pr.proc(p)
		}
	}
	pr.indent--
	pr.line("end module %s", m.Name)
}

func (pr *printer) mainProgram(p *Procedure) {
	pr.line("program %s", p.Name)
	pr.indent++
	pr.procBody(p)
	pr.indent--
	pr.line("end program %s", p.Name)
}

func (pr *printer) proc(p *Procedure) {
	params := strings.Join(p.Params, ", ")
	switch p.Kind {
	case KSubroutine:
		pr.line("subroutine %s(%s)", p.Name, params)
	case KFunction:
		if p.ResultName != p.Name {
			pr.line("function %s(%s) result(%s)", p.Name, params, p.ResultName)
		} else {
			pr.line("function %s(%s)", p.Name, params)
		}
	case KProgram:
		pr.mainProgram(p)
		return
	}
	pr.indent++
	pr.procBody(p)
	pr.indent--
	switch p.Kind {
	case KSubroutine:
		pr.line("end subroutine %s", p.Name)
	case KFunction:
		pr.line("end function %s", p.Name)
	}
}

func (pr *printer) procBody(p *Procedure) {
	for _, u := range p.Uses {
		pr.line("use %s", u)
	}
	pr.line("implicit none")
	for _, d := range p.Decls {
		pr.decl(d)
	}
	pr.stmts(p.Body)
}

// DeclString renders a declaration as a single line of FT source.
func DeclString(d *VarDecl) string {
	var attrs []string
	switch d.Base {
	case TReal:
		attrs = append(attrs, fmt.Sprintf("real(kind=%d)", d.Kind))
	case TInteger:
		attrs = append(attrs, "integer")
	case TLogical:
		attrs = append(attrs, "logical")
	}
	if d.IsParam {
		attrs = append(attrs, "parameter")
	}
	if d.Intent != IntentNone {
		attrs = append(attrs, fmt.Sprintf("intent(%s)", d.Intent))
	}
	s := strings.Join(attrs, ", ") + " :: " + d.Name
	if len(d.Dims) > 0 {
		var ds []string
		for _, dim := range d.Dims {
			switch {
			case dim.Assumed:
				ds = append(ds, ":")
			case dim.Lo != nil:
				ds = append(ds, ExprString(dim.Lo)+":"+ExprString(dim.Hi))
			default:
				ds = append(ds, ExprString(dim.Hi))
			}
		}
		s += "(" + strings.Join(ds, ", ") + ")"
	}
	if d.Init != nil {
		s += " = " + ExprString(d.Init)
	}
	return s
}

func (pr *printer) decl(d *VarDecl) {
	pr.line("%s", DeclString(d))
}

func (pr *printer) stmts(list []Stmt) {
	for _, s := range list {
		pr.stmt(s)
	}
}

func (pr *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *AssignStmt:
		pr.line("%s = %s", ExprString(s.LHS), ExprString(s.RHS))
	case *IfStmt:
		pr.ifStmt(s, "if")
	case *DoStmt:
		if s.NoVector {
			pr.line("!dir$ novector")
		}
		hdr := fmt.Sprintf("do %s = %s, %s", s.Var.Name, ExprString(s.From), ExprString(s.To))
		if s.Step != nil {
			hdr += ", " + ExprString(s.Step)
		}
		pr.line("%s", hdr)
		pr.indent++
		pr.stmts(s.Body)
		pr.indent--
		pr.line("end do")
	case *DoWhileStmt:
		pr.line("do while (%s)", ExprString(s.Cond))
		pr.indent++
		pr.stmts(s.Body)
		pr.indent--
		pr.line("end do")
	case *CallStmt:
		if len(s.Args) == 0 {
			pr.line("call %s()", s.Name)
		} else {
			pr.line("call %s(%s)", s.Name, exprList(s.Args))
		}
	case *ReturnStmt:
		pr.line("return")
	case *ExitStmt:
		pr.line("exit")
	case *CycleStmt:
		pr.line("cycle")
	case *StopStmt:
		if s.Code != nil {
			pr.line("stop %s", ExprString(s.Code))
		} else {
			pr.line("stop")
		}
	case *PrintStmt:
		if len(s.Args) == 0 {
			pr.line("print *")
		} else {
			pr.line("print *, %s", exprList(s.Args))
		}
	}
}

func (pr *printer) ifStmt(s *IfStmt, kw string) {
	pr.line("%s (%s) then", kw, ExprString(s.Cond))
	pr.indent++
	pr.stmts(s.Then)
	pr.indent--
	if len(s.Else) == 1 {
		if elif, ok := s.Else[0].(*IfStmt); ok && elif.ElseIf {
			pr.ifStmt(elif, "else if")
			return
		}
	}
	if len(s.Else) > 0 {
		pr.line("else")
		pr.indent++
		pr.stmts(s.Else)
		pr.indent--
	}
	pr.line("end if")
}

func exprList(args []Expr) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = ExprString(a)
	}
	return strings.Join(parts, ", ")
}

// ExprString renders an expression as FT source.
func ExprString(e Expr) string {
	return exprPrec(e, 0)
}

// Operator precedence levels for parenthesization, matching the parser.
func opPrec(op TokKind) int {
	switch op {
	case OR:
		return 1
	case AND:
		return 2
	case EQ, NE, LT, LE, GT, GE:
		return 4
	case PLUS, MINUS:
		return 5
	case STAR, SLASH:
		return 6
	case POW:
		return 8
	default:
		return 0
	}
}

func opText(op TokKind) string {
	switch op {
	case AND:
		return ".and."
	case OR:
		return ".or."
	default:
		return op.String()
	}
}

func exprPrec(e Expr, min int) string {
	switch e := e.(type) {
	case *IntLit:
		return strconv.FormatInt(e.Val, 10)
	case *RealLit:
		s := strconv.FormatFloat(e.Val, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		// Normalize exponent form so the kind suffix parses.
		s = strings.ReplaceAll(s, "E", "e")
		return fmt.Sprintf("%s_%d", s, e.Kind)
	case *LogicalLit:
		if e.Val {
			return ".true."
		}
		return ".false."
	case *StrLit:
		return "'" + strings.ReplaceAll(e.Val, "'", "''") + "'"
	case *VarRef:
		return e.Name
	case *UnExpr:
		var s string
		if e.Op == NOT {
			s = ".not. " + exprPrec(e.X, 3)
		} else {
			s = "-" + exprPrec(e.X, 7)
		}
		if min > 3 {
			return "(" + s + ")"
		}
		return s
	case *BinExpr:
		p := opPrec(e.Op)
		lhs := exprPrec(e.X, p)
		// Left-associative: right operand needs higher precedence.
		// POW is right-associative: left operand needs higher precedence.
		rhs := exprPrec(e.Y, p+1)
		if e.Op == POW {
			lhs = exprPrec(e.X, p+1)
			rhs = exprPrec(e.Y, p)
		}
		s := lhs + " " + opText(e.Op) + " " + rhs
		if e.Op == POW {
			s = lhs + opText(e.Op) + rhs
		}
		if p < min {
			return "(" + s + ")"
		}
		return s
	case *ApplyExpr:
		return e.Name + "(" + exprList(e.Args) + ")"
	case *CallExpr:
		return e.Name + "(" + exprList(e.Args) + ")"
	case *IndexExpr:
		return e.Arr.Name + "(" + exprList(e.Indices) + ")"
	default:
		return fmt.Sprintf("<?%T>", e)
	}
}
