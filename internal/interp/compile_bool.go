package interp

// Unboxed conditions. An IF or DO WHILE condition compiles to a vbool
// closure that returns a Go bool, so the tests that steer every model's
// loops build no Value. The contract is compile_real.go's: each form
// charges the same costs in the same order, makes the same recorder
// calls and yields the same result as the binary()/unary() closure it
// replaces.

import (
	ft "repro/internal/fortran"
	"repro/internal/perfmodel"
)

// vbool evaluates a logical expression unboxed, charging its cost.
type vbool func(m *vm, fr *vframe) (bool, error)

// cond compiles an IF or DO WHILE condition: unboxed when boolExpr
// takes it, otherwise the Value form read through its B field.
func (c *compiler) cond(e ft.Expr) vbool {
	if b := c.boolExpr(e); b != nil {
		return b
	}
	ve := c.expr(e)
	return func(m *vm, fr *vframe) (bool, error) {
		v, err := ve(m, fr)
		return v.B, err
	}
}

// boolExpr compiles e unboxed, or returns nil when e needs the Value
// path. It takes a logical literal or scalar; .not., .and. or .or. over
// those forms; a comparison of two of them; a comparison of two affine
// integers; or a comparison of two realOperand forms. Everything else
// (isnan, logical functions, integer operands with /, mod or unary
// minus, real operands realExpr rejects) returns nil.
func (c *compiler) boolExpr(e ft.Expr) vbool {
	if c.boxed {
		return nil
	}
	switch e := e.(type) {
	case *ft.LogicalLit:
		v := e.Val
		return func(m *vm, fr *vframe) (bool, error) { return v, nil }
	case *ft.VarRef:
		d := e.Decl
		if d == nil || d.IsArray() || d.Base != ft.TLogical {
			return nil
		}
		slot := d.Slot
		if d.Proc != nil {
			return func(m *vm, fr *vframe) (bool, error) { return fr.b[slot], nil }
		}
		mi := d.InMod.Index
		return func(m *vm, fr *vframe) (bool, error) { return m.gl[mi].b[slot], nil }
	case *ft.UnExpr:
		if e.Op != ft.NOT {
			return nil
		}
		x := c.boolExpr(e.X)
		if x == nil {
			return nil
		}
		intCost := c.cost(perfmodel.OpIntALU, 4)
		return func(m *vm, fr *vframe) (bool, error) {
			xv, err := x(m, fr)
			if err != nil {
				return false, err
			}
			m.charge(intCost)
			return !xv, nil
		}
	case *ft.BinExpr:
		switch e.Op {
		case ft.AND, ft.OR:
			return c.boolLogical(e)
		case ft.EQ, ft.NE, ft.LT, ft.LE, ft.GT, ft.GE:
			return c.boolCompare(e)
		}
	}
	return nil
}

// boolCompare compiles a comparison: of two logicals as .and. is, of
// two affine integers through intIndex with one OpIntALU, and anything
// else as a real comparison.
func (c *compiler) boolCompare(b *ft.BinExpr) vbool {
	xt, yt := b.X.Type(), b.Y.Type()
	switch {
	case xt.Base == ft.TLogical:
		if yt.Base != ft.TLogical {
			return nil
		}
		return c.boolLogical(b)
	case xt.Base == ft.TInteger && yt.Base == ft.TInteger:
		if !affineIndex(b.X) || !affineIndex(b.Y) {
			return nil
		}
		x, y := c.intIndex(b.X), c.intIndex(b.Y)
		intCost := c.cost(perfmodel.OpIntALU, 4)
		op := b.Op
		return func(m *vm, fr *vframe) (bool, error) {
			xv := x(m, fr)
			yv := y(m, fr)
			m.charge(intCost)
			return intCompare(op, xv, yv), nil
		}
	}
	return c.boolRealCompare(b)
}

// boolLogical compiles .and., .or. and the comparison of two logicals:
// both operands, with no short-circuit, then one OpIntALU.
func (c *compiler) boolLogical(b *ft.BinExpr) vbool {
	x := c.boolExpr(b.X)
	if x == nil {
		return nil
	}
	y := c.boolExpr(b.Y)
	if y == nil {
		return nil
	}
	intCost := c.cost(perfmodel.OpIntALU, 4)
	var f func(x, y bool) bool
	switch b.Op {
	case ft.AND:
		f = func(x, y bool) bool { return x && y }
	case ft.OR:
		f = func(x, y bool) bool { return x || y }
	case ft.EQ:
		f = func(x, y bool) bool { return x == y }
	default: // binary() treats every other logical comparison as .ne.
		f = func(x, y bool) bool { return x != y }
	}
	return func(m *vm, fr *vframe) (bool, error) {
		xv, err := x(m, fr)
		if err != nil {
			return false, err
		}
		yv, err := y(m, fr)
		if err != nil {
			return false, err
		}
		m.charge(intCost)
		return f(xv, yv), nil
	}
}

// boolRealCompare compiles a comparison at a real kind, as binary()
// does: both operands, their operandCast charges, one OpCmp at the
// op kind, the compare at that kind, and a branch record when the
// shadow lanes compare the other way. The primary lanes need no
// convertReal: float32 of a value rounded to binary32 is that value,
// and kind 8 converts nothing.
func (c *compiler) boolRealCompare(b *ft.BinExpr) vbool {
	x := c.realOperand(b.X)
	if x == nil {
		return nil
	}
	y := c.realOperand(b.Y)
	if y == nil {
		return nil
	}
	xt, yt := b.X.Type(), b.Y.Type()
	k := b.Typ.Kind
	if k == 0 {
		k = promoteKind(xt, yt)
	}
	chX := c.operandCast(b.X, xt, k)
	chY := c.operandCast(b.Y, yt, k)
	cmpCost := c.cost(perfmodel.OpCmp, k)
	k4 := k == 4
	op := b.Op
	rs := c.rsite(b.Pos.Line)
	return func(m *vm, fr *vframe) (bool, error) {
		xf, xs, err := x(m, fr)
		if err != nil {
			return false, err
		}
		yf, ys, err := y(m, fr)
		if err != nil {
			return false, err
		}
		if chX != nil {
			chX(m)
		}
		if chY != nil {
			chY(m)
		}
		m.charge(cmpCost)
		var r bool
		if k4 {
			r = f32Compare(op, float32(xf), float32(yf))
		} else {
			r = f64Compare(op, xf, yf)
		}
		if m.rec != nil && r != f64Compare(op, xs, ys) {
			rs.branch(m)
		}
		return r, nil
	}
}
