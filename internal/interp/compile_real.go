package interp

// The unboxed real fast path. The general compiled form (compile.go)
// evaluates every expression to a Value, which keeps the bit-for-bit
// contract easy to see but copies a ~70-byte struct through every
// closure call. Real-typed scalar expressions — the inner loops of
// every model — don't need the box: this file compiles them to vreals
// closures that thread two float64 lanes (primary, shadow) directly.
//
// The contract is unchanged: a vreals closure must charge the same
// cycles in the same order, make the same recorder calls, and produce
// the same bits as the Value-path closure it replaces. To keep the
// shadow lane free when uninstrumented, every constructor compiles two
// flavors: with a recorder (sh is the true float64 shadow) and without
// (sh is unread; closures return the primary so the lane is never
// garbage). realExpr returns nil whenever it cannot prove exact
// equivalence, and the caller falls back to the Value path.

import (
	"math"

	ft "repro/internal/fortran"
	"repro/internal/perfmodel"
)

// vreals evaluates a real-typed scalar expression to its primary and
// shadow lanes, charging its cost.
type vreals func(m *vm, fr *vframe) (float64, float64, error)

// realExpr compiles e to the unboxed fast path, or returns nil when e
// needs the general Value path (integer subexpressions other than
// affine operands, functions without a real scalar result, most
// multi-argument intrinsics, ...).
func (c *compiler) realExpr(e ft.Expr) vreals {
	if c.boxed {
		return nil
	}
	switch e := e.(type) {
	case *ft.RealLit:
		f, s := convertReal(e.Val, e.Kind), e.Val
		return func(m *vm, fr *vframe) (float64, float64, error) { return f, s, nil }
	case *ft.IntLit:
		// Only reachable as an operand of a real-typed parent, where the
		// Value path reads it via asFloat()/sh() — both float64(Val) —
		// and charges nothing for a literal operand.
		f := float64(e.Val)
		return func(m *vm, fr *vframe) (float64, float64, error) { return f, f, nil }
	case *ft.VarRef:
		d := e.Decl
		if d == nil || d.IsArray() || d.Base != ft.TReal {
			return nil
		}
		slot := d.Slot
		if d.Proc != nil {
			if c.rec != nil {
				return func(m *vm, fr *vframe) (float64, float64, error) {
					return fr.f[slot], fr.sh[slot], nil
				}
			}
			return func(m *vm, fr *vframe) (float64, float64, error) {
				f := fr.f[slot]
				return f, f, nil
			}
		}
		mi := d.InMod.Index
		if c.rec != nil {
			return func(m *vm, fr *vframe) (float64, float64, error) {
				g := m.gl[mi]
				return g.f[slot], g.sh[slot], nil
			}
		}
		return func(m *vm, fr *vframe) (float64, float64, error) {
			f := m.gl[mi].f[slot]
			return f, f, nil
		}
	case *ft.IndexExpr:
		r := c.elemRef(e)
		loadCost := [2]float64{c.cost(perfmodel.OpLoad, 4), c.cost(perfmodel.OpLoad, 8)}
		return func(m *vm, fr *vframe) (float64, float64, error) {
			arr, off, err := r.resolve(m, fr)
			if err != nil {
				return 0, 0, err
			}
			m.chargeMem(loadCost[kindIdx(arr.Kind)])
			f := arr.Data[off]
			sh := f
			if arr.Shadow != nil {
				sh = arr.Shadow[off]
			}
			return f, sh, nil
		}
	case *ft.UnExpr:
		switch e.Op {
		case ft.PLUS:
			return c.realExpr(e.X)
		case ft.MINUS:
			xt := e.X.Type()
			if xt.Base != ft.TReal {
				return nil
			}
			xv := c.realExpr(e.X)
			if xv == nil {
				return nil
			}
			cost := c.cost(perfmodel.OpAddSub, xt.Kind)
			kind := xt.Kind
			if c.rec != nil {
				return func(m *vm, fr *vframe) (float64, float64, error) {
					xf, xs, err := xv(m, fr)
					if err != nil {
						return 0, 0, err
					}
					m.charge(cost)
					return convertReal(-xf, kind), -xs, nil
				}
			}
			return func(m *vm, fr *vframe) (float64, float64, error) {
				xf, _, err := xv(m, fr)
				if err != nil {
					return 0, 0, err
				}
				m.charge(cost)
				f := convertReal(-xf, kind)
				return f, f, nil
			}
		}
		return nil
	case *ft.BinExpr:
		return c.realBinary(e)
	case *ft.CallExpr:
		if e.Intrinsic != "" {
			return c.realIntrinsic(e)
		}
		return c.realCall(e)
	}
	return nil
}

// realOperand compiles an operand of a real operation: an affine
// integer (affineIndex) reads through intIndex and converts to float64
// on both lanes, as asFloat and sh read an integer Value; anything else
// goes to realExpr. Other integer operands return nil.
func (c *compiler) realOperand(e ft.Expr) vreals {
	if _, lit := e.(*ft.IntLit); lit || e.Type().Base != ft.TInteger {
		return c.realExpr(e)
	}
	if !affineIndex(e) {
		return nil
	}
	iv := c.intIndex(e)
	return func(m *vm, fr *vframe) (float64, float64, error) {
		f := float64(iv(m, fr))
		return f, f, nil
	}
}

// realCall compiles a call of a user function with a real scalar
// result: the shared call core, then the result's lanes read straight
// from the callee frame. A function without a result keeps the Value
// path and its "has no result" error.
func (c *compiler) realCall(e *ft.CallExpr) vreals {
	p := e.Proc
	if p == nil || p.Result == nil || p.Result.IsArray() || p.Result.Base != ft.TReal {
		return nil
	}
	s := c.callSite(p, e.Args, e.Pos)
	callee := s.callee
	slot := p.Result.Slot
	if c.rec == nil {
		return func(m *vm, fr *vframe) (float64, float64, error) {
			cf, err := s.call(m, fr)
			if err != nil {
				return 0, 0, err
			}
			f := cf.f[slot]
			callee.put(cf)
			return f, f, nil
		}
	}
	return func(m *vm, fr *vframe) (float64, float64, error) {
		cf, err := s.call(m, fr)
		if err != nil {
			return 0, 0, err
		}
		f, sh := cf.f[slot], cf.sh[slot]
		callee.put(cf)
		return f, sh, nil
	}
}

// realBinary compiles real arithmetic (the tail of compiler.binary)
// unboxed. Operands must be realOperand forms; a ** with a non-literal
// integer exponent falls back. Without a recorder, + - * / compile to
// an arithmetic node (realArith).
func (c *compiler) realBinary(e *ft.BinExpr) vreals {
	if e.Typ.Base != ft.TReal {
		return nil
	}
	switch e.Op {
	case ft.PLUS, ft.MINUS, ft.STAR, ft.SLASH, ft.POW:
	default:
		return nil
	}
	xt, yt := e.X.Type(), e.Y.Type()
	powIntLit, _ := e.Y.(*ft.IntLit)
	if e.Op == ft.POW && yt.Base != ft.TReal && powIntLit == nil {
		return nil
	}
	isPow := e.Op == ft.POW
	if c.rec == nil && !isPow {
		return c.realArith(e)
	}
	xv := c.realOperand(e.X)
	if xv == nil {
		return nil
	}
	yv := c.realOperand(e.Y)
	if yv == nil {
		return nil
	}

	k := e.Typ.Kind
	chX := c.operandCast(e.X, xt, k)
	chY := c.operandCast(e.Y, yt, k)

	// Operation cost, mirroring binary()'s chargeOp constants.
	var cost float64
	var ob byte
	switch e.Op {
	case ft.PLUS:
		ob, cost = '+', c.cost(perfmodel.OpAddSub, k)
	case ft.MINUS:
		ob, cost = '-', c.cost(perfmodel.OpAddSub, k)
	case ft.STAR:
		ob, cost = '*', c.cost(perfmodel.OpMul, k)
	case ft.SLASH:
		ob, cost = '/', c.cost(perfmodel.OpDiv, k)
	case ft.POW:
		ob = '^'
		if lit, ok := e.Y.(*ft.IntLit); ok && lit.Val >= 0 && lit.Val <= 4 {
			cost = c.cost(perfmodel.OpMul, k) * float64(max64(lit.Val-1, 1))
		} else {
			cost = c.cost(perfmodel.OpPow, k)
		}
	}

	// prim computes the primary lane from operands already converted to
	// the op kind (identical to binary()'s prim table).
	kk := k
	var prim func(xf, yf float64) float64
	powInt := isPow && yt.Base == ft.TInteger
	var yi int64
	if powInt {
		yi = powIntLit.Val
	}
	switch {
	case isPow:
		ytt := yt
		prim = func(xf, yf float64) float64 { return powReal(kk, ytt, xf, yf, yi) }
	case k == 4:
		switch e.Op {
		case ft.PLUS:
			prim = func(xf, yf float64) float64 { return float64(float32(xf) + float32(yf)) }
		case ft.MINUS:
			prim = func(xf, yf float64) float64 { return float64(float32(xf) - float32(yf)) }
		case ft.STAR:
			prim = func(xf, yf float64) float64 { return float64(float32(xf) * float32(yf)) }
		default:
			prim = func(xf, yf float64) float64 { return float64(float32(xf) / float32(yf)) }
		}
	default:
		switch e.Op {
		case ft.PLUS:
			prim = func(xf, yf float64) float64 { return xf + yf }
		case ft.MINUS:
			prim = func(xf, yf float64) float64 { return xf - yf }
		case ft.STAR:
			prim = func(xf, yf float64) float64 { return xf * yf }
		default:
			prim = func(xf, yf float64) float64 { return xf / yf }
		}
	}

	if c.rec == nil {
		// Uninstrumented pow consumes its operands in float64, so it
		// pre-rounds them to the op kind.
		return func(m *vm, fr *vframe) (float64, float64, error) {
			xf, _, err := xv(m, fr)
			if err != nil {
				return 0, 0, err
			}
			yf, _, err := yv(m, fr)
			if err != nil {
				return 0, 0, err
			}
			if chX != nil {
				chX(m)
			}
			if chY != nil {
				chY(m)
			}
			m.charge(cost)
			f := prim(convertReal(xf, kk), convertReal(yf, kk))
			return f, f, nil
		}
	}

	rs := c.rsite(e.Pos.Line)
	// Kind-8 non-pow ops get dedicated closures: conversion to the op
	// kind is the identity, the primary IS the exact float64 result
	// (prim and binOp64 agree bit for bit), and the shadow op is a
	// single direct flop — no indirect prim call. This is the hot shape
	// of every double-precision baseline under a recorder.
	if kk == 8 && !isPow {
		switch e.Op {
		case ft.PLUS:
			return func(m *vm, fr *vframe) (float64, float64, error) {
				xf, xs, err := xv(m, fr)
				if err != nil {
					return 0, 0, err
				}
				yf, ys, err := yv(m, fr)
				if err != nil {
					return 0, 0, err
				}
				if chX != nil {
					chX(m)
				}
				if chY != nil {
					chY(m)
				}
				m.charge(cost)
				f := xf + yf
				sh := xs + ys
				rs.op(m, '+', xf, yf, xs, ys, f, f, sh)
				return f, sh, nil
			}
		case ft.MINUS:
			return func(m *vm, fr *vframe) (float64, float64, error) {
				xf, xs, err := xv(m, fr)
				if err != nil {
					return 0, 0, err
				}
				yf, ys, err := yv(m, fr)
				if err != nil {
					return 0, 0, err
				}
				if chX != nil {
					chX(m)
				}
				if chY != nil {
					chY(m)
				}
				m.charge(cost)
				f := xf - yf
				sh := xs - ys
				rs.op(m, '-', xf, yf, xs, ys, f, f, sh)
				return f, sh, nil
			}
		case ft.STAR:
			return func(m *vm, fr *vframe) (float64, float64, error) {
				xf, xs, err := xv(m, fr)
				if err != nil {
					return 0, 0, err
				}
				yf, ys, err := yv(m, fr)
				if err != nil {
					return 0, 0, err
				}
				if chX != nil {
					chX(m)
				}
				if chY != nil {
					chY(m)
				}
				m.charge(cost)
				f := xf * yf
				sh := xs * ys
				rs.op(m, '*', xf, yf, xs, ys, f, f, sh)
				return f, sh, nil
			}
		default: // ft.SLASH
			return func(m *vm, fr *vframe) (float64, float64, error) {
				xf, xs, err := xv(m, fr)
				if err != nil {
					return 0, 0, err
				}
				yf, ys, err := yv(m, fr)
				if err != nil {
					return 0, 0, err
				}
				if chX != nil {
					chX(m)
				}
				if chY != nil {
					chY(m)
				}
				m.charge(cost)
				f := xf / yf
				sh := xs / ys
				rs.op(m, '/', xf, yf, xs, ys, f, f, sh)
				return f, sh, nil
			}
		}
	}
	// At kind 8 the primary IS the exact float64 result (prim and
	// binOp64 agree bit for bit for every op, including both pow
	// lowerings), so the exact lane is free. Kind 4 recomputes it.
	exactIsF := kk == 8
	return func(m *vm, fr *vframe) (float64, float64, error) {
		xr, xs, err := xv(m, fr)
		if err != nil {
			return 0, 0, err
		}
		yr, ys, err := yv(m, fr)
		if err != nil {
			return 0, 0, err
		}
		if chX != nil {
			chX(m)
		}
		if chY != nil {
			chY(m)
		}
		m.charge(cost)
		xf, yf := convertReal(xr, kk), convertReal(yr, kk)
		f := prim(xf, yf)
		yp := yf
		if powInt {
			// The integer-exponent path bypasses yf.
			yp = float64(yi)
		}
		exact := f
		if !exactIsF {
			exact = binOp64(ob, xf, yp)
		}
		sh := exact
		if xs != xf || ys != yp {
			sh = binOp64(ob, xs, ys)
		}
		rs.op(m, ob, xf, yp, xs, ys, f, exact, sh)
		return f, sh, nil
	}
}

// rop is one operand of an uninstrumented real + - * /. A local real
// scalar (slot >= 0), an element whose indices all have an inline shape
// (elem), a nested + - * / (node) and a literal realExpr folds (lit,
// when none of elem, node and gen is set) are read without a closure
// call; anything else calls its vreals closure gen.
type rop struct {
	slot int
	lit  float64
	elem *eref
	node *rarith
	gen  vreals
}

// arithOperand compiles an operand of an arithmetic node, or reports
// false when realOperand rejects it. An inline operand compiles no
// closure, and a nested + - * / is a node of its own.
func (c *compiler) arithOperand(e ft.Expr) (rop, bool) {
	switch e := e.(type) {
	case *ft.RealLit:
		return rop{slot: -1, lit: convertReal(e.Val, e.Kind)}, true
	case *ft.IntLit:
		return rop{slot: -1, lit: float64(e.Val)}, true
	case *ft.VarRef:
		if d := e.Decl; d != nil && d.Proc != nil && !d.IsArray() && d.Base == ft.TReal {
			return rop{slot: d.Slot}, true
		}
	case *ft.IndexExpr:
		if shaped(e) {
			return rop{slot: -1, elem: c.elemRef(e)}, true
		}
	case *ft.BinExpr:
		if c.arithForm(e) {
			n := c.arith(e)
			return rop{slot: -1, node: n}, n != nil
		}
	}
	gen := c.realOperand(e)
	return rop{slot: -1, gen: gen}, gen != nil
}

// rarith is an uninstrumented real + - * /, an arithmetic node: its
// operands, their cast charges (nil when none applies), the operation
// and its cost, and the OpLoad cost of an element operand by kindIdx.
// The compile takes every node from its slab (compiler.ariths).
type rarith struct {
	x, y     rop
	chX, chY func(m *vm)
	op       uint8 // arAdd ... arDiv, plus arKind4 at kind 4
	cost     float64
	load     [2]float64
}

// The operations of rarith.op.
const (
	arAdd = iota
	arSub
	arMul
	arDiv
	arKind4 // added to the operation at kind 4
)

// arithForm reports whether realExpr compiles e to an arithmetic node:
// a real + - * / in an unboxed compile without a recorder.
func (c *compiler) arithForm(e *ft.BinExpr) bool {
	switch e.Op {
	case ft.PLUS, ft.MINUS, ft.STAR, ft.SLASH:
		return !c.boxed && c.rec == nil && e.Typ.Base == ft.TReal
	}
	return false
}

// arith compiles an arithmetic node, or returns nil when an operand has
// no unboxed form.
func (c *compiler) arith(e *ft.BinExpr) *rarith {
	x, ok := c.arithOperand(e.X)
	if !ok {
		return nil
	}
	y, ok := c.arithOperand(e.Y)
	if !ok {
		return nil
	}
	k := e.Typ.Kind
	b := c.ariths.Put(rarith{x: x, y: y, chX: c.operandCast(e.X, e.X.Type(), k), chY: c.operandCast(e.Y, e.Y.Type(), k),
		load: [2]float64{c.cost(perfmodel.OpLoad, 4), c.cost(perfmodel.OpLoad, 8)}})
	switch e.Op {
	case ft.PLUS:
		b.op, b.cost = arAdd, c.cost(perfmodel.OpAddSub, k)
	case ft.MINUS:
		b.op, b.cost = arSub, c.cost(perfmodel.OpAddSub, k)
	case ft.STAR:
		b.op, b.cost = arMul, c.cost(perfmodel.OpMul, k)
	default:
		b.op, b.cost = arDiv, c.cost(perfmodel.OpDiv, k)
	}
	if k == 4 {
		b.op += arKind4
	}
	return b
}

// realArith is an arithmetic node as a vreals closure, for the
// consumers that take one (argument binding, the unboxed intrinsics,
// unary minus, a pow's or a comparison's operand).
func (c *compiler) realArith(e *ft.BinExpr) vreals {
	b := c.arith(e)
	if b == nil {
		return nil
	}
	return func(m *vm, fr *vframe) (float64, float64, error) {
		f, err := b.eval(m, fr)
		return f, f, err
	}
}

// eval reads inline operands without a call, calls a nested node
// directly, and does its arithmetic inline, switching on the (op, kind)
// pair; the switch costs no more than one closure per pair did. It
// skips the operands' convertReal: float32(x) == float32(rnd32(x)), and
// kind-8 conversion is the identity, so the primary bits are unchanged.
// x and y are read by two copies of one switch: a loop over the pair
// measured 10% slower.
func (b *rarith) eval(m *vm, fr *vframe) (float64, error) {
	var xf, yf float64
	switch {
	case b.x.slot >= 0:
		xf = fr.f[b.x.slot]
	case b.x.elem != nil:
		arr, off, err := b.x.elem.resolve(m, fr)
		if err != nil {
			return 0, err
		}
		m.chargeMem(b.load[kindIdx(arr.Kind)])
		xf = arr.Data[off]
	case b.x.node != nil:
		var err error
		if xf, err = b.x.node.eval(m, fr); err != nil {
			return 0, err
		}
	case b.x.gen == nil:
		xf = b.x.lit
	default:
		var err error
		if xf, _, err = b.x.gen(m, fr); err != nil {
			return 0, err
		}
	}
	switch {
	case b.y.slot >= 0:
		yf = fr.f[b.y.slot]
	case b.y.elem != nil:
		arr, off, err := b.y.elem.resolve(m, fr)
		if err != nil {
			return 0, err
		}
		m.chargeMem(b.load[kindIdx(arr.Kind)])
		yf = arr.Data[off]
	case b.y.node != nil:
		var err error
		if yf, err = b.y.node.eval(m, fr); err != nil {
			return 0, err
		}
	case b.y.gen == nil:
		yf = b.y.lit
	default:
		var err error
		if yf, _, err = b.y.gen(m, fr); err != nil {
			return 0, err
		}
	}
	if b.chX != nil {
		b.chX(m)
	}
	if b.chY != nil {
		b.chY(m)
	}
	m.charge(b.cost)
	switch b.op {
	case arAdd:
		return xf + yf, nil
	case arSub:
		return xf - yf, nil
	case arMul:
		return xf * yf, nil
	case arDiv:
		return xf / yf, nil
	case arKind4 + arAdd:
		return float64(float32(xf) + float32(yf)), nil
	case arKind4 + arSub:
		return float64(float32(xf) - float32(yf)), nil
	case arKind4 + arMul:
		return float64(float32(xf) * float32(yf)), nil
	default:
		return float64(float32(xf) / float32(yf)), nil
	}
}

// realUnary is the unIntrinsic table that realIntrinsic compiles:
// each one-argument real intrinsic's operation class and function.
var realUnary = map[string]struct {
	cls perfmodel.OpClass
	fn  func(float64) float64
}{
	"abs":   {perfmodel.OpSimple, math.Abs},
	"sqrt":  {perfmodel.OpSqrt, math.Sqrt},
	"exp":   {perfmodel.OpTrans, math.Exp},
	"log":   {perfmodel.OpTrans, math.Log},
	"log10": {perfmodel.OpTrans, math.Log10},
	"sin":   {perfmodel.OpTrans, math.Sin},
	"cos":   {perfmodel.OpTrans, math.Cos},
	"tan":   {perfmodel.OpTrans, math.Tan},
	"asin":  {perfmodel.OpTrans, math.Asin},
	"acos":  {perfmodel.OpTrans, math.Acos},
	"atan":  {perfmodel.OpTrans, math.Atan},
	"sinh":  {perfmodel.OpTrans, math.Sinh},
	"cosh":  {perfmodel.OpTrans, math.Cosh},
	"tanh":  {perfmodel.OpTrans, math.Tanh},
	"aint":  {perfmodel.OpSimple, math.Trunc},
	"anint": {perfmodel.OpSimple, math.Round},
}

// realIntrinsic compiles the single-argument real intrinsics
// (realUnary), real and dble, and sign, min and max over real
// arguments, unboxed. Everything else falls back.
func (c *compiler) realIntrinsic(e *ft.CallExpr) vreals {
	if e.Typ.Base != ft.TReal {
		return nil
	}
	switch e.Intrinsic {
	case "sign":
		return c.realSign(e)
	case "min", "max":
		return c.realMinMax(e)
	case "real", "dble":
		return c.realConv(e)
	}
	u, ok := realUnary[e.Intrinsic]
	if !ok || len(e.Args) != 1 {
		return nil
	}
	cls, fn := u.cls, u.fn
	a0 := c.realExpr(e.Args[0])
	if a0 == nil {
		return nil
	}
	kk := e.Typ.Kind
	cost := c.cost(cls, kk)
	if c.rec == nil {
		return func(m *vm, fr *vframe) (float64, float64, error) {
			x, _, err := a0(m, fr)
			if err != nil {
				return 0, 0, err
			}
			m.charge(cost)
			f := convertReal(fn(x), kk)
			return f, f, nil
		}
	}
	name := e.Intrinsic
	rs := c.rsite(e.Pos.Line)
	return func(m *vm, fr *vframe) (float64, float64, error) {
		x, xs, err := a0(m, fr)
		if err != nil {
			return 0, 0, err
		}
		m.charge(cost)
		r := fn(x)
		f := convertReal(r, kk)
		// Same pure function on the same input: the shadow call is only
		// paid when the lanes have actually diverged.
		sh := r
		if xs != x {
			sh = fn(xs)
		}
		rs.intrinsic(m, name, x, f, r, sh)
		return f, sh, nil
	}
}

// realConv compiles real(x[, k]) and dble(x) over a realOperand,
// mirroring intrinsic()'s conversion case: an integer argument charges
// OpConv at kind 4 and a real one a cast when its kind differs, unless
// the argument is a literal. The shadow lane is the argument's.
func (c *compiler) realConv(e *ft.CallExpr) vreals {
	a0 := c.realOperand(e.Args[0])
	if a0 == nil {
		return nil
	}
	kk := e.Typ.Kind
	at := e.Args[0].Type()
	var ch func(m *vm)
	switch {
	case isLiteral(e.Args[0]):
	case at.Base == ft.TInteger:
		conv := c.cost(perfmodel.OpConv, 4)
		ch = func(m *vm) { m.charge(conv) }
	case at.Kind != kk:
		ch = func(m *vm) { m.cast(1) }
	}
	if c.rec == nil {
		return func(m *vm, fr *vframe) (float64, float64, error) {
			x, _, err := a0(m, fr)
			if err != nil {
				return 0, 0, err
			}
			if ch != nil {
				ch(m)
			}
			f := convertReal(x, kk)
			return f, f, nil
		}
	}
	return func(m *vm, fr *vframe) (float64, float64, error) {
		x, xs, err := a0(m, fr)
		if err != nil {
			return 0, 0, err
		}
		if ch != nil {
			ch(m)
		}
		return convertReal(x, kk), xs, nil
	}
}

// realArgs compiles every argument unboxed, or returns nil unless all
// are real scalars with an unboxed form (integer and mixed arguments
// keep the Value path).
func (c *compiler) realArgs(args []ft.Expr) []vreals {
	out := make([]vreals, len(args))
	for k, a := range args {
		if t := a.Type(); t.Base != ft.TReal || t.Rank != 0 {
			return nil
		}
		if out[k] = c.realExpr(a); out[k] == nil {
			return nil
		}
	}
	return out
}

// realSign compiles sign(a, b) over two reals, mirroring intrinsic()'s
// real case: no operand cast, one OpSimple, and both lanes take the
// sign of b's primary lane.
func (c *compiler) realSign(e *ft.CallExpr) vreals {
	args := c.realArgs(e.Args)
	if len(args) != 2 {
		return nil
	}
	a0, a1 := args[0], args[1]
	kk := e.Typ.Kind
	cost := c.cost(perfmodel.OpSimple, kk)
	if c.rec == nil {
		return func(m *vm, fr *vframe) (float64, float64, error) {
			x0, _, err := a0(m, fr)
			if err != nil {
				return 0, 0, err
			}
			x1, _, err := a1(m, fr)
			if err != nil {
				return 0, 0, err
			}
			m.charge(cost)
			mg := math.Abs(x0)
			if math.Signbit(x1) {
				mg = -mg
			}
			f := convertReal(mg, kk)
			return f, f, nil
		}
	}
	return func(m *vm, fr *vframe) (float64, float64, error) {
		x0, s0, err := a0(m, fr)
		if err != nil {
			return 0, 0, err
		}
		x1, _, err := a1(m, fr)
		if err != nil {
			return 0, 0, err
		}
		m.charge(cost)
		mg, ms := math.Abs(x0), math.Abs(s0)
		if math.Signbit(x1) {
			mg, ms = -mg, -ms
		}
		return convertReal(mg, kk), ms, nil
	}
}

// realMinMax compiles min/max over two or more reals, mirroring
// intrinsic(): every argument is evaluated before the one OpSimple×(n−1)
// charge, and each lane reduces on its own, left to right.
func (c *compiler) realMinMax(e *ft.CallExpr) vreals {
	args := c.realArgs(e.Args)
	if len(args) < 2 {
		return nil
	}
	first, rest := args[0], args[1:]
	kk := e.Typ.Kind
	costN := c.cost(perfmodel.OpSimple, kk) * float64(len(args)-1)
	pick := math.Max
	if e.Intrinsic == "min" {
		pick = math.Min
	}
	if c.rec == nil {
		return func(m *vm, fr *vframe) (float64, float64, error) {
			best, _, err := first(m, fr)
			if err != nil {
				return 0, 0, err
			}
			for _, a := range rest {
				f, _, err := a(m, fr)
				if err != nil {
					return 0, 0, err
				}
				best = pick(best, f)
			}
			m.charge(costN)
			f := convertReal(best, kk)
			return f, f, nil
		}
	}
	return func(m *vm, fr *vframe) (float64, float64, error) {
		best, sh, err := first(m, fr)
		if err != nil {
			return 0, 0, err
		}
		for _, a := range rest {
			f, s, err := a(m, fr)
			if err != nil {
				return 0, 0, err
			}
			best, sh = pick(best, f), pick(sh, s)
		}
		m.charge(costN)
		return convertReal(best, kk), sh, nil
	}
}

// realRHS compiles the right-hand side of a scalar assignment unboxed:
// to an arithmetic node, which the statement's closure calls itself,
// when realExpr would build one, and otherwise through realExpr. Both
// are nil when the statement needs the Value path, so an arithmetic
// right-hand side with an operand that has no unboxed form is not
// compiled a second time.
func (c *compiler) realRHS(e ft.Expr) (*rarith, vreals) {
	if b, ok := e.(*ft.BinExpr); ok && c.arithForm(b) {
		return c.arith(b), nil
	}
	return nil, c.realExpr(e)
}

// realAssignVar compiles `realvar = <node or vreals>` — the hot-loop
// statement shape — without boxing. Mirrors assign()'s VarRef case
// exactly. n is set only without a recorder.
func (c *compiler) realAssignVar(s *ft.AssignStmt, d *ft.VarDecl, name string, n *rarith, rv vreals, chConv func(m *vm), atom string) vstmt {
	pos := s.Pos
	kind := d.Kind
	slot := d.Slot
	local := d.Proc != nil
	var mi int
	if !local {
		mi = d.InMod.Index
	}
	if c.rec == nil {
		return func(m *vm, fr *vframe) (control, error) {
			if err := m.checkBudget(pos); err != nil {
				return ctlNone, err
			}
			var f float64
			var err error
			if n != nil {
				f, err = n.eval(m, fr)
			} else {
				f, _, err = rv(m, fr)
			}
			if err != nil {
				return ctlNone, err
			}
			if chConv != nil {
				chConv(m)
			}
			fs := convertReal(f, kind)
			if m.trap && nonFinite(fs) {
				return ctlNone, &RunError{Pos: pos, Kind: FailNonFinite,
					Msg: "assigning non-finite value to " + name}
			}
			if local {
				fr.f[slot] = fs
			} else {
				m.gl[mi].f[slot] = fs
			}
			return ctlNone, nil
		}
	}
	as := c.asite(pos.Line, atom)
	return func(m *vm, fr *vframe) (control, error) {
		if err := m.checkBudget(pos); err != nil {
			return ctlNone, err
		}
		m.rec.PushTarget(atom)
		f, sh, err := rv(m, fr)
		if err != nil {
			m.rec.PopTarget()
			return ctlNone, err
		}
		if chConv != nil {
			chConv(m)
		}
		fs := convertReal(f, kind)
		as.assign(m, fs, sh, f)
		if m.trap && nonFinite(fs) {
			m.rec.PopTarget()
			return ctlNone, &RunError{Pos: pos, Kind: FailNonFinite,
				Msg: "assigning non-finite value to " + name}
		}
		g := fr
		if !local {
			g = m.gl[mi]
		}
		g.f[slot] = fs
		if g.sh != nil {
			g.sh[slot] = sh
		}
		m.rec.PopTarget()
		return ctlNone, nil
	}
}

// realAssignElem compiles `arr(i, ...) = <node or vreals>`, mirroring
// assign()'s IndexExpr case. n is set only without a recorder.
func (c *compiler) realAssignElem(s *ft.AssignStmt, lhs *ft.IndexExpr, n *rarith, rv vreals, chConv func(m *vm), atom string) vstmt {
	pos := s.Pos
	er := c.elemRef(lhs)
	storeCost := [2]float64{c.cost(perfmodel.OpStore, 4), c.cost(perfmodel.OpStore, 8)}
	arrName := lhs.Arr.Name
	if c.rec == nil {
		return func(m *vm, fr *vframe) (control, error) {
			if err := m.checkBudget(pos); err != nil {
				return ctlNone, err
			}
			var f float64
			var err error
			if n != nil {
				f, err = n.eval(m, fr)
			} else {
				f, _, err = rv(m, fr)
			}
			if err != nil {
				return ctlNone, err
			}
			if chConv != nil {
				chConv(m)
			}
			arr, off, err := er.resolve(m, fr)
			if err != nil {
				return ctlNone, err
			}
			m.chargeMem(storeCost[kindIdx(arr.Kind)])
			fs := convertReal(f, arr.Kind)
			if m.trap && nonFinite(fs) {
				return ctlNone, &RunError{Pos: pos, Kind: FailNonFinite,
					Msg: "assigning non-finite value to " + arrName + "(...)"}
			}
			arr.Data[off] = fs
			return ctlNone, nil
		}
	}
	as := c.asite(pos.Line, atom)
	return func(m *vm, fr *vframe) (control, error) {
		if err := m.checkBudget(pos); err != nil {
			return ctlNone, err
		}
		m.rec.PushTarget(atom)
		f, sh, err := rv(m, fr)
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
		fs := convertReal(f, arr.Kind)
		as.assign(m, fs, sh, f)
		if m.trap && nonFinite(fs) {
			m.rec.PopTarget()
			return ctlNone, &RunError{Pos: pos, Kind: FailNonFinite,
				Msg: "assigning non-finite value to " + arrName + "(...)"}
		}
		arr.Data[off] = fs
		if arr.Shadow != nil {
			arr.Shadow[off] = sh
		}
		m.rec.PopTarget()
		return ctlNone, nil
	}
}

// Counting arithmetic nodes ------------------------------------------------

// The compile takes its arithmetic nodes from one chunk of exactly the
// size reserve counts with the functions below. They walk the program
// as program() compiles it and mirror each decision that builds a node
// or declines: realExpr's (realNodes), boolExpr's (boolNodes) and
// callSite's (argNodes). Where a form declines after an operand built
// nodes, those nodes stay built and count, and so do the nodes of the
// Value form compiled in its place. TestArithSlabExact checks the count
// on the bundled models and on programs of every differential
// generator.

// stmtNodes counts the nodes of compiling s itself, not the statements
// nested in it.
func (c *compiler) stmtNodes(s ft.Stmt) int {
	switch s := s.(type) {
	case *ft.AssignStmt:
		lhs, isVar := s.LHS.(*ft.VarRef)
		switch lt := s.LHS.Type(); {
		case lt.Rank > 0: // arrayAssign: only a fill compiles its right-hand side
			if isVar && s.RHS.Type().Rank == 0 {
				return c.valueNodes(s.RHS)
			}
		case isVar:
			if lt.Base == ft.TReal && lhs.Decl != nil && !lhs.Decl.IsArray() {
				return c.entryNodes(s.RHS, c.realNodes)
			}
			return c.valueNodes(s.RHS)
		default:
			if ix, ok := s.LHS.(*ft.IndexExpr); ok {
				return c.entryNodes(s.RHS, c.realNodes) + c.valueNodes(ix)
			}
		}
	case *ft.IfStmt:
		return c.entryNodes(s.Cond, c.boolNodes)
	case *ft.DoWhileStmt:
		return c.entryNodes(s.Cond, c.boolNodes)
	case *ft.DoStmt:
		return c.valueNodes(s.From) + c.valueNodes(s.To) + c.valueNodes(s.Step)
	case *ft.CallStmt:
		switch {
		case s.Intrinsic == "mpi_allreduce_sum" || s.Intrinsic == "mpi_allreduce_max":
			return c.valueNodes(s.Args[0])
		case s.Intrinsic == "" && s.Proc != nil:
			return c.argNodes(s.Proc, s.Args)
		}
	case *ft.StopStmt:
		return c.valueNodes(s.Code)
	case *ft.PrintStmt:
		n := 0
		for _, a := range s.Args {
			n += c.valueNodes(a)
		}
		return n
	}
	return 0
}

// entryNodes counts the nodes of compiling e unboxed, as form counts
// them (realNodes, boolNodes), and of its Value form when the unboxed
// form declines: an assignment's right-hand side, a real actual, a
// condition.
func (c *compiler) entryNodes(e ft.Expr, form func(ft.Expr) (int, bool)) int {
	n, ok := form(e)
	if !ok {
		n += c.valueNodes(e)
	}
	return n
}

// valueNodes counts the nodes of e's Value form: those of the call
// sites in it.
func (c *compiler) valueNodes(e ft.Expr) int {
	n := 0
	switch e := e.(type) {
	case *ft.UnExpr:
		n = c.valueNodes(e.X)
	case *ft.BinExpr:
		n = c.valueNodes(e.X) + c.valueNodes(e.Y)
	case *ft.IndexExpr:
		for _, ix := range e.Indices {
			n += c.valueNodes(ix)
		}
	case *ft.CallExpr:
		if e.Intrinsic == "" {
			if e.Proc != nil {
				n = c.argNodes(e.Proc, e.Args)
			}
			break
		}
		for _, a := range e.Args {
			n += c.valueNodes(a)
		}
	}
	return n
}

// argNodes counts the nodes of a call site's argument plans (callSite).
func (c *compiler) argNodes(proc *ft.Procedure, args []ft.Expr) int {
	n := 0
	for ai, arg := range args {
		if ai >= len(proc.ParamDecl) {
			continue
		}
		d := proc.ParamDecl[ai]
		if d == nil || d.IsArray() {
			continue
		}
		at := arg.Type()
		ix, isElem := arg.(*ft.IndexExpr)
		out := d.Intent != ft.IntentIn
		switch {
		case d.Base == ft.TInteger && affineIndex(arg):
		case d.Base == ft.TReal && at.Base == ft.TReal && at.Rank == 0:
			if isElem && out && shaped(ix) {
				continue // one resolve reads it and queues its copy-out
			}
			n += c.entryNodes(arg, c.realNodes)
		default:
			n += c.valueNodes(arg)
		}
		if isElem && out {
			n += c.valueNodes(ix)
		}
	}
	return n
}

// realNodes counts the nodes realExpr(e) builds, and reports whether it
// returns a closure.
func (c *compiler) realNodes(e ft.Expr) (int, bool) {
	switch e := e.(type) {
	case *ft.RealLit, *ft.IntLit:
		return 0, true
	case *ft.VarRef:
		d := e.Decl
		return 0, d != nil && !d.IsArray() && d.Base == ft.TReal
	case *ft.IndexExpr:
		return c.valueNodes(e), true
	case *ft.UnExpr:
		if e.Op == ft.PLUS || e.Op == ft.MINUS && e.X.Type().Base == ft.TReal {
			return c.realNodes(e.X)
		}
	case *ft.BinExpr:
		return c.binaryNodes(e)
	case *ft.CallExpr:
		if e.Intrinsic != "" {
			return c.intrinsicNodes(e)
		}
		if p := e.Proc; p != nil && p.Result != nil && !p.Result.IsArray() && p.Result.Base == ft.TReal {
			return c.argNodes(p, e.Args), true
		}
	}
	return 0, false
}

// operandNodes is realNodes for realOperand.
func (c *compiler) operandNodes(e ft.Expr) (int, bool) {
	if _, lit := e.(*ft.IntLit); lit || e.Type().Base != ft.TInteger {
		return c.realNodes(e)
	}
	return 0, affineIndex(e)
}

// binaryNodes is realNodes for realBinary: one node for each + - * /,
// after its operands'.
func (c *compiler) binaryNodes(e *ft.BinExpr) (int, bool) {
	if e.Typ.Base != ft.TReal {
		return 0, false
	}
	arith := c.arithForm(e)
	if !arith && e.Op != ft.POW {
		return 0, false
	}
	operand := c.operandNodes
	if arith {
		operand = c.arithOperandNodes
	} else if _, lit := e.Y.(*ft.IntLit); !lit && e.Y.Type().Base != ft.TReal {
		return 0, false
	}
	x, ok := operand(e.X)
	if !ok {
		return x, false
	}
	y, ok := operand(e.Y)
	if !ok || !arith {
		return x + y, ok
	}
	return x + y + 1, true
}

// arithOperandNodes is realNodes for arithOperand, which reads a shaped
// element of any type inline.
func (c *compiler) arithOperandNodes(e ft.Expr) (int, bool) {
	if ix, ok := e.(*ft.IndexExpr); ok && shaped(ix) {
		return 0, true
	}
	return c.operandNodes(e)
}

// intrinsicNodes is realNodes for realIntrinsic.
func (c *compiler) intrinsicNodes(e *ft.CallExpr) (int, bool) {
	if e.Typ.Base != ft.TReal {
		return 0, false
	}
	switch e.Intrinsic {
	case "sign", "min", "max": // realArgs
		n := 0
		for _, a := range e.Args {
			if t := a.Type(); t.Base != ft.TReal || t.Rank != 0 {
				return n, false
			}
			k, ok := c.realNodes(a)
			if n += k; !ok {
				return n, false
			}
		}
		if e.Intrinsic == "sign" {
			return n, len(e.Args) == 2
		}
		return n, len(e.Args) >= 2
	case "real", "dble":
		return c.operandNodes(e.Args[0])
	}
	if _, ok := realUnary[e.Intrinsic]; !ok || len(e.Args) != 1 {
		return 0, false
	}
	return c.realNodes(e.Args[0])
}

// boolNodes counts the nodes boolExpr(e) builds, and reports whether it
// returns a closure.
func (c *compiler) boolNodes(e ft.Expr) (int, bool) {
	switch e := e.(type) {
	case *ft.LogicalLit:
		return 0, true
	case *ft.VarRef:
		d := e.Decl
		return 0, d != nil && !d.IsArray() && d.Base == ft.TLogical
	case *ft.UnExpr:
		if e.Op == ft.NOT {
			return c.boolNodes(e.X)
		}
	case *ft.BinExpr:
		operand := c.boolNodes
		switch e.Op {
		case ft.AND, ft.OR:
		case ft.EQ, ft.NE, ft.LT, ft.LE, ft.GT, ft.GE:
			xt, yt := e.X.Type(), e.Y.Type()
			switch {
			case xt.Base == ft.TLogical:
				if yt.Base != ft.TLogical {
					return 0, false
				}
			case xt.Base == ft.TInteger && yt.Base == ft.TInteger:
				return 0, affineIndex(e.X) && affineIndex(e.Y)
			default:
				operand = c.operandNodes
			}
		default:
			return 0, false
		}
		x, ok := operand(e.X)
		if !ok {
			return x, false
		}
		y, ok := operand(e.Y)
		return x + y, ok
	}
	return 0, false
}
