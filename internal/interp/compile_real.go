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
// integer exponent falls back. Without a recorder, + - * / compile
// through realArith.
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
// (elem) and a literal realExpr folds (lit, when neither elem nor gen is
// set) are read inline; anything else calls its vreals closure gen.
type rop struct {
	slot int
	lit  float64
	elem *eref
	gen  vreals
}

// arithOperand compiles an operand for realArith, or reports false when
// realOperand rejects it. An inline operand compiles no closure.
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
	}
	gen := c.realOperand(e)
	return rop{slot: -1, gen: gen}, gen != nil
}

// rarith is an uninstrumented real + - * /: its operands, their cast
// charges (nil when none applies), the operation and its cost, and the
// OpLoad cost of an element operand by kindIdx.
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

// realArith compiles an uninstrumented real + - * / to one closure that
// reads inline operands without a call and does its arithmetic inline,
// switching on the (op, kind) pair; the switch costs no more than one
// closure per pair did. It skips the operands' convertReal: float32(x)
// == float32(rnd32(x)), and kind-8 conversion is the identity, so the
// primary bits are unchanged.
func (c *compiler) realArith(e *ft.BinExpr) vreals {
	x, ok := c.arithOperand(e.X)
	if !ok {
		return nil
	}
	y, ok := c.arithOperand(e.Y)
	if !ok {
		return nil
	}
	k := e.Typ.Kind
	b := rarith{x: x, y: y, chX: c.operandCast(e.X, e.X.Type(), k), chY: c.operandCast(e.Y, e.Y.Type(), k),
		load: [2]float64{c.cost(perfmodel.OpLoad, 4), c.cost(perfmodel.OpLoad, 8)}}
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
	// x and y are read by two copies of one switch: a loop over the pair
	// measured 10% slower.
	return func(m *vm, fr *vframe) (float64, float64, error) {
		var xf, yf float64
		switch {
		case b.x.slot >= 0:
			xf = fr.f[b.x.slot]
		case b.x.elem != nil:
			arr, off, err := b.x.elem.resolve(m, fr)
			if err != nil {
				return 0, 0, err
			}
			m.chargeMem(b.load[kindIdx(arr.Kind)])
			xf = arr.Data[off]
		case b.x.gen == nil:
			xf = b.x.lit
		default:
			var err error
			if xf, _, err = b.x.gen(m, fr); err != nil {
				return 0, 0, err
			}
		}
		switch {
		case b.y.slot >= 0:
			yf = fr.f[b.y.slot]
		case b.y.elem != nil:
			arr, off, err := b.y.elem.resolve(m, fr)
			if err != nil {
				return 0, 0, err
			}
			m.chargeMem(b.load[kindIdx(arr.Kind)])
			yf = arr.Data[off]
		case b.y.gen == nil:
			yf = b.y.lit
		default:
			var err error
			if yf, _, err = b.y.gen(m, fr); err != nil {
				return 0, 0, err
			}
		}
		if b.chX != nil {
			b.chX(m)
		}
		if b.chY != nil {
			b.chY(m)
		}
		m.charge(b.cost)
		var f float64
		switch b.op {
		case arAdd:
			f = xf + yf
		case arSub:
			f = xf - yf
		case arMul:
			f = xf * yf
		case arDiv:
			f = xf / yf
		case arKind4 + arAdd:
			f = float64(float32(xf) + float32(yf))
		case arKind4 + arSub:
			f = float64(float32(xf) - float32(yf))
		case arKind4 + arMul:
			f = float64(float32(xf) * float32(yf))
		default:
			f = float64(float32(xf) / float32(yf))
		}
		return f, f, nil
	}
}

// realIntrinsic compiles the single-argument real intrinsics (the
// unIntrinsic table), real and dble, and sign, min and max over real
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
	if len(e.Args) != 1 {
		return nil
	}
	var cls perfmodel.OpClass
	var fn func(float64) float64
	switch e.Intrinsic {
	case "abs":
		cls, fn = perfmodel.OpSimple, math.Abs
	case "sqrt":
		cls, fn = perfmodel.OpSqrt, math.Sqrt
	case "exp":
		cls, fn = perfmodel.OpTrans, math.Exp
	case "log":
		cls, fn = perfmodel.OpTrans, math.Log
	case "log10":
		cls, fn = perfmodel.OpTrans, math.Log10
	case "sin":
		cls, fn = perfmodel.OpTrans, math.Sin
	case "cos":
		cls, fn = perfmodel.OpTrans, math.Cos
	case "tan":
		cls, fn = perfmodel.OpTrans, math.Tan
	case "asin":
		cls, fn = perfmodel.OpTrans, math.Asin
	case "acos":
		cls, fn = perfmodel.OpTrans, math.Acos
	case "atan":
		cls, fn = perfmodel.OpTrans, math.Atan
	case "sinh":
		cls, fn = perfmodel.OpTrans, math.Sinh
	case "cosh":
		cls, fn = perfmodel.OpTrans, math.Cosh
	case "tanh":
		cls, fn = perfmodel.OpTrans, math.Tanh
	case "aint":
		cls, fn = perfmodel.OpSimple, math.Trunc
	case "anint":
		cls, fn = perfmodel.OpSimple, math.Round
	default:
		return nil
	}
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

// realAssignVar compiles `realvar = <vreals>` — the hot-loop statement
// shape — without boxing. Mirrors assign()'s VarRef case exactly.
func (c *compiler) realAssignVar(s *ft.AssignStmt, d *ft.VarDecl, name string, rv vreals, chConv func(m *vm), atom string) vstmt {
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
			f, _, err := rv(m, fr)
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

// realAssignElem compiles `arr(i, ...) = <vreals>`, mirroring assign()'s
// IndexExpr case.
func (c *compiler) realAssignElem(s *ft.AssignStmt, lhs *ft.IndexExpr, rv vreals, chConv func(m *vm), atom string) vstmt {
	pos := s.Pos
	er := c.elemRef(lhs)
	storeCost := [2]float64{c.cost(perfmodel.OpStore, 4), c.cost(perfmodel.OpStore, 8)}
	arrName := lhs.Arr.Name
	if c.rec == nil {
		return func(m *vm, fr *vframe) (control, error) {
			if err := m.checkBudget(pos); err != nil {
				return ctlNone, err
			}
			f, _, err := rv(m, fr)
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
