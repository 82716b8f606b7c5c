package interp

import (
	"fmt"
	"math"

	ft "repro/internal/fortran"
	"repro/internal/perfmodel"
)

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

// chargeOperandCast charges casts needed to bring an operand of static
// type at to the operation kind opKind.
func (i *Interp) chargeOperandCast(e ft.Expr, at ft.Type, opKind int) {
	if isLiteral(e) {
		return
	}
	switch {
	case at.Base == ft.TInteger:
		i.op(perfmodel.OpConv, 4)
	case at.Base == ft.TReal && at.Kind != opKind:
		i.cast(1)
	}
}

// evalExpr evaluates an expression, charging its cost.
func (i *Interp) evalExpr(fr *frame, e ft.Expr) (Value, error) {
	switch e := e.(type) {
	case *ft.IntLit:
		return intValue(e.Val), nil
	case *ft.RealLit:
		return realValue(e.Val, e.Kind), nil
	case *ft.LogicalLit:
		return logicalValue(e.Val), nil
	case *ft.StrLit:
		return Value{Base: ft.TString, S: e.Val}, nil
	case *ft.VarRef:
		d := e.Decl
		if d == nil {
			return Value{}, &RunError{Pos: e.Pos, Kind: FailInternal,
				Msg: fmt.Sprintf("unresolved variable %q", e.Name)}
		}
		return i.loadVar(fr, d), nil
	case *ft.IndexExpr:
		v, _, err := i.loadElement(fr, e)
		return v, err
	case *ft.UnExpr:
		return i.evalUnary(fr, e)
	case *ft.BinExpr:
		return i.evalBinary(fr, e)
	case *ft.CallExpr:
		if e.Intrinsic != "" {
			return i.evalIntrinsic(fr, e)
		}
		return i.callFunction(fr, e)
	default:
		return Value{}, &RunError{Pos: e.ExprPos(), Kind: FailInternal,
			Msg: fmt.Sprintf("unknown expression %T", e)}
	}
}

// loadElement evaluates an array element reference, returning the value
// and its flat offset.
func (i *Interp) loadElement(fr *frame, e *ft.IndexExpr) (Value, int, error) {
	arr, off, err := i.elementRef(fr, e)
	if err != nil {
		return Value{}, 0, err
	}
	i.op(perfmodel.OpLoad, arr.Kind)
	v := Value{Base: ft.TReal, Kind: arr.Kind, F: arr.Data[off], Sh: arr.Data[off]}
	if arr.Shadow != nil {
		v.Sh = arr.Shadow[off]
	}
	return v, off, nil
}

// elementRef resolves an array element reference to (array, offset).
func (i *Interp) elementRef(fr *frame, e *ft.IndexExpr) (*Array, int, error) {
	av := i.loadVar(fr, e.Arr.Decl)
	if av.Arr == nil {
		return nil, 0, &RunError{Pos: e.Pos, Kind: FailInternal,
			Msg: fmt.Sprintf("%q is not an allocated array", e.Arr.Name)}
	}
	idx := make([]int, len(e.Indices))
	for k, ix := range e.Indices {
		v, err := i.evalExpr(fr, ix)
		if err != nil {
			return nil, 0, err
		}
		// Index arithmetic is integer ALU work.
		i.op(perfmodel.OpIntALU, 4)
		idx[k] = int(v.asInt())
	}
	off, err := av.Arr.flatIndex(idx)
	if err != nil {
		return nil, 0, &RunError{Pos: e.Pos, Kind: FailBounds,
			Msg: fmt.Sprintf("%s: %v", e.Arr.Name, err)}
	}
	return av.Arr, off, nil
}

func (i *Interp) evalUnary(fr *frame, e *ft.UnExpr) (Value, error) {
	x, err := i.evalExpr(fr, e.X)
	if err != nil {
		return Value{}, err
	}
	switch e.Op {
	case ft.MINUS:
		if x.Base == ft.TInteger {
			i.op(perfmodel.OpIntALU, 4)
			return intValue(-x.I), nil
		}
		i.op(perfmodel.OpAddSub, x.Kind)
		v := realValue(-x.F, x.Kind)
		if i.nrec != nil {
			v.Sh = -x.sh()
		}
		return v, nil
	case ft.PLUS:
		return x, nil
	case ft.NOT:
		i.op(perfmodel.OpIntALU, 4)
		return logicalValue(!x.B), nil
	default:
		return Value{}, &RunError{Pos: e.Pos, Kind: FailInternal,
			Msg: fmt.Sprintf("unknown unary op %v", e.Op)}
	}
}

func (i *Interp) evalBinary(fr *frame, e *ft.BinExpr) (Value, error) {
	x, err := i.evalExpr(fr, e.X)
	if err != nil {
		return Value{}, err
	}
	y, err := i.evalExpr(fr, e.Y)
	if err != nil {
		return Value{}, err
	}
	switch e.Op {
	case ft.AND:
		i.op(perfmodel.OpIntALU, 4)
		return logicalValue(x.B && y.B), nil
	case ft.OR:
		i.op(perfmodel.OpIntALU, 4)
		return logicalValue(x.B || y.B), nil
	}

	xt, yt := e.X.Type(), e.Y.Type()
	switch e.Op {
	case ft.EQ, ft.NE, ft.LT, ft.LE, ft.GT, ft.GE:
		if xt.Base == ft.TLogical {
			i.op(perfmodel.OpIntALU, 4)
			if e.Op == ft.EQ {
				return logicalValue(x.B == y.B), nil
			}
			return logicalValue(x.B != y.B), nil
		}
		if xt.Base == ft.TInteger && yt.Base == ft.TInteger {
			i.op(perfmodel.OpIntALU, 4)
			return logicalValue(intCompare(e.Op, x.I, y.I)), nil
		}
		// Real comparison at the kind recorded by semantic analysis
		// (polymorphic constants follow the variable operand).
		k := e.Typ.Kind
		if k == 0 {
			k = promoteKind(xt, yt)
		}
		i.chargeOperandCast(e.X, xt, k)
		i.chargeOperandCast(e.Y, yt, k)
		i.op(perfmodel.OpCmp, k)
		xf, yf := convertReal(x.asFloat(), k), convertReal(y.asFloat(), k)
		var b bool
		if k == 4 {
			b = f32Compare(e.Op, float32(xf), float32(yf))
		} else {
			b = f64Compare(e.Op, xf, yf)
		}
		if i.nrec != nil && b != f64Compare(e.Op, x.sh(), y.sh()) {
			i.nrec.Branch(i.procName(), e.Pos.Line)
		}
		return logicalValue(b), nil
	}

	// Arithmetic.
	if xt.Base == ft.TInteger && yt.Base == ft.TInteger {
		i.op(perfmodel.OpIntALU, 4)
		return i.intArith(e, x.I, y.I)
	}
	k := e.Typ.Kind
	i.chargeOperandCast(e.X, xt, k)
	i.chargeOperandCast(e.Y, yt, k)
	xf, yf := convertReal(x.asFloat(), k), convertReal(y.asFloat(), k)
	var r float64
	var opByte byte
	switch e.Op {
	case ft.PLUS:
		opByte = '+'
		i.op(perfmodel.OpAddSub, k)
		r = arith(k, xf, yf, func(a, b float64) float64 { return a + b },
			func(a, b float32) float32 { return a + b })
	case ft.MINUS:
		opByte = '-'
		i.op(perfmodel.OpAddSub, k)
		r = arith(k, xf, yf, func(a, b float64) float64 { return a - b },
			func(a, b float32) float32 { return a - b })
	case ft.STAR:
		opByte = '*'
		i.op(perfmodel.OpMul, k)
		r = arith(k, xf, yf, func(a, b float64) float64 { return a * b },
			func(a, b float32) float32 { return a * b })
	case ft.SLASH:
		opByte = '/'
		i.op(perfmodel.OpDiv, k)
		r = arith(k, xf, yf, func(a, b float64) float64 { return a / b },
			func(a, b float32) float32 { return a / b })
	case ft.POW:
		opByte = '^'
		// x**n with a small constant integer exponent lowers to
		// multiplies; anything else is a pow call.
		if lit, ok := e.Y.(*ft.IntLit); ok && lit.Val >= 0 && lit.Val <= 4 {
			i.opN(perfmodel.OpMul, k, float64(max64(lit.Val-1, 1)), i.vecFactor)
		} else {
			i.op(perfmodel.OpPow, k)
		}
		r = powReal(k, yt, xf, yf, y.I)
	default:
		return Value{}, &RunError{Pos: e.Pos, Kind: FailInternal,
			Msg: fmt.Sprintf("unknown binary op %v", e.Op)}
	}
	v := Value{Base: ft.TReal, Kind: k, F: r, Sh: r}
	if i.nrec != nil {
		xs, ys := x.sh(), y.sh()
		yp := yf
		if e.Op == ft.POW && yt.Base == ft.TInteger {
			// The integer-exponent path bypasses yf.
			yp = float64(y.I)
		}
		exact := binOp64(opByte, xf, yp)
		v.Sh = binOp64(opByte, xs, ys)
		i.nrec.Op(i.procName(), e.Pos.Line, opByte, xf, yp, xs, ys, r, exact, v.Sh)
	}
	return v, nil
}

// binOp64 is the float64 evaluation of a binary arithmetic op, the
// reference lane for shadow execution.
func binOp64(op byte, a, b float64) float64 {
	switch op {
	case '+':
		return a + b
	case '-':
		return a - b
	case '*':
		return a * b
	case '/':
		return a / b
	default: // '^'
		return math.Pow(a, b)
	}
}

// arith performs a binary arithmetic operation at the requested kind:
// kind-4 operations execute in IEEE binary32.
func arith(kind int, x, y float64, f64 func(a, b float64) float64, f32 func(a, b float32) float32) float64 {
	if kind == 4 {
		return float64(f32(float32(x), float32(y)))
	}
	return f64(x, y)
}

// powReal evaluates x**y at the operation kind. Kind-4 integer
// exponents use binary powering entirely in float32, the way compilers
// lower them (libgcc __powisf2): every partial product rounds through
// binary32. Evaluating in float64 and rounding once would double-round
// — a fidelity difference the shadow lane must observe, not hide.
// Kind-4 real exponents round the float64 pow once, modelling a libm
// powf that returns the nearest binary32 result.
func powReal(k int, yt ft.Type, xf, yf float64, yi int64) float64 {
	if yt.Base == ft.TInteger {
		if k == 4 {
			return float64(powi32(float32(xf), yi))
		}
		return convertReal(math.Pow(xf, float64(yi)), k)
	}
	return convertReal(math.Pow(xf, yf), k)
}

// powi32 raises x to an integer power by binary powering in float32.
func powi32(x float32, p int64) float32 {
	n := p
	if n < 0 {
		n = -n
	}
	y := float32(1)
	if n&1 == 1 {
		y = x
	}
	for n >>= 1; n > 0; n >>= 1 {
		x *= x
		if n&1 == 1 {
			y *= x
		}
	}
	if p < 0 {
		return 1 / y
	}
	return y
}

func (i *Interp) intArith(e *ft.BinExpr, x, y int64) (Value, error) {
	return intArithVal(e.Op, e.Pos, x, y)
}

// intArithVal is the integer arithmetic kernel shared by both engines.
func intArithVal(op ft.TokKind, pos ft.Pos, x, y int64) (Value, error) {
	switch op {
	case ft.PLUS:
		return intValue(x + y), nil
	case ft.MINUS:
		return intValue(x - y), nil
	case ft.STAR:
		return intValue(x * y), nil
	case ft.SLASH:
		if y == 0 {
			return Value{}, &RunError{Pos: pos, Kind: FailNonFinite, Msg: "integer division by zero"}
		}
		return intValue(x / y), nil
	case ft.POW:
		if y < 0 {
			// Fortran: x**y is 1/(x**-y) truncated toward zero.
			switch x {
			case 0:
				return Value{}, &RunError{Pos: pos, Kind: FailNonFinite, Msg: "integer zero raised to a negative power"}
			case 1:
				return intValue(1), nil
			case -1:
				if y&1 == 0 {
					return intValue(1), nil
				}
				return intValue(-1), nil
			}
			return intValue(0), nil // |x| > 1
		}
		// Square-and-multiply: the int64 wraparound of y repeated
		// multiplications (multiplication mod 2^64 is associative) in
		// log2(y) steps.
		r := int64(1)
		for ; y > 0; y >>= 1 {
			if y&1 == 1 {
				r *= x
			}
			x *= x
		}
		return intValue(r), nil
	default:
		return Value{}, &RunError{Pos: pos, Kind: FailInternal,
			Msg: fmt.Sprintf("unknown integer op %v", op)}
	}
}

func promoteKind(x, y ft.Type) int {
	if x.Base == ft.TReal && x.Kind == 8 || y.Base == ft.TReal && y.Kind == 8 {
		return 8
	}
	return 4
}

func intCompare(op ft.TokKind, x, y int64) bool {
	switch op {
	case ft.EQ:
		return x == y
	case ft.NE:
		return x != y
	case ft.LT:
		return x < y
	case ft.LE:
		return x <= y
	case ft.GT:
		return x > y
	default:
		return x >= y
	}
}

func f64Compare(op ft.TokKind, x, y float64) bool {
	switch op {
	case ft.EQ:
		return x == y
	case ft.NE:
		return x != y
	case ft.LT:
		return x < y
	case ft.LE:
		return x <= y
	case ft.GT:
		return x > y
	default:
		return x >= y
	}
}

func f32Compare(op ft.TokKind, x, y float32) bool {
	switch op {
	case ft.EQ:
		return x == y
	case ft.NE:
		return x != y
	case ft.LT:
		return x < y
	case ft.LE:
		return x <= y
	case ft.GT:
		return x > y
	default:
		return x >= y
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// execAssign executes an assignment, including whole-array forms.
func (i *Interp) execAssign(fr *frame, s *ft.AssignStmt) error {
	lt := s.LHS.Type()

	// Whole-array LHS: fill or copy.
	if lt.Rank > 0 {
		return i.execArrayAssign(fr, s)
	}

	if i.nrec != nil {
		// Error born while evaluating the RHS is attributed to the
		// target atom (empty for non-real targets).
		i.nrec.PushTarget(assignAtom(s.LHS, lt))
		defer i.nrec.PopTarget()
	}
	rhs, err := i.evalExpr(fr, s.RHS)
	if err != nil {
		return err
	}
	rt := s.RHS.Type()
	// Conversion cost for the store.
	if lt.Base == ft.TReal {
		switch {
		case rt.Base == ft.TInteger:
			i.op(perfmodel.OpConv, 4)
		case rt.Base == ft.TReal && rt.Kind != lt.Kind && !isLiteral(s.RHS):
			i.cast(1)
		}
	} else if lt.Base == ft.TInteger && rt.Base == ft.TReal {
		i.op(perfmodel.OpConv, 4)
	}

	switch lhs := s.LHS.(type) {
	case *ft.VarRef:
		v := convertScalar(rhs, lt)
		if i.nrec != nil && v.Base == ft.TReal {
			i.nrec.Assign(i.procName(), s.Pos.Line, assignAtom(s.LHS, lt),
				v.F, v.Sh, rhs.asFloat())
		}
		if i.cfg.TrapNonFinite && v.Base == ft.TReal && nonFinite(v.F) {
			return &RunError{Pos: s.Pos, Kind: FailNonFinite,
				Msg: fmt.Sprintf("assigning non-finite value to %s", lhs.Name)}
		}
		i.storeScalar(fr, lhs.Decl, v)
		return nil
	case *ft.IndexExpr:
		arr, off, err := i.elementRef(fr, lhs)
		if err != nil {
			return err
		}
		i.op(perfmodel.OpStore, arr.Kind)
		f := convertReal(rhs.asFloat(), arr.Kind)
		if i.nrec != nil {
			i.nrec.Assign(i.procName(), s.Pos.Line, assignAtom(s.LHS, lt),
				f, rhs.sh(), rhs.asFloat())
		}
		if i.cfg.TrapNonFinite && nonFinite(f) {
			return &RunError{Pos: s.Pos, Kind: FailNonFinite,
				Msg: fmt.Sprintf("assigning non-finite value to %s(...)", lhs.Arr.Name)}
		}
		arr.Data[off] = f
		if arr.Shadow != nil {
			arr.Shadow[off] = rhs.sh()
		}
		return nil
	default:
		return &RunError{Pos: s.Pos, Kind: FailInternal, Msg: "bad assignment target"}
	}
}

// assignAtom is the search-atom qualified name of an assignment target:
// the declaration behind a real variable or array-element LHS ("" for
// integer/logical targets, which are not atoms).
func assignAtom(lhs ft.Expr, lt ft.Type) string {
	if lt.Base != ft.TReal {
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

// execArrayAssign handles "a = b" (copy) and "a = scalar" (fill).
// Same-kind copies and fills run at vector rate; cross-kind copies run
// scalar with one conversion per element — exactly the casting overhead
// that dominates wrapper-heavy variants (paper §IV-B, MOM6 variant 58).
func (i *Interp) execArrayAssign(fr *frame, s *ft.AssignStmt) error {
	lref, ok := s.LHS.(*ft.VarRef)
	if !ok {
		return &RunError{Pos: s.Pos, Kind: FailInternal, Msg: "bad array assignment target"}
	}
	dstV := i.loadVar(fr, lref.Decl)
	if dstV.Arr == nil {
		return &RunError{Pos: s.Pos, Kind: FailInternal,
			Msg: fmt.Sprintf("%q is not an allocated array", lref.Name)}
	}
	dst := dstV.Arr
	n := dst.Size()

	if i.nrec != nil {
		i.nrec.PushTarget(lref.Decl.QName())
		defer i.nrec.PopTarget()
	}

	rt := s.RHS.Type()
	if rt.Rank == 0 {
		// Broadcast fill.
		v, err := i.evalExpr(fr, s.RHS)
		if err != nil {
			return err
		}
		f := convertReal(v.asFloat(), dst.Kind)
		if i.nrec != nil {
			// One representative record for the whole fill.
			i.nrec.Assign(i.procName(), s.Pos.Line, lref.Decl.QName(),
				f, v.sh(), v.asFloat())
		}
		if i.cfg.TrapNonFinite && nonFinite(f) {
			return &RunError{Pos: s.Pos, Kind: FailNonFinite,
				Msg: fmt.Sprintf("assigning non-finite value to %s", lref.Name)}
		}
		i.opN(perfmodel.OpStore, dst.Kind, float64(n), i.model.VecFactor(dst.Kind, false, false))
		for k := range dst.Data {
			dst.Data[k] = f
		}
		if dst.Shadow != nil {
			fs := v.sh()
			for k := range dst.Shadow {
				dst.Shadow[k] = fs
			}
		}
		return nil
	}

	// Whole-array copy.
	rref, ok := s.RHS.(*ft.VarRef)
	if !ok {
		return &RunError{Pos: s.Pos, Kind: FailInternal,
			Msg: "array assignment source must be a whole array"}
	}
	srcV := i.loadVar(fr, rref.Decl)
	if srcV.Arr == nil {
		return &RunError{Pos: s.Pos, Kind: FailInternal,
			Msg: fmt.Sprintf("%q is not an allocated array", rref.Name)}
	}
	src := srcV.Arr
	if src.Size() != n {
		return &RunError{Pos: s.Pos, Kind: FailBounds,
			Msg: fmt.Sprintf("array size mismatch in %s = %s (%d vs %d)",
				lref.Name, rref.Name, n, src.Size())}
	}
	if src.Kind == dst.Kind {
		vf := i.model.VecFactor(dst.Kind, false, false)
		i.opN(perfmodel.OpLoad, src.Kind, float64(n), vf)
		i.opN(perfmodel.OpStore, dst.Kind, float64(n), vf)
		copy(dst.Data, src.Data)
	} else {
		// Converting copy: scalar loads/stores plus a cast per element.
		i.opN(perfmodel.OpLoad, src.Kind, float64(n), 1)
		i.opN(perfmodel.OpStore, dst.Kind, float64(n), 1)
		i.cast(int64(n))
		for k := range dst.Data {
			f := convertReal(src.Data[k], dst.Kind)
			if i.cfg.TrapNonFinite && nonFinite(f) {
				return &RunError{Pos: s.Pos, Kind: FailNonFinite,
					Msg: fmt.Sprintf("assigning non-finite value to %s", lref.Name)}
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
	return nil
}
