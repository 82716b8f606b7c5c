package interp

// Scalar kernels the compiled closures share: IEEE arithmetic at a
// kind, powers, integer arithmetic, comparisons, and the shadow lane's
// reductions.

import (
	"fmt"
	"math"

	ft "repro/internal/fortran"
)

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

// intArithVal is the integer arithmetic kernel.
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

func nextAfter32(x float32) float32 {
	return math.Nextafter32(x, 2) - x
}

// shadowSum is the shadow-lane reduction of an array: the float64 sum
// over Shadow when present, else the given full-precision sum of Data.
func shadowSum(arr *Array, dataSum float64) float64 {
	if arr.Shadow == nil {
		return dataSum
	}
	var s float64
	for _, d := range arr.Shadow {
		s += d
	}
	return s
}

// shadowDot is the shadow-lane dot product, falling back per-operand to
// the primary data when a side has no shadow storage.
func shadowDot(a, b *Array, dataDot float64) float64 {
	if a.Shadow == nil && b.Shadow == nil {
		return dataDot
	}
	as, bs := a.Shadow, b.Shadow
	if as == nil {
		as = a.Data
	}
	if bs == nil {
		bs = b.Data
	}
	var s float64
	for k := 0; k < len(as) && k < len(bs); k++ {
		s += as[k] * bs[k]
	}
	return s
}
