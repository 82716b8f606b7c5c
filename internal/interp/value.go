// Package interp executes FT programs under mixed-precision semantics
// and prices every dynamic operation through the perfmodel machine
// model. It is the "compile and run on a Derecho node" stage of the
// paper's tuning cycle (T3 in the artifact appendix), collapsed into a
// deterministic simulation:
//
//   - numerics are real: kind-4 values round through IEEE binary32 on
//     every assignment and all-kind-4 operations evaluate in float32, so
//     a variant's error, convergence behaviour, and control-flow
//     divergence are computed, not scripted;
//   - performance is modeled: each operation adds simulated cycles, with
//     vectorization, casting, inlining, call overhead, and MPI collective
//     costs supplied by internal/perfmodel;
//   - failure modes are faithful: non-finite values trap as runtime
//     errors and a cycle budget (3× baseline, as in §IV-A) turns runaway
//     variants into timeouts.
package interp

import (
	"fmt"
	"math"

	ft "repro/internal/fortran"
)

// Value is a runtime value: a scalar or a reference to an array.
// Sh is the float64 shadow lane: the value this computation would have
// produced at full precision. It is only maintained when a numerics
// recorder is attached (Config.Numerics); uninstrumented runs leave it
// tracking F with no extra work (realValue sets Sh from the pre-rounded
// input, a free field copy).
type Value struct {
	Base ft.BaseType
	Kind int // real kind (4 or 8)
	F    float64
	Sh   float64
	I    int64
	B    bool
	S    string
	Arr  *Array
}

// Array is array storage. Kind-4 arrays hold float32-representable
// float64 values (the rounding invariant is maintained on every store).
// Dummy arguments may install a reshaped header over the same Data
// (Fortran sequence association).
type Array struct {
	Kind int
	Lo   []int // lower bound per dimension
	Ext  []int // extent per dimension
	Data []float64
	// Shadow is the float64 shadow lane, allocated only when a numerics
	// recorder is attached; reshaped headers share it with Data.
	Shadow []float64
}

// NewArray allocates a zeroed array.
func NewArray(kind int, lo, ext []int) *Array {
	return &Array{
		Kind: kind,
		Lo:   append([]int(nil), lo...),
		Ext:  append([]int(nil), ext...),
		Data: make([]float64, elems(ext)),
	}
}

// reinit makes a, in place, the zeroed array NewArray(a.Kind, lo, ext)
// would allocate, plus a zeroed Shadow when shadow is set, if its
// storage can hold the elements; otherwise it reports false and leaves
// a as it was. a must have ext's rank, and ext must pass arrayFits.
func (a *Array) reinit(lo, ext []int, shadow bool) bool {
	n := elems(ext)
	if cap(a.Data) < n || shadow && cap(a.Shadow) < n {
		return false
	}
	copy(a.Lo, lo)
	copy(a.Ext, ext)
	a.Data = a.Data[:n]
	clear(a.Data)
	if shadow {
		a.Shadow = a.Shadow[:n]
		clear(a.Shadow)
	}
	return true
}

// Size returns the total element count.
func (a *Array) Size() int { return elems(a.Ext) }

// elems is the element count of extents ext.
func elems(ext []int) int {
	n := 1
	for _, e := range ext {
		n *= e
	}
	return n
}

// flatIndex converts a multi-dimensional index (column-major, as in
// Fortran) to a flat offset, checking bounds.
func (a *Array) flatIndex(idx []int) (int, error) {
	off := 0
	stride := 1
	for d := 0; d < len(a.Ext); d++ {
		i := idx[d] - a.Lo[d]
		if i < 0 || i >= a.Ext[d] {
			return 0, fmt.Errorf("index %d out of bounds [%d:%d] in dimension %d",
				idx[d], a.Lo[d], a.Lo[d]+a.Ext[d]-1, d+1)
		}
		off += i * stride
		stride *= a.Ext[d]
	}
	return off, nil
}

// rnd32 rounds a float64 through IEEE binary32.
func rnd32(v float64) float64 { return float64(float32(v)) }

// convertReal converts v to the storage precision of kind.
func convertReal(v float64, kind int) float64 {
	if kind == 4 {
		return rnd32(v)
	}
	return v
}

// convertScalar coerces a scalar value to the declared type (no cost
// accounting; cost is charged at the operation that required it). The
// shadow lane passes through unrounded: conversion narrows the primary
// only (the field copy is free, so this is not recorder-gated).
func convertScalar(v Value, t ft.Type) Value {
	switch t.Base {
	case ft.TReal:
		nv := realValue(v.asFloat(), t.Kind)
		nv.Sh = v.sh()
		return nv
	case ft.TInteger:
		return intValue(v.asInt())
	case ft.TLogical:
		return logicalValue(v.B)
	default:
		return v
	}
}

// intValue builds an integer Value.
func intValue(i int64) Value { return Value{Base: ft.TInteger, I: i} }

// realValue builds a real Value of the given kind, rounding as needed.
// The shadow lane defaults to the pre-rounding input; instrumented
// paths that know a better full-precision history overwrite it.
func realValue(f float64, kind int) Value {
	return Value{Base: ft.TReal, Kind: kind, F: convertReal(f, kind), Sh: f}
}

// logicalValue builds a logical Value.
func logicalValue(b bool) Value { return Value{Base: ft.TLogical, B: b} }

// asFloat returns the numeric value of v as float64.
func (v Value) asFloat() float64 {
	if v.Base == ft.TInteger {
		return float64(v.I)
	}
	return v.F
}

// sh returns the shadow-lane value of v: integers are exact, reals
// carry their float64 shadow.
func (v Value) sh() float64 {
	if v.Base == ft.TInteger {
		return float64(v.I)
	}
	return v.Sh
}

// asInt returns the numeric value of v truncated to an integer.
func (v Value) asInt() int64 {
	if v.Base == ft.TInteger {
		return v.I
	}
	return int64(v.F)
}

func (v Value) String() string {
	switch v.Base {
	case ft.TInteger:
		return fmt.Sprintf("%d", v.I)
	case ft.TReal:
		if v.Arr != nil {
			return fmt.Sprintf("<array kind=%d size=%d>", v.Arr.Kind, v.Arr.Size())
		}
		return fmt.Sprintf("%g", v.F)
	case ft.TLogical:
		if v.B {
			return "T"
		}
		return "F"
	case ft.TString:
		return v.S
	default:
		return "<invalid>"
	}
}

func nonFinite(v float64) bool {
	return math.IsNaN(v) || math.IsInf(v, 0)
}
