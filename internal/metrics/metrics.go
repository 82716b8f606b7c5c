// Package metrics implements the correctness quantification of §III-D:
// scalar metrics computed from model output, compared against the
// baseline via relative error, then aggregated with L2 norms. The three
// model-specific criteria of §IV-A are compositions of these primitives:
//
//	MPAS-A: per-timestep most extreme relative error of cell kinetic
//	        energy, L2 over time;
//	ADCIRC: relative error of the most extreme water surface elevation
//	        per grid point over the run, L2 across the grid;
//	MOM6:   relative error of the max CFL number per timestep, L2 over
//	        time.
package metrics

import (
	"fmt"
	"math"
)

// RelError returns |(base - v) / base|, the paper's relative error. A
// zero baseline falls back to the absolute difference so the metric
// stays finite (necessary conditions, not sufficient — §VI). The
// fallback means RelError(0, v) = |v| is an absolute quantity on a
// different scale from the relative values around it; thresholds for
// signals that legitimately cross zero should account for this.
// RelError(0, 0) is exactly 0: agreeing on zero is not an error.
func RelError(base, v float64) float64 {
	d := math.Abs(base - v)
	if base == 0 {
		return d
	}
	return d / math.Abs(base)
}

// L2 returns the Euclidean norm of xs. By convention the norm of an
// empty (or nil) series is 0 — indistinguishable from a series of
// exact zeros — so callers for whom "no samples" must not read as "no
// error" (e.g. a variant that produced no output frames) have to check
// emptiness themselves before aggregating.
func L2(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s)
}

// RelErrSeries returns the element-wise relative error of variant
// against base.
func RelErrSeries(base, variant []float64) ([]float64, error) {
	if len(base) != len(variant) {
		return nil, fmt.Errorf("metrics: series lengths differ (%d vs %d)", len(base), len(variant))
	}
	out := make([]float64, len(base))
	for i := range base {
		out[i] = RelError(base[i], variant[i])
	}
	return out, nil
}

// L2RelErr is the common composition: element-wise relative error
// followed by an L2 norm (over time for MPAS-A and MOM6, over the grid
// for ADCIRC).
func L2RelErr(base, variant []float64) (float64, error) {
	re, err := RelErrSeries(base, variant)
	if err != nil {
		return 0, err
	}
	return L2(re), nil
}

// MaxAbsPerRow reduces a row-major series of frames (rows of width w) to
// the most extreme value per column, signed — e.g. the most extreme
// water surface elevation at each ADCIRC grid point over the
// simulation. A column of no frames reduces to 0.
func MaxAbsPerRow(frames []float64, w int) ([]float64, error) {
	if w <= 0 || len(frames)%w != 0 {
		return nil, fmt.Errorf("metrics: frame data length %d not divisible by width %d", len(frames), w)
	}
	out := make([]float64, w)
	for i, x := range frames {
		c := i % w
		if math.Abs(x) > math.Abs(out[c]) {
			out[c] = x
		}
	}
	return out, nil
}

// MaxRelErrPerFrame reduces two row-major frame series to the most
// extreme relative error within each frame — e.g. the worst kinetic
// energy error across MPAS-A cells at each timestep.
func MaxRelErrPerFrame(base, variant []float64, w int) ([]float64, error) {
	if len(base) != len(variant) {
		return nil, fmt.Errorf("metrics: frame series lengths differ (%d vs %d)", len(base), len(variant))
	}
	if w <= 0 || len(base)%w != 0 {
		return nil, fmt.Errorf("metrics: frame data length %d not divisible by width %d", len(base), w)
	}
	rows := len(base) / w
	out := make([]float64, rows)
	for r := 0; r < rows; r++ {
		worst := 0.0
		for c := 0; c < w; c++ {
			re := RelError(base[r*w+c], variant[r*w+c])
			if re > worst {
				worst = re
			}
		}
		out[r] = worst
	}
	return out, nil
}

// AnyNonFinite reports whether xs contains NaN or ±Inf (variants that
// slip past runtime traps still fail correctness).
func AnyNonFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}
