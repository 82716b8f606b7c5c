// Package predict implements a lightweight performance predictor for
// mixed-precision variants, the direction the paper closes on:
// "Innovations in search algorithm design which avoid evaluating bad
// variants is needed, such as recent work [42] that uses ML to predict
// the performance and accuracy of mixed-precision programs."
//
// The predictor is an online ridge regression over *static* variant
// features — the same signals the §V recommendations identify
// (mixed-precision flow volume, vectorization report, 32-bit fraction) —
// trained on the variants a search has already paid to evaluate, and
// used to rank candidates before dynamic evaluation.
package predict

import (
	"fmt"
	"math"

	ft "repro/internal/fortran"
	"repro/internal/perfmodel"
	"repro/internal/transform"
)

// FeatureCount is the dimensionality of the static feature vector
// (including the bias term).
const FeatureCount = 6

// Features extracts the static feature vector of a precision assignment
// for a given baseline program:
//
//	[ 1, pct32, mismatchedEdges, log1p(castElems), vecLoopDelta, loweredArrays ]
type Extractor struct {
	base    *ft.Program
	model   *perfmodel.Model
	baseVec int
	atoms   map[string]*ft.VarDecl
	nAtoms  int
}

// NewExtractor prepares feature extraction for a baseline program's
// hotspot atoms.
func NewExtractor(base *ft.Program, atoms []transform.Atom, model *perfmodel.Model) *Extractor {
	e := &Extractor{
		base:   base,
		model:  model,
		atoms:  make(map[string]*ft.VarDecl, len(atoms)),
		nAtoms: len(atoms),
	}
	for _, a := range atoms {
		e.atoms[a.QName] = a.Decl
	}
	an := perfmodel.Analyze(base, model)
	e.baseVec, _ = an.VectorizedCount()
	return e
}

// Extract computes the feature vector for an assignment.
func (e *Extractor) Extract(a transform.Assignment) ([FeatureCount]float64, error) {
	var f [FeatureCount]float64
	f[0] = 1 // bias

	lowered, loweredArrays := 0, 0
	for q, kind := range a {
		d, ok := e.atoms[q]
		if !ok {
			continue
		}
		if kind == 4 {
			lowered++
			if d.IsArray() {
				loweredArrays++
			}
		}
	}
	if e.nAtoms > 0 {
		f[1] = float64(lowered) / float64(e.nAtoms)
	}

	variant := ft.Clone(e.base)
	if _, err := ft.Analyze(variant, ft.Options{AllowKindMismatch: true}); err != nil {
		return f, fmt.Errorf("predict: %w", err)
	}
	byName := make(map[string]*ft.VarDecl)
	for _, d := range ft.RealDecls(variant) {
		byName[d.QName()] = d
	}
	for q, kind := range a {
		if d, ok := byName[q]; ok {
			d.Kind = kind
		}
	}
	info, err := ft.Analyze(variant, ft.Options{AllowKindMismatch: true})
	if err != nil {
		return f, fmt.Errorf("predict: %w", err)
	}
	g := transform.BuildFlowGraph(variant, info)
	castElems := 0.0
	for _, edge := range g.MismatchedEdges() {
		f[2]++
		n := float64(edge.Elems)
		if n == 0 {
			n = 64
		}
		castElems += n
	}
	f[3] = math.Log1p(castElems)

	an := perfmodel.Analyze(variant, e.model)
	vec, _ := an.VectorizedCount()
	f[4] = float64(vec - e.baseVec)

	f[5] = float64(loweredArrays)
	return f, nil
}

// Ridge is an incremental ridge-regression model y ≈ w·x, fitted by
// normal equations over all samples seen so far.
type Ridge struct {
	Lambda float64
	xtx    [FeatureCount][FeatureCount]float64
	xty    [FeatureCount]float64
}

// NewRidge returns a model with the given L2 regularization strength.
func NewRidge(lambda float64) *Ridge {
	return &Ridge{Lambda: lambda}
}

// Observe adds one (features, target) sample.
func (r *Ridge) Observe(x [FeatureCount]float64, y float64) {
	for i := 0; i < FeatureCount; i++ {
		for j := 0; j < FeatureCount; j++ {
			r.xtx[i][j] += x[i] * x[j]
		}
		r.xty[i] += x[i] * y
	}
}

// Weights solves (X'X + λI) w = X'y by Gaussian elimination with
// partial pivoting. It returns false if the system is singular even
// after regularization.
func (r *Ridge) Weights() ([FeatureCount]float64, bool) {
	var a [FeatureCount][FeatureCount + 1]float64
	for i := 0; i < FeatureCount; i++ {
		for j := 0; j < FeatureCount; j++ {
			a[i][j] = r.xtx[i][j]
		}
		a[i][i] += r.Lambda
		a[i][FeatureCount] = r.xty[i]
	}
	for col := 0; col < FeatureCount; col++ {
		// Pivot.
		p := col
		for row := col + 1; row < FeatureCount; row++ {
			if math.Abs(a[row][col]) > math.Abs(a[p][col]) {
				p = row
			}
		}
		if math.Abs(a[p][col]) < 1e-12 {
			return [FeatureCount]float64{}, false
		}
		a[col], a[p] = a[p], a[col]
		// Eliminate.
		for row := 0; row < FeatureCount; row++ {
			if row == col {
				continue
			}
			factor := a[row][col] / a[col][col]
			for k := col; k <= FeatureCount; k++ {
				a[row][k] -= factor * a[col][k]
			}
		}
	}
	var w [FeatureCount]float64
	for i := 0; i < FeatureCount; i++ {
		w[i] = a[i][FeatureCount] / a[i][i]
	}
	return w, true
}

// Predict evaluates the fitted model on x.
func (r *Ridge) Predict(x [FeatureCount]float64) (float64, bool) {
	w, ok := r.Weights()
	if !ok {
		return 0, false
	}
	var y float64
	for i := 0; i < FeatureCount; i++ {
		y += w[i] * x[i]
	}
	return y, true
}

// SpearmanRank computes the Spearman rank correlation between two
// parallel slices — the metric used to judge whether the predictor
// *ranks* variants well enough to steer a search (exact values matter
// less than ordering).
func SpearmanRank(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("predict: rank inputs differ in length (%d vs %d)", len(a), len(b))
	}
	n := len(a)
	if n < 3 {
		return 0, fmt.Errorf("predict: need at least 3 samples, have %d", n)
	}
	ra, rb := ranks(a), ranks(b)
	var num, da, db float64
	meanA, meanB := float64(n+1)/2, float64(n+1)/2
	for i := 0; i < n; i++ {
		xa, xb := ra[i]-meanA, rb[i]-meanB
		num += xa * xb
		da += xa * xa
		db += xb * xb
	}
	if da == 0 || db == 0 {
		return 0, fmt.Errorf("predict: constant input has no rank correlation")
	}
	return num / math.Sqrt(da*db), nil
}

// ranks returns 1-based average ranks (ties share the mean rank).
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by value (n is small in our experiments).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && xs[idx[j]] < xs[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	out := make([]float64, n)
	i := 0
	for i < n {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}
