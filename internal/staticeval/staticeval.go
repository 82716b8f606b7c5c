// Package staticeval implements the paper's §V recommendations for
// making FPPT scalable by evaluating variants *statically* before paying
// for dynamic evaluation:
//
//   - a cost model that penalizes mixed-precision interprocedural data
//     flow as a function of the number of calls and the number of array
//     elements crossing each mismatched edge ("This suggests a strategy
//     for statically evaluating variant performance via a cost model…",
//     §IV-B, applied to both the MPAS-A flux functions and MOM6
//     variant 58);
//   - a vectorization-report filter that rejects variants whose loops
//     vectorize less than the baseline's ("one could filter out variants
//     that have less vectorization than the baseline prior to execution
//     by inspecting compiler vectorization reports", §V).
//
// The filter needs per-procedure call counts; as the paper suggests, it
// takes them from the baseline profile (a single instrumented run).
package staticeval

import (
	"fmt"
	"strings"

	ft "repro/internal/fortran"
	"repro/internal/gptl"
	"repro/internal/perfmodel"
	"repro/internal/transform"
)

// Verdict is the static evaluation of one precision assignment.
type Verdict struct {
	// CastPenalty is the estimated casting overhead in cycles:
	// Σ over mismatched flow edges of calls(callee) · elems · castCost.
	CastPenalty float64
	// MismatchedEdges is the number of flow-graph edges violating the
	// matching invariant before wrapper insertion.
	MismatchedEdges int
	// VecLoops / BaseVecLoops count vectorized loops in the variant and
	// the baseline.
	VecLoops, BaseVecLoops int
	// Reject is true when the filter recommends skipping dynamic
	// evaluation; Reasons explains why.
	Reject  bool
	Reasons []string
}

// Filter statically screens precision assignments for one model program.
type Filter struct {
	base  *ft.Program
	model *perfmodel.Model

	// calls maps procedure qualified names to baseline dynamic call
	// counts (from the profiled baseline run).
	calls map[string]int64
	// meanElems is the fallback element count for edges whose dummy
	// extent is not statically known (assumed-shape).
	meanElems float64
	// baseVec is the baseline's vectorized loop count.
	baseVec int
	// PenaltyBudget is the maximum tolerated CastPenalty, as a fraction
	// of baseline hotspot cycles (default 0.25).
	PenaltyBudget float64
	hotspotCycles float64
}

// NewFilterFromRegions builds a static filter from the analyzed
// baseline program, its profiled regions (as exposed by the tuner's
// Baseline), and the hotspot cycle count.
func NewFilterFromRegions(base *ft.Program, regions []*gptl.Region, hotspotCycles float64, model ...*perfmodel.Model) *Filter {
	m := perfmodel.Default()
	if len(model) > 0 && model[0] != nil {
		m = model[0]
	}
	f := &Filter{
		base:          base,
		model:         m,
		calls:         make(map[string]int64),
		meanElems:     64,
		PenaltyBudget: 0.25,
		hotspotCycles: hotspotCycles,
	}
	for _, r := range regions {
		f.calls[r.Name] = r.Calls
	}
	an := perfmodel.Analyze(base, m)
	f.baseVec, _ = an.VectorizedCount()
	return f
}

// Evaluate statically scores an assignment without running it: it clones
// the program, rewrites declaration kinds (no wrappers — mismatches are
// the object of study), and inspects the flow graph and the
// vectorization report.
func (f *Filter) Evaluate(a transform.Assignment) (*Verdict, error) {
	variant := ft.Clone(f.base)
	if _, err := ft.Analyze(variant, ft.Options{AllowKindMismatch: true}); err != nil {
		return nil, fmt.Errorf("staticeval: %w", err)
	}
	byName := make(map[string]*ft.VarDecl)
	for _, d := range ft.RealDecls(variant) {
		byName[d.QName()] = d
	}
	for q, kind := range a {
		d, ok := byName[q]
		if !ok {
			return nil, fmt.Errorf("staticeval: unknown atom %q", q)
		}
		d.Kind = kind
	}
	info, err := ft.Analyze(variant, ft.Options{AllowKindMismatch: true})
	if err != nil {
		return nil, fmt.Errorf("staticeval: %w", err)
	}

	v := &Verdict{BaseVecLoops: f.baseVec}

	// §V cost model: penalty per mismatched edge = calls × elems × cast.
	g := transform.BuildFlowGraph(variant, info)
	castCost := f.model.OpCost(perfmodel.OpCast, 8) +
		f.model.OpCost(perfmodel.OpLoad, 8) + f.model.OpCost(perfmodel.OpStore, 8)
	for _, e := range g.MismatchedEdges() {
		v.MismatchedEdges++
		calls := f.calls[e.Callee]
		if calls == 0 {
			calls = 1
		}
		elems := float64(e.Elems)
		if elems == 0 {
			elems = f.meanElems
		}
		v.CastPenalty += float64(calls) * elems * castCost
	}

	// §V vectorization filter: compare the variant's vectorization
	// report against the baseline's.
	an := perfmodel.Analyze(variant, f.model)
	v.VecLoops, _ = an.VectorizedCount()

	if v.VecLoops < v.BaseVecLoops {
		v.Reject = true
		v.Reasons = append(v.Reasons,
			fmt.Sprintf("vectorization regressed: %d loops vs baseline %d", v.VecLoops, v.BaseVecLoops))
	}
	if f.hotspotCycles > 0 && v.CastPenalty > f.PenaltyBudget*f.hotspotCycles {
		v.Reject = true
		v.Reasons = append(v.Reasons,
			fmt.Sprintf("cast-flow penalty %.0f exceeds %.0f%% of hotspot cycles",
				v.CastPenalty, 100*f.PenaltyBudget))
	}
	return v, nil
}

func (v *Verdict) String() string {
	s := fmt.Sprintf("penalty=%.0f edges=%d vec=%d/%d", v.CastPenalty, v.MismatchedEdges, v.VecLoops, v.BaseVecLoops)
	if v.Reject {
		s += " REJECT (" + strings.Join(v.Reasons, "; ") + ")"
	}
	return s
}
