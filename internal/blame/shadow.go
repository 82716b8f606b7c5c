package blame

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/interp"
	"repro/internal/models"
	"repro/internal/numerics"
	"repro/internal/perfmodel"
	"repro/internal/transform"
)

// ShadowOptions configures a shadow-execution blame analysis.
type ShadowOptions struct {
	// Numerics configures the recorder (cancellation threshold).
	Numerics numerics.Options
	// Assignment is the precision assignment to instrument; nil lowers
	// every hotspot atom to kind 4 (the all-float32 stress run, where
	// every error source is active at once).
	Assignment transform.Assignment
	// Machine prices operations (nil = perfmodel.Default()).
	Machine *perfmodel.Model
}

// ShadowAtom is one atom's error observed in the instrumented run.
type ShadowAtom struct {
	QName string `json:"qname"`
	// Score ranks the atom: the worst relative divergence between the
	// mixed-precision lane and the float64 shadow seen at any
	// assignment to it. Accumulating atoms (sums over many iterations)
	// grow this; per-step rounding noise does not.
	Score         float64 `json:"score"`
	Assigns       int64   `json:"assigns"`
	RoundErr      float64 `json:"round_err"`
	Cancellations int64   `json:"cancellations"`
	Catastrophic  int64   `json:"catastrophic"`
}

// ShadowReport is a completed shadow blame analysis.
type ShadowReport struct {
	Model      string `json:"model"`
	Lowered    int    `json:"lowered"`
	TotalAtoms int    `json:"total_atoms"`
	// RunFailure is set when the instrumented run died (non-finite
	// trapping is off, but bounds/budget failures still abort); the
	// profile covers everything up to the failure — often exactly the
	// diagnostic wanted.
	RunFailure string            `json:"run_failure,omitempty"`
	Profile    *numerics.Profile `json:"profile"`
	Atoms      []ShadowAtom      `json:"atoms"`
}

// ShadowAnalyze ranks the model's hotspot atoms from ONE instrumented
// run: the assignment (default all-kind-4) executes with a float64
// shadow lane, and each atom is scored by the divergence observed at
// its own assignments. It is the one-run counterpart of Analyze — the
// paper's §VII guidance-only tools (ADAPT, Blame Analysis) work this
// way — and costs one evaluation instead of one per atom.
func ShadowAnalyze(m *models.Model, opts ShadowOptions) (*ShadowReport, error) {
	machine := opts.Machine
	if machine == nil {
		machine = perfmodel.Default()
	}
	prog, err := m.Parse()
	if err != nil {
		return nil, err
	}
	atoms := transform.Atoms(prog, m.Hotspot)
	if len(atoms) == 0 {
		return nil, fmt.Errorf("blame: model %s has no tunable atoms in module %q", m.Name, m.Hotspot)
	}
	a := opts.Assignment
	if a == nil {
		a = transform.Uniform(atoms, 4)
	}

	// Plain baseline run bounds the instrumented run's cycle budget
	// (3x, as for tuner evaluations).
	base, err := interp.New(prog, interp.Config{Model: machine, TrapNonFinite: true})
	if err != nil {
		return nil, err
	}
	bres, err := base.Run()
	if err != nil {
		return nil, fmt.Errorf("blame: %s baseline run failed: %w", m.Name, err)
	}

	v, err := transform.Apply(prog, a)
	if err != nil {
		return nil, fmt.Errorf("blame: transform: %w", err)
	}

	// The instrumented run does NOT trap non-finite values: letting a
	// blowup propagate is how the recorder captures its provenance.
	rec := numerics.NewRecorder(m.Name+".ft", opts.Numerics)
	in, err := interp.New(v.Prog, interp.Config{
		Model:       machine,
		CycleBudget: 3 * bres.Cycles,
		Numerics:    rec,
	})
	if err != nil {
		return nil, err
	}
	rep := &ShadowReport{
		Model:      m.Name,
		Lowered:    a.Lowered(),
		TotalAtoms: len(atoms),
	}
	if _, err := in.Run(); err != nil {
		rep.RunFailure = err.Error()
	}
	rep.Profile = rec.Profile()

	// Score the search atoms from the profile's per-atom stats (the
	// profile also covers non-atom variables; those stay in
	// Profile.Atoms but not in the ranking).
	byName := make(map[string]numerics.AtomProfile, len(rep.Profile.Atoms))
	for _, ap := range rep.Profile.Atoms {
		byName[ap.QName] = ap
	}
	for _, at := range atoms {
		ap := byName[at.QName]
		rep.Atoms = append(rep.Atoms, ShadowAtom{
			QName:         at.QName,
			Score:         ap.MaxDivergence,
			Assigns:       ap.Assigns,
			RoundErr:      ap.RoundErrSum,
			Cancellations: ap.Cancellations,
			Catastrophic:  ap.Catastrophic,
		})
	}
	sort.SliceStable(rep.Atoms, func(i, j int) bool {
		x, y := &rep.Atoms[i], &rep.Atoms[j]
		if x.Score != y.Score {
			return x.Score > y.Score
		}
		if x.RoundErr != y.RoundErr {
			return x.RoundErr > y.RoundErr
		}
		return x.QName < y.QName
	})
	return rep, nil
}

// Render formats the one-run ranking.
func (r *ShadowReport) Render(limit int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "shadow blame ranking for %s (one instrumented run, %d/%d atoms lowered)\n",
		r.Model, r.Lowered, r.TotalAtoms)
	if r.RunFailure != "" {
		fmt.Fprintf(&sb, "  run failed: %s (profile covers execution up to the failure)\n", r.RunFailure)
	}
	for i, a := range r.Atoms {
		if limit > 0 && i >= limit {
			fmt.Fprintf(&sb, "  ... %d more atoms with score <= %.3e\n", len(r.Atoms)-limit, a.Score)
			break
		}
		detail := fmt.Sprintf("div %.3e, round %.3e, assigns %d", a.Score, a.RoundErr, a.Assigns)
		if a.Cancellations > 0 {
			detail += fmt.Sprintf(", cancellations %d (catastrophic %d)", a.Cancellations, a.Catastrophic)
		}
		fmt.Fprintf(&sb, "  %2d. %-62s %s\n", i+1, a.QName, detail)
	}
	return sb.String()
}
