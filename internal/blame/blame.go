// Package blame implements a one-at-a-time precision sensitivity
// analysis in the spirit of the guidance-only tools the paper surveys in
// §VII (ADAPT, Blame Analysis): it lowers each search atom alone,
// measures the resulting correctness-metric error and hotspot time, and
// ranks atoms by how much they *individually* resist lowering. Unlike
// the tuner it performs no search — it produces the ranking a domain
// expert would use to seed manual mixed-precision work, and it is a
// useful cross-check on the delta-debugging result: atoms in the
// 1-minimal set should rank at the top.
package blame

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/search"
	"repro/internal/transform"
)

// AtomReport is the sensitivity of one atom.
type AtomReport struct {
	QName string
	// Status/RelError/Speedup of the variant lowering only this atom.
	Status   search.Status
	RelError float64
	Speedup  float64
	// Blame is the ranking score: relative error incurred, with runtime
	// failures scored above any finite error.
	Blame float64
}

// Report is a completed sensitivity analysis.
type Report struct {
	Model string
	Atoms []AtomReport // sorted by descending blame
}

// Analyze lowers each hotspot atom of the model in isolation and ranks
// the atoms by blame. Cost: one dynamic evaluation per atom.
func Analyze(m *models.Model, opts core.Options) (*Report, error) {
	t, err := core.New(m, opts)
	if err != nil {
		return nil, err
	}
	atoms := t.Atoms()
	rep := &Report{Model: m.Name}
	for _, a := range atoms {
		one := transform.Assignment{a.QName: 4}
		ev := t.Evaluate(one)
		ar := AtomReport{
			QName:    a.QName,
			Status:   ev.Status,
			RelError: ev.RelError,
			Speedup:  ev.Speedup,
		}
		switch ev.Status {
		case search.StatusError, search.StatusTimeout:
			// Failing to run at all out-blames any finite error.
			ar.Blame = 1e308
		default:
			ar.Blame = ev.RelError
		}
		rep.Atoms = append(rep.Atoms, ar)
	}
	rankAtoms(rep.Atoms)
	return rep, nil
}

// rankAtoms orders a sensitivity ranking deterministically: descending
// blame, with exact ties broken by ascending QName so equal-blame atoms
// (common when several atoms are individually harmless and score 0)
// never depend on evaluation order.
func rankAtoms(atoms []AtomReport) {
	sort.SliceStable(atoms, func(i, j int) bool {
		if atoms[i].Blame != atoms[j].Blame {
			return atoms[i].Blame > atoms[j].Blame
		}
		return atoms[i].QName < atoms[j].QName
	})
}

// Render formats the ranking.
func (r *Report) Render(limit int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "precision sensitivity ranking for %s (one-at-a-time lowering)\n", r.Model)
	for i, a := range r.Atoms {
		if limit > 0 && i >= limit {
			fmt.Fprintf(&sb, "  ... %d more atoms with blame <= %.3e\n",
				len(r.Atoms)-limit, a.Blame)
			break
		}
		detail := fmt.Sprintf("err %.3e, speedup %.3f", a.RelError, a.Speedup)
		if a.Status == search.StatusError || a.Status == search.StatusTimeout {
			detail = a.Status.String()
		}
		fmt.Fprintf(&sb, "  %2d. %-62s %s\n", i+1, a.QName, detail)
	}
	return sb.String()
}
