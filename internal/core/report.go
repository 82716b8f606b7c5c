package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/search"
)

// TableRow is one model's row of the paper's Table II.
type TableRow struct {
	Model       string
	Total       int
	PassPct     float64
	FailPct     float64
	TimeoutPct  float64
	ErrorPct    float64
	BestSpeedup float64 // speedup of the optimal (passing) variant
	Converged   bool
}

// TableIIRow summarizes the run in Table II form.
func (r *Result) TableIIRow() TableRow {
	total, pass, fail, timeout, errs := r.Outcome.Log.Counts()
	row := TableRow{
		Model:     r.Model.Name,
		Total:     total,
		Converged: r.Outcome.Converged,
	}
	if total > 0 {
		row.PassPct = 100 * float64(pass) / float64(total)
		row.FailPct = 100 * float64(fail) / float64(total)
		row.TimeoutPct = 100 * float64(timeout) / float64(total)
		row.ErrorPct = 100 * float64(errs) / float64(total)
	}
	// The paper's Table II reports the speedup of the best *correct*
	// variant; for MOM6 no correct variant beat the baseline, yet the
	// table still lists 1.04x — so the column drops the MinSpeedup
	// criterion.
	if best := r.Outcome.Log.Best(search.Criteria{MaxRelError: r.Criteria.MaxRelError}); best != nil {
		row.BestSpeedup = best.Speedup
	}
	return row
}

// Best returns the accepted evaluation with the highest speedup, or nil.
func (r *Result) Best() *search.Evaluation {
	return r.Outcome.Log.Best(r.Criteria)
}

// SortedProcVariants returns the Fig. 6 points for proc, sorted by
// discovery order.
func (r *Result) SortedProcVariants(proc string) []ProcPoint {
	pts := append([]ProcPoint(nil), r.ProcVariants[proc]...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].FromIndex < pts[j].FromIndex })
	return pts
}

// ProcNames returns the hotspot procedures with recorded variants,
// sorted by descending baseline share (number of points as tiebreak).
func (r *Result) ProcNames() []string {
	names := make([]string, 0, len(r.ProcVariants))
	for q := range r.ProcVariants {
		names = append(names, q)
	}
	sort.Strings(names)
	return names
}

// Render produces a human-readable summary of the tuning run.
func (r *Result) Render() string {
	var sb strings.Builder
	row := r.TableIIRow()
	fmt.Fprintf(&sb, "model %s (%s)\n", r.Model.Name, r.Model.Description)
	fmt.Fprintf(&sb, "  search atoms: %d (hotspot module %s)\n", r.Baseline.AtomCount, r.Model.Hotspot)
	fmt.Fprintf(&sb, "  baseline: %.0f cycles total, hotspot share %.1f%%\n",
		r.Baseline.TotalCycles, 100*r.Baseline.HotspotShare)
	fmt.Fprintf(&sb, "  correctness: %s, threshold %.3e\n", r.Model.MetricName, r.Baseline.Threshold)
	fmt.Fprintf(&sb, "  variants explored: %d  (pass %.1f%%  fail %.1f%%  timeout %.1f%%  error %.1f%%)\n",
		row.Total, row.PassPct, row.FailPct, row.TimeoutPct, row.ErrorPct)
	if !row.Converged {
		fmt.Fprintf(&sb, "  search did NOT converge within the evaluation budget\n")
	}
	if n := r.Outcome.Log.InfraCount(); n > 0 {
		fmt.Fprintf(&sb, "  infrastructure failures: %d assignment(s) quarantined (outcome unknown, excluded from the percentages above)\n", n)
	}
	if st := r.Resilience; st != nil && (st.Retried > 0 || st.Quarantined > 0 || st.BreakerTripped) {
		fmt.Fprintf(&sb, "  resilience: %d attempt(s) for %d evaluation(s), %d retried, %d recovered, %d quarantined\n",
			st.Attempts, st.Evaluations, st.Retried, st.Recovered, st.Quarantined)
	}
	if st := r.Resilience; st != nil && st.Hung > 0 {
		fmt.Fprintf(&sb, "  watchdog: %d hung attempt(s) abandoned\n", st.Hung)
	}
	if st := r.Resilience; st != nil && st.Probes > 0 {
		fmt.Fprintf(&sb, "  breaker probes: %d (%d failed, breaker closed %d time(s))\n",
			st.Probes, st.FailedProbes, st.BreakerClosed)
	}
	if r.Salvaged > 0 {
		fmt.Fprintf(&sb, "  salvaged: %d evaluation(s) recovered from the aborted prior run's sidecar\n", r.Salvaged)
	}
	if st := r.Fleet; st != nil {
		fmt.Fprintf(&sb, "  fleet: %d worker(s) (%d alive at end), %d lease(s), %d expired, %d worker death(s), %d restart(s)\n",
			st.Workers, st.Alive, st.Leases, st.Expired, st.Exits, st.Restarts)
		if st.Reconnects > 0 || st.PartitionExpired > 0 || st.DupRefused > 0 || st.FrameErrors > 0 {
			fmt.Fprintf(&sb, "  fleet network: %d reconnect(s), %d partition-expired lease(s), %d duplicate or stale reply(ies) refused, %d frame error(s)\n",
				st.Reconnects, st.PartitionExpired, st.DupRefused, st.FrameErrors)
		}
		if st.Degraded {
			fmt.Fprintf(&sb, "  fleet DEGRADED to in-process evaluation (%d local eval(s)): %s\n",
				st.LocalEvals, st.DegradeDetail)
		}
	}
	if r.Aborted != nil {
		fmt.Fprintf(&sb, "  PARTIAL RESULT: search aborted early — %s\n", r.Aborted.Reason)
	}
	if r.Cancelled != nil {
		fmt.Fprintf(&sb, "  PARTIAL RESULT: run cancelled (%v) — resume with the same journal to finish\n", r.Cancelled.Err)
	}
	if best := r.Best(); best != nil {
		fmt.Fprintf(&sb, "  best passing variant: %.2fx speedup, %.3e error, %d/%d atoms lowered\n",
			best.Speedup, best.RelError, best.Lowered, best.TotalAtoms)
	} else {
		fmt.Fprintf(&sb, "  no passing variant found\n")
	}
	if len(r.Outcome.Minimal) > 0 && len(r.Outcome.Minimal) <= 12 {
		min := append([]string(nil), r.Outcome.Minimal...)
		sort.Strings(min)
		fmt.Fprintf(&sb, "  1-minimal 64-bit set (%d): %s\n", len(min), strings.Join(min, ", "))
	} else {
		fmt.Fprintf(&sb, "  1-minimal 64-bit set: %d atoms\n", len(r.Outcome.Minimal))
	}
	if r.Metrics != nil {
		fmt.Fprintf(&sb, "  metrics:\n%s", r.Metrics.Render("    "))
	}
	return sb.String()
}
