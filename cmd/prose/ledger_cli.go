package main

// The `prose runs` and `prose compare` subcommands: analyzers over the
// run ledger that `prose tune -ledger DIR` accumulates.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/ledger"
)

// regressionError carries a failed `prose compare` out to exit code 6,
// distinct from generic failures so CI can gate on it.
type regressionError struct{ c *ledger.Comparison }

func (e *regressionError) Error() string {
	return fmt.Sprintf("compare: %d regression(s) against baseline %.12s", len(e.c.Regressions), e.c.A.ID)
}

func cmdRuns(args []string) error {
	fs := flag.NewFlagSet("runs", flag.ExitOnError)
	dir := fs.String("ledger", "", "run-ledger directory written by tune -ledger (required)")
	model := fs.String("model", "", "only list runs of this model")
	format := fs.String("format", "text", "output format: text or json")
	decisions := fs.String("decisions", "", "read this decision-log file directly and print its search funnel (no ledger needed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *decisions != "" {
		return renderDecisions(*decisions, *format)
	}
	if *dir == "" {
		return fmt.Errorf("runs: -ledger DIR is required (or -decisions FILE)")
	}
	led := ledger.Open(*dir)
	if fs.NArg() > 0 {
		return renderRun(led, fs.Arg(0), *format)
	}

	entries, unreadable, err := led.List()
	if err != nil {
		return err
	}
	if unreadable > 0 {
		// On stderr, so that -format json stays one JSON document.
		fmt.Fprintf(os.Stderr, "runs: %d unreadable manifest(s) in %s not listed\n", unreadable, *dir)
	}
	if *model != "" {
		kept := entries[:0]
		for _, e := range entries {
			if e.Model == *model {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	if *format == "json" {
		return json.NewEncoder(os.Stdout).Encode(entries)
	}
	fmt.Printf("%-12s  %-8s  %-19s  %8s  %6s  %8s  %-9s  %s\n",
		"run", "model", "started", "wall", "evals", "best", "outcome", "converged")
	for _, e := range entries {
		started := time.Unix(0, e.StartUnixNS).UTC().Format("2006-01-02 15:04:05")
		best := "-"
		if e.BestSpeedup > 0 {
			best = fmt.Sprintf("%.4gx", e.BestSpeedup)
		}
		fmt.Printf("%-12.12s  %-8s  %-19s  %7dms  %6d  %8s  %-9s  %v\n",
			e.ID, e.Model, started, e.WallMS, e.Evaluations, best, e.Outcome, e.Converged)
	}
	fmt.Printf("%d run(s) in %s\n", len(entries), *dir)
	return nil
}

// renderRun shows one archived run: its manifest and, when the decision
// log is still on disk, the per-round search funnel.
func renderRun(led *ledger.Ledger, ref, format string) error {
	m, err := led.Get(ref)
	if err != nil {
		return err
	}
	if format == "json" {
		b, err := ledger.CanonicalJSON(m)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	fmt.Printf("run %s\n", m.ID)
	fmt.Printf("  model       %s (seed %d, machine %s)\n", m.Model, m.Seed, m.Machine)
	fmt.Printf("  fingerprint %s\n", m.Fingerprint)
	fmt.Printf("  started     %s  wall %dms\n", time.Unix(0, m.StartUnixNS).UTC().Format(time.RFC3339), m.WallMS)
	fmt.Printf("  criteria    max rel error %.3e, min speedup %g\n", m.MaxRelError, m.MinSpeedup)
	fmt.Printf("  outcome     %s (converged %v)\n", m.Outcome, m.Converged)
	fmt.Printf("  evaluations %d (budget %d, resumed %d, salvaged %d)  statuses: %s\n",
		m.Evaluations, m.Budget, m.Resumed, m.Salvaged, formatCounts(m.Statuses))
	fmt.Printf("  minimal     %d of %d atoms stay 64-bit\n", m.MinimalAtoms, m.TotalAtoms)
	if m.BestSpeedup > 0 {
		fmt.Printf("  best        %.4gx speedup, rel error %.3e, %d atom(s) lowered\n",
			m.BestSpeedup, m.BestRelError, m.BestLowered)
	}
	if m.DecisionDigest != "" {
		fmt.Printf("  decisions   %d event(s), digest %.12s, at %s\n", m.DecisionEvents, m.DecisionDigest, m.DecisionPath)
	}
	if m.Metrics != nil {
		fmt.Printf("  metrics:\n%s", m.Metrics.Render("    "))
	}
	if m.DecisionPath != "" {
		if _, err := os.Stat(m.DecisionPath); err == nil {
			fmt.Printf("  search funnel (%s):\n", m.DecisionPath)
			if err := renderFunnelFile(m.DecisionPath, "    "); err != nil {
				fmt.Printf("    (unreadable: %v)\n", err)
			}
		}
	}
	return nil
}

// renderDecisions prints a decision log's funnel without a ledger.
func renderDecisions(path, format string) error {
	if format == "json" {
		hdr, evs, err := ledger.ReadDecisionLog(path)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(struct {
			Header ledger.DecisionHeader `json:"header"`
			Funnel []ledger.FunnelRound  `json:"funnel"`
		}{hdr, ledger.Funnel(evs)})
	}
	return renderFunnelFile(path, "")
}

func renderFunnelFile(path, indent string) error {
	_, evs, err := ledger.ReadDecisionLog(path)
	if err != nil {
		return err
	}
	for _, line := range splitLines(ledger.RenderFunnel(ledger.Funnel(evs))) {
		fmt.Printf("%s%s\n", indent, line)
	}
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	dir := fs.String("ledger", "", "run-ledger directory holding the two runs (omit to pass manifest file paths)")
	format := fs.String("format", "text", "output format: text or json")
	maxSpeedupDrop := fs.Float64("max-speedup-drop", ledger.DefaultThresholds().MaxSpeedupDrop, "tolerated fractional best-speedup drop before it counts as a regression")
	maxErrorRise := fs.Float64("max-error-rise", ledger.DefaultThresholds().MaxErrorRise, "tolerated fractional rise in the best variant's relative error")
	maxEvalsRise := fs.Float64("max-evals-rise", ledger.DefaultThresholds().MaxEvalsRise, "tolerated fractional growth in evaluations used")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare: need exactly two runs: prose compare -ledger DIR <baseline> <candidate>")
	}
	var led *ledger.Ledger
	if *dir != "" {
		led = ledger.Open(*dir)
	}
	a, err := led.Get(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := led.Get(fs.Arg(1))
	if err != nil {
		return err
	}
	th := ledger.Thresholds{
		MaxSpeedupDrop: *maxSpeedupDrop,
		MaxErrorRise:   *maxErrorRise,
		MaxEvalsRise:   *maxEvalsRise,
	}
	c := ledger.Compare(a, b, th)
	if *format == "json" {
		if err := json.NewEncoder(os.Stdout).Encode(c); err != nil {
			return err
		}
	} else {
		fmt.Print(c.Render())
	}
	if c.Regressed() {
		return &regressionError{c: c}
	}
	return nil
}

// splitLines splits rendered text into lines, dropping a trailing empty
// one.
func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
