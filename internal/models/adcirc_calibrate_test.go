package models

import (
	"errors"
	"testing"

	"repro/internal/interp"
	"repro/internal/transform"
)

// TestADCIRCCalibration checks the structural behaviours the ADCIRC
// reproduction depends on.
func TestADCIRCCalibration(t *testing.T) {
	m := ADCIRC()
	prog, err := m.Parse()
	if err != nil {
		t.Fatal(err)
	}
	in, res, err := runModel(t, m, prog, true)
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	base, err := m.Extract(in)
	if err != nil {
		t.Fatal(err)
	}

	iters, _ := in.GlobalFloats("adcirc_state.solve_iters")
	iersBase, _ := in.GlobalFloats("adcirc_state.solve_ier")
	var meanIters float64
	for i := range iters {
		meanIters += iters[i] / float64(len(iters))
		if iersBase[i] != 0 {
			t.Errorf("baseline step %d: jcg returned ier=%v", i+1, iersBase[i])
		}
	}
	t.Logf("baseline CG iterations per step: %v (mean %.1f)", iters, meanIters)
	if meanIters < 15 || meanIters > 200 {
		t.Errorf("baseline CG iteration count %f out of the calibrated band", meanIters)
	}

	hot := map[string]bool{}
	for _, q := range m.HotspotProcs(prog) {
		hot[q] = true
	}
	hotCycles := hotSelf(res, hot)
	t.Logf("total cycles %.0f, hotspot share %.1f%% (paper ~12%%)", res.Cycles, hotCycles/res.Cycles*100)
	t.Logf("atoms in hotspot: %d", len(transform.Atoms(prog, m.Hotspot)))
	for _, r := range res.Timers.Regions() {
		t.Logf("  %-30s calls=%6d self=%12.0f self/call=%10.1f", r.Name, r.Calls, r.Self, r.PerCall())
	}

	jcgBase := res.Timers.Region("itpackv.jcg")

	probes := []struct {
		name string
		keep []string // kept at 64-bit, all other hotspot atoms lowered
	}{
		{"uniform 32", nil},
		{"h0ref 64-bit", []string{"itpackv.jcg.h0ref"}},
		{"asym mix", []string{"itpackv.asub", "itpackv.adiag", "itpackv.jcg.h0ref"}},
		{"stall mix", []string{"itpackv.jcg.h0ref", "itpackv.jcg.stptst", "itpackv.jcg.stpbest", "itpackv.jcg.bnorm"}},
		{"stall mix 2", []string{"itpackv.jcg.h0ref", "itpackv.rvec", "itpackv.zvec"}},
	}
	for _, pr := range probes {
		a := transform.Uniform(transform.Atoms(prog, m.Hotspot), 4)
		for _, q := range pr.keep {
			a[q] = 8
		}
		v, err := transform.Apply(prog, a)
		if err != nil {
			t.Fatalf("%s: transform: %v", pr.name, err)
		}
		inp, resp, err := runModel(t, m, v.Prog, true)
		if err != nil {
			var re *interp.RunError
			if errors.As(err, &re) {
				t.Logf("probe %-14s => runtime error: %v", pr.name, re)
				continue
			}
			t.Fatalf("%s: run: %v", pr.name, err)
		}
		out, err := m.Extract(inp)
		if err != nil {
			t.Fatal(err)
		}
		relErr, err := m.Compare(base, out)
		if err != nil {
			t.Fatal(err)
		}
		hotP := hotSelf(resp, hot)
		jcgP := resp.Timers.Region("itpackv.jcg")
		pIters, _ := inp.GlobalFloats("adcirc_state.solve_iters")
		pIers, _ := inp.GlobalFloats("adcirc_state.solve_ier")
		t.Logf("probe %-14s => hotspot speedup %.3f, jcg/call %.0f->%.0f (%.2fx), err %.3e (thr %.1e), iters %v, ier %v",
			pr.name, hotCycles/hotP, jcgBase.PerCall(), jcgP.PerCall(),
			jcgBase.PerCall()/jcgP.PerCall(), relErr, m.Threshold, pIters, pIers)
	}
}
