package models

import (
	"strings"
	"testing"

	ft "repro/internal/fortran"
	"repro/internal/interp"
	"repro/internal/perfmodel"
	"repro/internal/transform"
)

// runModel runs a model program (optionally transformed) and returns the
// interp, result and error.
func runModel(t *testing.T, m *Model, prog *ft.Program, profile bool) (*interp.Interp, *interp.Result, error) {
	t.Helper()
	in, err := interp.New(prog, interp.Config{
		Model:         perfmodel.Default(),
		TrapNonFinite: true,
		Profile:       profile,
	})
	if err != nil {
		t.Fatalf("interp.New: %v", err)
	}
	res, err := in.Run()
	return in, res, err
}

// TestMPASCalibration prints the baseline profile for calibration and
// checks the structural invariants the reproduction relies on.
func TestMPASCalibration(t *testing.T) {
	m := MPASA()
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
	if len(base) != mpasCells*24 {
		t.Fatalf("ke series length %d", len(base))
	}

	hot := map[string]bool{}
	for _, q := range m.HotspotProcs(prog) {
		hot[q] = true
	}
	hotCycles := hotSelf(res, hot)
	share := hotCycles / res.Cycles * 100
	t.Logf("total cycles %.0f, hotspot share %.1f%% (paper: ~15%%)", res.Cycles, share)
	t.Logf("atoms in hotspot: %d", len(transform.Atoms(prog, m.Hotspot)))
	for _, r := range res.Timers.Regions() {
		t.Logf("  %-55s calls=%6d self=%12.0f  self/call=%9.1f", r.Name, r.Calls, r.Self, r.PerCall())
	}
	if share < 8 || share > 25 {
		t.Errorf("hotspot share %.1f%% out of the calibrated band (8-25%%)", share)
	}

	// Uniform whole-program 32-bit (the supported single-precision
	// build): must run, and its error defines the threshold.
	all32 := transform.Uniform(transform.Atoms(prog), 4)
	v, err := transform.Apply(prog, all32)
	if err != nil {
		t.Fatalf("whole-program 32-bit transform: %v", err)
	}
	in32, res32, err := runModel(t, m, v.Prog, false)
	if err != nil {
		t.Fatalf("uniform 32-bit run failed: %v", err)
	}
	v32, err := m.Extract(in32)
	if err != nil {
		t.Fatal(err)
	}
	errU32, err := m.Compare(base, v32)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("uniform-32 whole-model metric error: %.3e", errU32)
	if errU32 <= 0 {
		t.Error("uniform 32-bit build shows no error; rounding not exercised")
	}
	t.Logf("whole-model speedup of uniform-32: %.3f (paper: ~1.4x)", res.Cycles/res32.Cycles)

	// Hotspot-only uniform 32-bit: the Fig. 5 headline variant family.
	hot32 := transform.Uniform(transform.Atoms(prog, m.Hotspot), 4)
	vh, err := transform.Apply(prog, hot32)
	if err != nil {
		t.Fatalf("hotspot 32-bit transform: %v", err)
	}
	inh, resh, err := runModel(t, m, vh.Prog, true)
	if err != nil {
		t.Fatalf("hotspot 32-bit run failed: %v", err)
	}
	vh32, err := m.Extract(inh)
	if err != nil {
		t.Fatal(err)
	}
	errH32, err := m.Compare(base, vh32)
	if err != nil {
		t.Fatal(err)
	}
	hotCycles32 := hotSelf(resh, hot)
	t.Logf("hotspot-32: hotspot speedup %.3f (paper ~1.9x), whole-model speedup %.3f, metric error %.3e (uniform-32 err %.3e), wrappers %d, casts %d",
		hotCycles/hotCycles32, res.Cycles/resh.Cycles, errH32, errU32, vh.Wrappers, resh.Casts)

	// Probe candidate "knob" variants: hotspot uniformly 32-bit except
	// a named subset kept in 64-bit.
	stateVars := []string{
		"atm_time_integration.atm_srk3.uu",
		"atm_time_integration.atm_srk3.hh",
		"atm_time_integration.atm_srk3.tt",
		"atm_time_integration.atm_recover_large_step_variables_work.uu",
		"atm_time_integration.atm_recover_large_step_variables_work.hh",
		"atm_time_integration.atm_recover_large_step_variables_work.tt",
	}
	partBVars := []string{
		"atm_time_integration.alpha_tri",
		"atm_time_integration.gamma_tri",
		"atm_time_integration.atm_compute_dyn_tend_work.am",
		"atm_time_integration.atm_compute_dyn_tend_work.bm",
		"atm_time_integration.atm_compute_dyn_tend_work.cm",
		"atm_time_integration.atm_compute_dyn_tend_work.denom",
		"atm_time_integration.atm_compute_dyn_tend_work.beta",
	}
	probes := []struct {
		name string
		keep []string
	}{
		{"p0work knob 64-bit", []string{
			"atm_time_integration.atm_compute_dyn_tend_work.p0work",
		}},
		{"p0work + state path 64-bit", append([]string{
			"atm_time_integration.atm_compute_dyn_tend_work.p0work",
		}, stateVars...)},
		{"state path 64-bit", stateVars},
		{"tridiag part-B 64-bit", partBVars},
		{"state + part-B 64-bit", append(append([]string{}, stateVars...), partBVars...)},
		{"tend accumulators 64-bit", []string{
			"atm_time_integration.tend_u",
			"atm_time_integration.tend_h",
			"atm_time_integration.tend_theta",
		}},
		{"acoustic fields 64-bit", []string{
			"atm_time_integration.ru_p",
			"atm_time_integration.rh_p",
		}},
	}
	for _, pr := range probes {
		probe := transform.Uniform(transform.Atoms(prog, m.Hotspot), 4)
		for _, q := range pr.keep {
			probe[q] = 8
		}
		vp, err := transform.Apply(prog, probe)
		if err != nil {
			t.Fatalf("probe %q transform: %v", pr.name, err)
		}
		inp, resp, err := runModel(t, m, vp.Prog, true)
		if err != nil {
			t.Fatalf("probe %q run failed: %v", pr.name, err)
		}
		vpOut, err := m.Extract(inp)
		if err != nil {
			t.Fatal(err)
		}
		errP, err := m.Compare(base, vpOut)
		if err != nil {
			t.Fatal(err)
		}
		hotP := hotSelf(resp, hot)
		t.Logf("knob probe (%s): hotspot speedup %.3f, error %.3e (hotspot-32 err %.3e, threshold %.3e)",
			pr.name, hotCycles/hotP, errP, errH32, 0.1*errU32)
	}

	// A badly mixed variant: one flux argument stays 64-bit, forcing a
	// per-cell wrapper (the Fig. 6 flux slowdown / Fig. 7 <0.6x story).
	bad := transform.Uniform(transform.Atoms(prog, m.Hotspot), 4)
	bad["atm_time_integration.flux4.ua"] = 8
	vb, err := transform.Apply(prog, bad)
	if err != nil {
		t.Fatalf("bad-variant transform: %v", err)
	}
	inb, resb, err := runModel(t, m, vb.Prog, true)
	if err != nil {
		t.Fatalf("bad-variant run failed: %v", err)
	}
	_ = inb
	hotB := hotSelf(resb, hot)
	fluxBase := res.Timers.Region("atm_time_integration.flux4")
	fluxBad := resb.Timers.Region("atm_time_integration.flux4")
	wrapSelf := 0.0
	for _, r := range resb.Timers.Regions() {
		if strings.Contains(r.Name, "flux4_wrapper") {
			wrapSelf += r.Self
		}
	}
	t.Logf("mixed-flux variant: hotspot speedup %.3f, whole-model speedup %.3f, flux4 per-call %.2f -> %.2f (plus wrapper self %.0f over %d calls)",
		hotCycles/hotB, res.Cycles/resb.Cycles,
		fluxBase.PerCall(), fluxBad.PerCall(), wrapSelf, fluxBad.Calls)
}

// hotSelf sums the self cycles of the hot regions in Regions order, as
// the tuner's hotspot time does.
func hotSelf(res *interp.Result, hot map[string]bool) float64 {
	var sum float64
	for _, r := range res.Timers.Regions() {
		if hot[r.Name] {
			sum += r.Self
		}
	}
	return sum
}
