package models

import (
	"errors"
	"testing"

	"repro/internal/interp"
	"repro/internal/transform"
)

// TestMOM6Calibration checks the structural behaviours the MOM6
// reproduction depends on.
func TestMOM6Calibration(t *testing.T) {
	m := MOM6()
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
	t.Logf("baseline CFL series: %v", base)

	hot := map[string]bool{}
	for _, q := range m.HotspotProcs(prog) {
		hot[q] = true
	}
	hotCycles := hotSelf(res, hot)
	t.Logf("total cycles %.0f, hotspot share %.1f%% (paper ~9%%)", res.Cycles, hotCycles/res.Cycles*100)
	t.Logf("atoms in hotspot: %d", len(transform.Atoms(prog, m.Hotspot)))
	for _, r := range res.Timers.Regions() {
		t.Logf("  %-40s calls=%6d self=%12.0f self/call=%10.1f", r.Name, r.Calls, r.Self, r.PerCall())
	}
	adjBase := res.Timers.Region("mom_continuity_ppm.zonal_flux_adjust")

	probes := []struct {
		name string
		keep []string
	}{
		{"uniform 32", nil},
		{"resid chain 64", []string{
			"mom_continuity_ppm.zonal_flux_adjust.resid",
			"mom_continuity_ppm.zonal_flux_adjust.dresid",
			"mom_continuity_ppm.zonal_flux_adjust.fk",
			"mom_continuity_ppm.zonal_flux_adjust.du",
			"mom_continuity_ppm.zonal_flux_adjust.scale",
			"mom_continuity_ppm.zonal_flux_adjust.target_uh",
			"mom_continuity_ppm.zonal_flux_layer.hupw",
			"mom_continuity_ppm.zonal_flux_layer.hdnw",
			"mom_continuity_ppm.zonal_flux_layer.uface",
			"mom_continuity_ppm.zonal_flux_layer.f",
			"mom_continuity_ppm.uvel_face.uf",
			"mom_continuity_ppm.h_l",
			"mom_continuity_ppm.h_r",
		}},
		{"mixed resid only 64", []string{
			"mom_continuity_ppm.zonal_flux_adjust.resid",
		}},
		{"big arrays 64", []string{
			"mom_continuity_ppm.h_l",
			"mom_continuity_ppm.h_r",
			"mom_continuity_ppm.uh",
			"mom_continuity_ppm.duhdu",
		}},
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
				t.Logf("probe %-20s => runtime error: %v", pr.name, re)
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
		adjP := resp.Timers.Region("mom_continuity_ppm.zonal_flux_adjust")
		t.Logf("probe %-20s => hotspot speedup %.3f, whole %.3f, flux_adjust/call %.0f->%.0f (%.2fx), err %.3e (thr %.1e), casts %d",
			pr.name, hotCycles/hotP, res.Cycles/resp.Cycles,
			adjBase.PerCall(), adjP.PerCall(), adjBase.PerCall()/adjP.PerCall(),
			relErr, m.Threshold, resp.Casts)
	}
}
