package blame

import (
	"testing"

	"repro/internal/core"
	"repro/internal/models"
)

// TestFunarcBlameRanksS1First: the atom the tuner's 1-minimal set keeps
// (funarc's accumulator s1) must top the one-at-a-time blame ranking.
func TestFunarcBlameRanksS1First(t *testing.T) {
	rep, err := Analyze(models.Funarc(), core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Atoms) != 8 {
		t.Fatalf("ranked %d atoms, want 8", len(rep.Atoms))
	}
	if got := rep.Atoms[0].QName; got != "funarc_mod.funarc.s1" {
		t.Errorf("top-blamed atom %s, want funarc s1\n%s", got, rep.Render(0))
	}
	// Blames are sorted descending.
	for i := 1; i < len(rep.Atoms); i++ {
		if rep.Atoms[i].Blame > rep.Atoms[i-1].Blame {
			t.Fatalf("ranking not sorted at %d", i)
		}
	}
	// Every single-atom variant of funarc runs (no traps here).
	for _, a := range rep.Atoms {
		if a.Speedup <= 0 {
			t.Errorf("atom %s: no speedup measured (%v)", a.QName, a.Status)
		}
	}
	t.Logf("\n%s", rep.Render(8))
}

// TestMPASBlameMissesInteractions documents the structural limitation
// of guidance-only, one-at-a-time analyses (ADAPT, Blame Analysis —
// paper §VII) that motivates the paper's use of a *search*: MPAS-A's
// p0work knob only matters in combination (the base-state cancellation
// breaks when p0work AND the deviation sum are both 32-bit), so lowering
// it alone is harmless and blame analysis ranks it near zero — while the
// delta-debugging search correctly finds it as the 1-minimal set.
func TestMPASBlameMissesInteractions(t *testing.T) {
	if testing.Short() {
		t.Skip("one evaluation per atom")
	}
	rep, err := Analyze(models.MPASA(), core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var p0 *AtomReport
	for i := range rep.Atoms {
		if rep.Atoms[i].QName == "atm_time_integration.atm_compute_dyn_tend_work.p0work" {
			p0 = &rep.Atoms[i]
		}
	}
	if p0 == nil {
		t.Fatal("p0work not analyzed")
	}
	if p0.Blame > 1e-6 {
		t.Errorf("p0work blamed %.3e in isolation; the interaction effect should be invisible one-at-a-time", p0.Blame)
	}
	// What blame *does* see: the prognostic state path (hh) carries the
	// largest individual rounding impact.
	top := rep.Atoms[:min(3, len(rep.Atoms))]
	sawState := false
	for _, a := range top {
		if a.QName == "atm_time_integration.atm_srk3.hh" ||
			a.QName == "atm_time_integration.atm_recover_large_step_variables_work.hh" {
			sawState = true
		}
	}
	if !sawState {
		t.Errorf("state path not top-blamed:\n%s", rep.Render(3))
	}
	t.Logf("\n%s", rep.Render(6))
}

func TestRenderBounds(t *testing.T) {
	rep := &Report{Model: "x", Atoms: []AtomReport{
		{QName: "a", Blame: 2}, {QName: "b", Blame: 1},
	}}
	if out := rep.Render(5); !contains(out, "2. b") || contains(out, "more atoms") {
		t.Errorf("Render(5) over 2 atoms:\n%s", out)
	}
	out := rep.Render(1)
	if !contains(out, "1. a") || !contains(out, "1 more atoms") {
		t.Errorf("Render(1):\n%s", out)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
