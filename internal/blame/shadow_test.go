package blame

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
)

// TestShadowAnalyzeMatchesAnalyzeOnFunarc: the one-run shadow ranking
// must agree with the N-run one-at-a-time Analyze on the atom that
// matters — funarc's accumulator s1, whose divergence grows over the
// 10000-iteration loop while every other atom only contributes
// per-step rounding noise.
func TestShadowAnalyzeMatchesAnalyzeOnFunarc(t *testing.T) {
	m := models.Funarc()
	sh, err := ShadowAnalyze(m, ShadowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sh.RunFailure != "" {
		t.Fatalf("instrumented funarc run failed: %s", sh.RunFailure)
	}
	if len(sh.Atoms) != 8 {
		t.Fatalf("ranked %d atoms, want 8", len(sh.Atoms))
	}

	ref, err := Analyze(m, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sh.Atoms[0].QName, ref.Atoms[0].QName; got != want {
		t.Errorf("shadow top atom %s, Analyze top atom %s\nshadow:\n%s\nanalyze:\n%s",
			got, want, sh.Render(8), ref.Render(8))
	}
	if got := sh.Atoms[0].QName; got != "funarc_mod.funarc.s1" {
		t.Errorf("top shadow atom %s, want funarc s1", got)
	}
	// funarc's (t2-t1)**2 at the arc-length accumulation is the
	// textbook catastrophic cancellation; one instrumented run must
	// surface at least one such site.
	if sh.Profile.Catastrophic < 1 {
		t.Errorf("catastrophic cancellations = %d, want >= 1\n%s",
			sh.Profile.Catastrophic, sh.Profile.Render(10))
	}
	t.Logf("\n%s", sh.Render(8))
}

func TestShadowReportJSONRoundTrip(t *testing.T) {
	sh, err := ShadowAnalyze(models.Funarc(), ShadowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(sh)
	if err != nil {
		t.Fatal(err)
	}
	var back ShadowReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sh, &back) {
		t.Error("ShadowReport does not survive a JSON round-trip")
	}
}

// TestRankAtomsTieDeterminism pins the Analyze tie-break: equal blame
// scores order by QName, independent of input order.
func TestRankAtomsTieDeterminism(t *testing.T) {
	a := []AtomReport{
		{QName: "m.p.zeta", Blame: 0},
		{QName: "m.p.alpha", Blame: 0},
		{QName: "m.p.top", Blame: 1e-3},
		{QName: "m.p.mid", Blame: 0},
	}
	b := []AtomReport{a[3], a[0], a[2], a[1]}
	rankAtoms(a)
	rankAtoms(b)
	want := []string{"m.p.top", "m.p.alpha", "m.p.mid", "m.p.zeta"}
	for i, w := range want {
		if a[i].QName != w || b[i].QName != w {
			t.Fatalf("rank %d: got %s / %s, want %s (tie not broken by QName)",
				i, a[i].QName, b[i].QName, w)
		}
	}
}
