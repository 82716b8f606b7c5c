package core

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/gptl"
	"repro/internal/interp"
	"repro/internal/models"
	"repro/internal/search"
	"repro/internal/transform"
)

// fakeResult builds a Result with a synthetic log for renderer tests.
func fakeResult(t *testing.T) *Result {
	t.Helper()
	log := search.NewLog()
	add := func(status search.Status, speedup, relerr float64, lowered int, name string) {
		log.Add(&search.Evaluation{
			Assignment: transform.Assignment{name: 4},
			Status:     status, Speedup: speedup, RelError: relerr,
			Lowered: lowered, TotalAtoms: 10,
		})
	}
	add(search.StatusPass, 1.9, 1e-3, 9, "a")
	add(search.StatusPass, 1.2, 1e-5, 5, "b")
	add(search.StatusFail, 2.1, 5.0, 10, "c")
	add(search.StatusError, 0, 0, 10, "d")
	add(search.StatusTimeout, 0, 0, 10, "e")
	return &Result{
		Model:    models.Funarc(),
		Baseline: &Baseline{TotalCycles: 1e6, HotspotCycles: 1.5e5, HotspotShare: 0.15, AtomCount: 10, Threshold: 1e-2},
		Outcome: &search.Outcome{
			Minimal:   []string{"m.p.keep"},
			Log:       log,
			Converged: false,
		},
		Criteria:     search.Criteria{MaxRelError: 1e-2, MinSpeedup: 1},
		ProcVariants: map[string][]ProcPoint{"m.p": {{Key: "", Speedup: 1, FromIndex: 2}, {Key: "x", Speedup: 0.5, FromIndex: 1}}},
	}
}

func TestTableIIRowCounts(t *testing.T) {
	row := fakeResult(t).TableIIRow()
	if row.Total != 5 {
		t.Fatalf("total %d", row.Total)
	}
	if row.PassPct != 40 || row.FailPct != 20 || row.TimeoutPct != 20 || row.ErrorPct != 20 {
		t.Errorf("percentages: %+v", row)
	}
	if row.BestSpeedup != 1.9 {
		t.Errorf("best speedup %.2f (the 2.1x variant fails correctness)", row.BestSpeedup)
	}
	if row.Converged {
		t.Error("converged flag lost")
	}
}

func TestRenderMentionsEverything(t *testing.T) {
	out := fakeResult(t).Render()
	for _, want := range []string{
		"funarc", "search atoms: 10", "hotspot share 15.0%",
		"variants explored: 5", "did NOT converge",
		"best passing variant: 1.90x", "m.p.keep",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderNoPassingVariant(t *testing.T) {
	r := fakeResult(t)
	r.Criteria.MaxRelError = 1e-9 // nothing passes
	if !strings.Contains(r.Render(), "no passing variant") {
		t.Error("missing no-passing message")
	}
}

func TestSortedProcVariants(t *testing.T) {
	r := fakeResult(t)
	pts := r.SortedProcVariants("m.p")
	if len(pts) != 2 || pts[0].FromIndex != 1 || pts[1].FromIndex != 2 {
		t.Errorf("not sorted by discovery: %+v", pts)
	}
	if len(r.SortedProcVariants("nope")) != 0 {
		t.Error("unknown proc returned points")
	}
	names := r.ProcNames()
	if len(names) != 1 || names[0] != "m.p" {
		t.Errorf("ProcNames: %v", names)
	}
}

// timedResult builds an interp.Result whose timers hold the given
// region self times (one call each).
func timedResult(selfs map[string]float64) *interp.Result {
	now := 0.0
	tm := gptl.New(func() float64 { return now })
	names := make([]string, 0, len(selfs))
	for n := range selfs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := tm.Lookup(n)
		tm.StartRegion(r)
		now += selfs[n]
		if err := tm.StopRegion(r); err != nil {
			panic(err)
		}
	}
	return &interp.Result{Timers: tm}
}

// TestHotspotTimeExactWrapperMatch: hotspot CPU time counts hotspot
// procedures and *generated* wrappers of internal hotspot procedures —
// and nothing whose name merely looks like a wrapper's. A user
// procedure literally named foo_wrapper_x must not be misattributed.
func TestHotspotTimeExactWrapperMatch(t *testing.T) {
	tn := &Tuner{
		hotspotProcs: map[string]bool{"hot.flux": true, "hot.flux_wrapper_88x": true},
		entryProcs:   map[string]bool{"hot.entry": true},
	}
	res := timedResult(map[string]float64{
		"hot.flux":              100, // hotspot proc
		"hot.flux_wrapper_88x":  40,  // USER proc with a wrapper-like name (counts as itself)
		"hot.flux_wrapper_44x":  7,   // generated wrapper of an internal hotspot proc
		"hot.entry_wrapper_84x": 9,   // generated boundary wrapper: excluded
		"main.driver":           500, // outside the hotspot
		"phys.f_wrapper_x":      25,  // user proc elsewhere, wrapper-like name
	})
	wrapperOf := map[string]string{
		"hot.flux_wrapper_44x":  "hot.flux",
		"hot.entry_wrapper_84x": "hot.entry",
	}
	if got := tn.hotspotTime(res, wrapperOf); got != 147 {
		t.Errorf("hotspotTime = %g, want 147 (100 + 40 + 7)", got)
	}
	// Baseline runs carry no wrapper map at all.
	if got := tn.hotspotTime(res, nil); got != 140 {
		t.Errorf("baseline hotspotTime = %g, want 140", got)
	}
}

// TestRecordProcPointsExactWrapperMatch: a user procedure named like a
// wrapper of a hotspot procedure must not inflate that procedure's
// per-call time; only the variant's actual generated wrappers do.
func TestRecordProcPointsExactWrapperMatch(t *testing.T) {
	tn := &Tuner{
		model:         &models.Model{Hotspot: "hot"},
		hotspotProcs:  map[string]bool{"hot.flux": true},
		baseProcCalls: map[string]int64{"hot.flux": 1},
		baseProcPC:    map[string]float64{"hot.flux": 216},
		procAtoms:     map[string][]string{"hot.flux": {"hot.flux.x"}},
	}
	res := timedResult(map[string]float64{
		"hot.flux":             100,
		"hot.flux_wrapper_88x": 40, // user proc: must NOT count toward flux
		"hot.flux_wrapper_44x": 8,  // generated wrapper: must count
	})
	ev := &search.Evaluation{
		Assignment: transform.Assignment{"hot.flux.x": 4},
		Status:     search.StatusPass,
		Index:      1,
	}
	ev.Procs = tn.procSamples(res, map[string]string{"hot.flux_wrapper_44x": "hot.flux"})
	pts := tn.procVariants([]*search.Evaluation{ev})["hot.flux"]
	if len(pts) != 1 {
		t.Fatalf("recorded %d points, want 1", len(pts))
	}
	if pt := pts[0]; pt.PerCall != 108 {
		t.Errorf("per-call = %g, want 108 (self 100 + generated wrapper 8)", pt.PerCall)
	}
	if pt := pts[0]; pt.Speedup != 2 {
		t.Errorf("speedup = %g, want 2 (baseline 216 / 108)", pt.Speedup)
	}
}

func TestEntryProcs(t *testing.T) {
	m := models.MPASA()
	prog, err := m.Parse()
	if err != nil {
		t.Fatal(err)
	}
	entries := entryProcs(prog, m.Hotspot)
	if !entries["atm_time_integration.atm_srk3"] {
		t.Errorf("srk3 (called from main) not an entry proc: %v", entries)
	}
	if entries["atm_time_integration.flux4"] {
		t.Error("flux4 (internal) marked as entry proc")
	}
	if entries["atm_time_integration.atm_compute_dyn_tend_work"] {
		t.Error("dyn_tend (internal) marked as entry proc")
	}
}

// TestWholeModelOptionChangesMetric: the same variant gets a different
// speedup under hotspot vs whole-model guidance (the §IV-C contrast).
func TestWholeModelOptionChangesMetric(t *testing.T) {
	m := models.MPASA()
	mk := func(whole bool) float64 {
		tn, err := New(m, Options{Seed: 1, WholeModel: whole})
		if err != nil {
			t.Fatal(err)
		}
		a := transform.Uniform(tn.Atoms(), 4)
		a["atm_time_integration.atm_compute_dyn_tend_work.p0work"] = 8
		ev := tn.Evaluate(a)
		if ev.Status != search.StatusPass && ev.Status != search.StatusFail {
			t.Fatalf("variant did not run: %v %s", ev.Status, ev.Detail)
		}
		return ev.Speedup
	}
	hot := mk(false)
	whole := mk(true)
	t.Logf("knob variant: hotspot-guided %.3fx, whole-model-guided %.3fx", hot, whole)
	if hot < 1.6 {
		t.Errorf("hotspot speedup %.2f, want ~1.9x", hot)
	}
	if whole > 1.25 {
		t.Errorf("whole-model speedup %.2f, want ~1x (boundary casting strips the gain)", whole)
	}
	if whole >= hot {
		t.Error("whole-model metric should be below the hotspot metric")
	}
}
