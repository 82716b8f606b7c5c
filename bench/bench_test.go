package main

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// tiny is a funarc sweep small enough for a unit test.
var tiny = workload{Name: "funarc-sweep", Model: "funarc", Budget: 6, Par: 1, Tunes: 2, MinReps: 1, Ledger: true}

func TestTinyWorkloadMetricsAreDeclared(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if sp.RunSeconds <= 0 {
		t.Errorf("BENCHMARK.json run_seconds = %g, the default of -seconds must be positive", sp.RunSeconds)
	}
	traceDir := t.TempDir()
	out, err := runWorkload(tiny, runConfig{Seed: 1, TraceDir: traceDir, Work: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 || out.Attempted == 0 {
		t.Fatalf("%d of %d tunes failed", out.Failed, out.Attempted)
	}
	out.Values["peak_rss_mb"] = peakRSSMB()
	for name := range out.Values {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, metricName)
		}
	}
	// report fails on a metric missing from, or undeclared in, BENCHMARK.json.
	r, err := parent{spec: sp, traceDir: traceDir}.report(out)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(r.Metrics), len(sp.EndToEnd)+len(sp.PerLayer); got != want {
		t.Errorf("traced run reported %d metrics, BENCHMARK.json declares %d", got, want)
	}
	if v := r.Metrics["search.evals"].Value; v != 6 {
		t.Errorf("search.evals = %g, want the budget of 6", v)
	}
	if _, _, err := obs.LoadTrace(filepath.Join(traceDir, tiny.Name+".json")); err != nil {
		t.Errorf("trace does not load: %v", err)
	}
}

func TestCorruptGoldenDigestIsAFailure(t *testing.T) {
	golden := map[string]digest{goldenKey(tiny.Name, 1): {Journal: "corrupt"}}
	w := tiny
	w.Ledger = false
	w.MinReps = 2
	out, err := runWorkload(w, runConfig{Seed: 1, Work: t.TempDir(), Golden: golden})
	if err != nil {
		t.Fatal(err)
	}
	// Seed 1 fails against the corrupt digest in both reps. Seed 2 has no
	// golden digest: its first tune is the reference, and its second
	// matches it.
	if out.Attempted != 4 || out.Failed != 2 {
		t.Errorf("attempted %d, failed %d; want 4 and 2", out.Attempted, out.Failed)
	}
}

func TestOnlyPlainWorkloadsAreSelfReferenced(t *testing.T) {
	for _, w := range workloads {
		want := w.Name == "mpas" || w.Name == "funarc-sweep"
		if got := w.selfReferenced(); got != want {
			t.Errorf("%s: selfReferenced = %v, want %v", w.Name, got, want)
		}
	}
}

func TestGolden(t *testing.T) {
	if _, err := parseGolden([]byte(`{"mpas/1": {"evals": "many"`)); err == nil {
		t.Error("a malformed golden file parsed")
	}
	g, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for i := 0; i < w.Tunes; i++ {
			if d, ok := g[goldenKey(w.Name, int64(1+i))]; !ok || d.Journal == "" || d.Evals == 0 {
				t.Errorf("golden.json lacks %s", goldenKey(w.Name, int64(1+i)))
			}
		}
	}
}

func TestGaugeReadingAllocatesNothing(t *testing.T) {
	g := newGauge(newKernels(1))
	if n := testing.AllocsPerRun(5, g.read); n != 0 {
		t.Errorf("a gauge reading allocates %g times; inside Run that would show in allocs_per_tune", n)
	}
	if s := g.scale(); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("scale = %g, want a positive finite factor", s)
	}
	g = newGauge(newKernels(2))
	g.read()
	if len(g.readings) != 1 || !(g.readings[0] > 0) {
		t.Errorf("a reading of two kernels at once gave %v", g.readings)
	}
}

func TestTail(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{{1, 50}, {19, 50}, {20, 50}, {34, 100 * 24.0 / 34}, {100, 90}, {200, 95}, {1000, 99}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // descending, so tail must sort
		}
		v, pct := tail(xs)
		if math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("n=%d: percentile %g, want %g", c.n, pct, c.pct)
		}
		// At least ten samples lie beyond the tail value once n >= 20.
		want := median(xs)
		if c.n >= 20 {
			want = float64(c.n - 10)
		}
		if v != want {
			t.Errorf("n=%d: tail %g, want %g", c.n, v, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4}); q1 != 1.25 || q3 != 3.75 {
		t.Errorf("quartiles of 1..4 = %g, %g; want 1.25, 3.75", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := func(base float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + 0.01*float64(i%3)
		}
		return xs
	}
	noisy := []float64{8, 12, 9, 11, 10, 8, 12, 9, 11, 10}
	for _, c := range []struct {
		name  string
		a, b  []float64
		bound float64
		want  string
	}{
		{"faster", steady(10), steady(9), 0.05, "better"},
		{"slower beyond bound", steady(10), steady(11), 0.05, "worse"},
		{"slower within bound", steady(10), steady(10.2), 0.05, "unchanged"},
		{"spread wider than bound", noisy, noisy, 0.05, "unresolved"},
		{"no bound, same", steady(10), steady(10), 0, "unchanged"},
	} {
		if got, _ := verdict(c.a, c.b, true, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
