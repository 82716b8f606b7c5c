package obs

import (
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gptl"
)

// TestDeterministicSpanIDs: span IDs depend only on (fingerprint,
// parent, sequence) — two tracers over the same fingerprint assign the
// same IDs in the same structural order, and a different fingerprint
// assigns different ones.
func TestDeterministicSpanIDs(t *testing.T) {
	build := func(fp string) []SpanID {
		tr := NewTracer(fp)
		root := tr.Root("tune")
		var ids []SpanID
		ids = append(ids, root.ID())
		for i := 0; i < 3; i++ {
			c := root.Child("batch")
			ids = append(ids, c.ID())
			g := c.Child("eval")
			ids = append(ids, g.ID())
			g.End()
			c.End()
		}
		root.End()
		return ids
	}
	a, b := build("fp-1"), build("fp-1")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("id[%d] differs across identical runs: %s vs %s", i, a[i], b[i])
		}
	}
	c := build("fp-2")
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different fingerprints produced identical ID sequences")
	}
	seen := make(map[SpanID]bool)
	for _, id := range a {
		if id == 0 || seen[id] {
			t.Fatalf("id %s zero or duplicated", id)
		}
		seen[id] = true
	}
}

// TestDisabledPathAllocFree: the nil tracer/registry no-op path — what
// every instrumented call site pays when observability is off — must
// not allocate.
func TestDisabledPathAllocFree(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Root("tune")
		c := sp.Child("eval")
		c.Attr("key", "k")
		c.AttrInt("attempt", 1)
		c.AttrFloat("speedup", 1.5)
		c.SetWorker(3)
		c.End()
		sp.End()
		reg.Counter(MetricEvals).Add(1)
		reg.Gauge(GaugeBestSpeedup).Max(1.5)
		reg.Histogram(HistEvalRunNS).Observe(12)
	})
	if allocs != 0 {
		t.Errorf("disabled path allocated %.1f times per run, want 0", allocs)
	}
}

// TestConcurrentSpanEmission: ≥8 goroutines emitting spans through the
// sharded buffers concurrently; run under -race in CI. Every span must
// survive the merge with a unique ID.
func TestConcurrentSpanEmission(t *testing.T) {
	tr := NewTracer("concurrent")
	root := tr.Root("tune")
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := root.Child("eval")
				sp.SetWorker(w)
				sp.AttrInt("i", int64(i))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	recs := tr.Records()
	if len(recs) != workers*perWorker+1 {
		t.Fatalf("got %d records, want %d", len(recs), workers*perWorker+1)
	}
	seen := make(map[SpanID]bool, len(recs))
	for _, r := range recs {
		if seen[r.ID] {
			t.Fatalf("duplicate span ID %s", r.ID)
		}
		seen[r.ID] = true
	}
	if n := CountByName(recs)["eval"]; n != workers*perWorker {
		t.Errorf("eval span count %d, want %d", n, workers*perWorker)
	}
}

// TestChromeExportRoundTrip: WriteFile → LoadTrace preserves span
// identity, hierarchy, exact nanosecond timing, and attributes.
func TestChromeExportRoundTrip(t *testing.T) {
	tr := NewTracer("roundtrip")
	root := tr.Root("tune")
	c := root.Child("batch")
	e := c.Child("eval")
	e.Attr("key", "a;b")
	e.AttrFloat("speedup", 1.25)
	e.SetWorker(2)
	time.Sleep(time.Millisecond)
	e.End()
	c.End()
	root.End()
	// A worker-lane record spliced in from another process: its pid lane
	// (WorkerPIDBase+slot) must survive export and reload, while local
	// spans keep PID 0 (exported as lane 1, normalized back on load).
	tr.Ingest([]SpanRecord{{ID: 0xfeed, Parent: root.ID(), Name: "worker.eval",
		Worker: 3, PID: WorkerPIDBase + 3, Start: 2 * time.Millisecond, Dur: time.Millisecond}})

	path := filepath.Join(t.TempDir(), "out.trace")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	recs, meta, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta["fingerprint"] != "roundtrip" {
		t.Errorf("fingerprint %q not preserved", meta["fingerprint"])
	}
	orig := tr.Records()
	if len(recs) != len(orig) {
		t.Fatalf("got %d records, want %d", len(recs), len(orig))
	}
	for i := range orig {
		o, l := orig[i], recs[i]
		if o.ID != l.ID || o.Parent != l.Parent || o.Name != l.Name ||
			o.Worker != l.Worker || o.PID != l.PID || o.Start != l.Start || o.Dur != l.Dur {
			t.Errorf("record %d: %+v loaded as %+v", i, o, l)
		}
	}
	for _, r := range recs {
		switch r.Name {
		case "worker.eval":
			if r.PID != WorkerPIDBase+3 {
				t.Errorf("worker span reloaded into pid %d, want %d", r.PID, WorkerPIDBase+3)
			}
		default:
			if r.PID != 0 {
				t.Errorf("local span %q reloaded into pid %d, want 0", r.Name, r.PID)
			}
		}
	}
	var loaded SpanRecord
	for _, r := range recs {
		if r.Name == "eval" {
			loaded = r
		}
	}
	if loaded.Attr("key") != "a;b" || loaded.Attr("speedup") != "1.25" {
		t.Errorf("attributes not preserved: %+v", loaded.Attrs)
	}
}

// mkNode builds a synthetic span record for tree/phase tests.
func mkNode(id, parent SpanID, name string, start, dur time.Duration) SpanRecord {
	return SpanRecord{ID: id, Parent: parent, Name: name, Start: start, Dur: dur}
}

// TestPhaseRegionsTelescope: per-phase self times sum to exactly the
// root duration, including when parallel children overlap (negative
// self) and when a name recurses (inclusive counts outermost only).
func TestPhaseRegionsTelescope(t *testing.T) {
	recs := []SpanRecord{
		mkNode(1, 0, "tune", 0, 100*time.Microsecond),
		// Two overlapping children: durations sum past the parent.
		mkNode(2, 1, "batch", 10*time.Microsecond, 60*time.Microsecond),
		mkNode(3, 1, "batch", 20*time.Microsecond, 70*time.Microsecond),
		// A recursing name under one batch.
		mkNode(4, 2, "eval", 15*time.Microsecond, 40*time.Microsecond),
		mkNode(5, 4, "eval", 20*time.Microsecond, 10*time.Microsecond),
	}
	roots := BuildTree(recs)
	if len(roots) != 1 || roots[0].Rec.Name != "tune" {
		t.Fatalf("roots = %v", roots)
	}
	regions := PhaseRegions(roots)
	var selfSum float64
	byName := make(map[string]float64)
	for _, r := range regions {
		selfSum += r.Self
		byName[r.Name] = r.Inclusive
	}
	if math.Abs(selfSum-100) > 1e-9 {
		t.Errorf("self times sum to %.3f µs, want 100 (root duration)", selfSum)
	}
	// eval recursion: inclusive counts the outermost instance only.
	if byName["eval"] != 40 {
		t.Errorf("eval inclusive = %.1f µs, want 40 (outermost only)", byName["eval"])
	}
	if byName["tune"] != 100 {
		t.Errorf("tune inclusive = %.1f µs, want 100", byName["tune"])
	}
}

// TestCriticalPath: the path follows the latest-finishing child.
func TestCriticalPath(t *testing.T) {
	recs := []SpanRecord{
		mkNode(1, 0, "tune", 0, 100*time.Microsecond),
		mkNode(2, 1, "batch", 0, 30*time.Microsecond),
		mkNode(3, 1, "batch", 40*time.Microsecond, 50*time.Microsecond), // ends at 90 — on the path
		mkNode(4, 3, "eval", 45*time.Microsecond, 20*time.Microsecond),
		mkNode(5, 3, "eval", 50*time.Microsecond, 35*time.Microsecond), // ends at 85 — on the path
	}
	roots := BuildTree(recs)
	path := CriticalPath(roots[0])
	var ids []SpanID
	for _, n := range path {
		ids = append(ids, n.Rec.ID)
	}
	want := []SpanID{1, 3, 5}
	if len(ids) != len(want) {
		t.Fatalf("critical path %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("critical path %v, want %v", ids, want)
		}
	}
}

// TestRenderTreeDepthAndFanout: rendering honors the depth limit and
// elides wide fan-outs instead of flooding the terminal.
func TestRenderTreeDepthAndFanout(t *testing.T) {
	recs := []SpanRecord{mkNode(1, 0, "tune", 0, time.Millisecond)}
	for i := 2; i < 2+treeFanoutLimit+5; i++ {
		recs = append(recs, mkNode(SpanID(i), 1, "eval", time.Duration(i), time.Microsecond))
	}
	roots := BuildTree(recs)
	out := RenderTree(roots[0], 0)
	if !strings.Contains(out, "… 5 more") {
		t.Errorf("fan-out not elided:\n%s", out)
	}
	if got := RenderTree(roots[0], 1); strings.Contains(got, "eval") {
		t.Errorf("depth 1 render shows children:\n%s", got)
	}
	if got := RenderTree(roots[0], 1); !strings.Contains(got, "child span(s)") {
		t.Errorf("depth-limited render hides the elision note:\n%s", got)
	}
}

// TestRegistryConcurrent: counters/gauges/histograms under concurrent
// writers (run with -race in CI); snapshot totals must be exact.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				reg.Counter(MetricEvals).Add(1)
				reg.Gauge(GaugeBestSpeedup).Max(float64(w*per + i))
				reg.Histogram(HistEvalRunNS).Observe(1)
			}
		}(w)
	}
	wg.Wait()
	s := reg.Snapshot()
	if s.Counters[MetricEvals] != workers*per {
		t.Errorf("counter = %d, want %d", s.Counters[MetricEvals], workers*per)
	}
	if want := float64(workers*per - 1); s.Gauges[GaugeBestSpeedup] != want {
		t.Errorf("gauge max = %g, want %g", s.Gauges[GaugeBestSpeedup], want)
	}
	h := s.Histograms[HistEvalRunNS]
	if h.Count != workers*per || h.Sum != float64(workers*per) || h.Min != 1 || h.Max != 1 || h.Mean != 1 {
		t.Errorf("histogram = %+v", h)
	}
}

// TestSnapshotRender: the report embedding is sorted and covers every
// instrument class.
func TestSnapshotRender(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_count").Add(2)
	reg.Counter("a_count").Add(1)
	reg.Gauge("g").Set(1.5)
	reg.Histogram("h").Observe(10)
	out := reg.Snapshot().Render("  ")
	for _, want := range []string{"a_count", "b_count", "g", "n=1", "mean=10"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "a_count") > strings.Index(out, "b_count") {
		t.Errorf("counters not sorted:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "  ") {
			t.Errorf("line %q missing indent", line)
		}
	}
}

// TestProgressLine: the heartbeat line reflects registry state, and the
// windowed rate yields an ETA once evaluations advance between samples.
func TestProgressLine(t *testing.T) {
	reg := NewRegistry()
	p := NewProgress(nil, time.Hour, reg, 100)
	line := p.Line()
	if !strings.Contains(line, "0/100 evals") {
		t.Errorf("initial line %q", line)
	}
	reg.Counter(MetricEvals).Add(10)
	reg.Gauge(GaugeBestSpeedup).Max(1.333)
	reg.Counter(MetricRetries).Add(2)
	reg.Counter(MetricQuarantined).Add(1)
	reg.Gauge(GaugeBreakerOpen).Set(1)
	time.Sleep(5 * time.Millisecond)
	line = p.Line()
	for _, want := range []string{"10/100 evals", "best 1.333x", "eval/s", "eta",
		"retried 2", "quarantined 1", "breaker OPEN"} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
}

// TestProgressStartStop: Start/Stop is race-safe, drains the goroutine,
// emits a final line, and tolerates double Stop and nil receivers.
func TestProgressStartStop(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	reg := NewRegistry()
	p := NewProgress(w, time.Millisecond, reg, 10)
	p.Start()
	p.Start() // idempotent
	reg.Counter(MetricEvals).Add(3)
	time.Sleep(10 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "3/10 evals") {
		t.Errorf("progress output missing final state:\n%s", out)
	}
	var nilP *Progress
	nilP.Start()
	nilP.Stop()
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestDebugServer: /debug/metrics, /debug/vars, and /debug/pprof all
// answer on the private mux, and Close shuts the listener down.
func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricEvals).Add(7)
	ds, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		"/debug/metrics":       `"evals": 7`,
		"/debug/vars":          "prose_metrics",
		"/debug/pprof/":        "goroutine",
		"/debug/pprof/cmdline": "",
	} {
		resp, err := http.Get("http://" + ds.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body := make([]byte, 1<<16)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if want != "" && !strings.Contains(string(body[:n]), want) {
			t.Errorf("GET %s: body missing %q:\n%s", path, want, body[:n])
		}
	}
	if err := ds.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if _, err := http.Get("http://" + ds.Addr() + "/debug/metrics"); err == nil {
		t.Error("server still answering after Close")
	}
	var nilDS *DebugServer
	if nilDS.Close() != nil || nilDS.Addr() != "" {
		t.Error("nil DebugServer not a no-op")
	}
}

// TestTracerSummary: the tracer's spans fold into one gptl region
// per phase, rendered as the table prose trace prints.
func TestTracerSummary(t *testing.T) {
	tr := NewTracer("sum")
	root := tr.Root("tune")
	for i := 0; i < 3; i++ {
		c := root.Child("eval")
		c.End()
	}
	root.End()
	regions := PhaseRegions(BuildTree(tr.Records()))
	out := gptl.FormatRegions(regions)
	if !strings.Contains(out, "region") || !strings.Contains(out, "self/call") {
		t.Errorf("table missing gptl header:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 3 { // header + tune + eval
		t.Errorf("two-phase table has %d lines:\n%s", lines, out)
	}
	calls := make(map[string]int)
	for _, r := range regions {
		calls[r.Name] = int(r.Calls)
	}
	if len(calls) != 2 || calls["tune"] != 1 || calls["eval"] != 3 {
		t.Errorf("phase calls %v, want tune 1 and eval 3", calls)
	}
	var nilT *Tracer
	if nilT.Len() != 0 || nilT.Records() != nil || nilT.Fingerprint() != "" {
		t.Error("nil tracer not a no-op")
	}
}
