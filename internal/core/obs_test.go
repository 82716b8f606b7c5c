package core

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/search"
)

// TestTracingDoesNotPerturbJournal is the observability acceptance
// test: a tune run with the span tracer and metrics registry attached
// writes an evaluation journal BYTE-IDENTICAL to a run without them.
// Observability is strictly out-of-band — it is not fingerprinted and
// must never leak into the deterministic record.
func TestTracingDoesNotPerturbJournal(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	if _, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: refPath}); err != nil || fault != nil {
		t.Fatalf("reference run: err=%v fault=%v", err, fault)
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	tracedPath := filepath.Join(dir, "traced.jsonl")
	tracer := obs.NewTracer("model=funarc seed=1")
	if _, err, fault := runJournaled(t, Options{
		Seed: 1, JournalPath: tracedPath,
		Trace: tracer, Metrics: obs.NewRegistry(),
	}); err != nil || fault != nil {
		t.Fatalf("traced run: err=%v fault=%v", err, fault)
	}
	tracedBytes, err := os.ReadFile(tracedPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(tracedBytes) != string(refBytes) {
		t.Errorf("traced journal differs from untraced journal (%d vs %d bytes)",
			len(tracedBytes), len(refBytes))
	}
	if tracer.Len() == 0 {
		t.Error("traced run recorded no spans — the test is vacuous")
	}
}

// TestTraceSpanCountsMatchJournal reconciles the trace against the
// journal on a fresh, fault-free run: one eval span per journaled
// record, one journal.append and one journal.checkpoint span per record,
// both under the batch that added the record, and no retry spans. Each
// interp.run span's calls attribute counts at least funarc's 10,001
// calls, and the interp_calls counter sums them. At par 1 no span's
// children overlap, so no span's self time (duration minus its
// children's, as `prose trace` reports it) may be negative.
func TestTraceSpanCountsMatchJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	tracer := obs.NewTracer("model=funarc seed=1")
	reg := obs.NewRegistry()
	if _, err, fault := runJournaled(t, Options{
		Seed: 1, JournalPath: path, Trace: tracer, Metrics: reg,
	}); err != nil || fault != nil {
		t.Fatalf("run: err=%v fault=%v", err, fault)
	}
	_, recs, err := journal.Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	counts := obs.CountByName(tracer.Records())
	if counts[obs.SpanEval] != len(recs) {
		t.Errorf("eval spans = %d, journal records = %d", counts[obs.SpanEval], len(recs))
	}
	if counts[obs.SpanJournalAppend] != len(recs) {
		t.Errorf("journal.append spans = %d, journal records = %d", counts[obs.SpanJournalAppend], len(recs))
	}
	if counts[obs.SpanJournalCheckpoint] != len(recs) {
		t.Errorf("journal.checkpoint spans = %d, journal records = %d", counts[obs.SpanJournalCheckpoint], len(recs))
	}
	if counts[obs.SpanInterpRun] != len(recs) {
		t.Errorf("interp.run spans = %d, journal records = %d", counts[obs.SpanInterpRun], len(recs))
	}
	if counts[obs.SpanRetry] != 0 {
		t.Errorf("fault-free run emitted %d retry spans", counts[obs.SpanRetry])
	}
	var calls int64
	for _, r := range tracer.Records() {
		if r.Name != obs.SpanInterpRun {
			continue
		}
		n, err := strconv.ParseInt(r.Attr("calls"), 10, 64)
		if err != nil || n < 10001 {
			t.Errorf("interp.run span %d: calls %q, want at least the 10001 calls of funarc and fun", r.ID, r.Attr("calls"))
		}
		calls += n
	}
	if got := reg.Snapshot().Counters[obs.MetricInterpCalls]; got != calls {
		t.Errorf("%s counter = %d, interp.run spans sum to %d", obs.MetricInterpCalls, got, calls)
	}
	if counts[obs.SpanTune] != 1 {
		t.Errorf("tune spans = %d, want 1", counts[obs.SpanTune])
	}
	var walk func(n, parent *obs.TraceNode)
	walk = func(n, parent *obs.TraceNode) {
		switch name := n.Rec.Name; name {
		case obs.SpanJournalAppend, obs.SpanJournalCheckpoint:
			if parent == nil || parent.Rec.Name != obs.SpanBatch {
				t.Errorf("%s span %d is not a child of a batch span", name, n.Rec.ID)
			}
		}
		self := n.Rec.Dur
		for _, c := range n.Children {
			self -= c.Rec.Dur
			walk(c, n)
		}
		if self < 0 {
			t.Errorf("%s span %d has negative self time %v", n.Rec.Name, n.Rec.ID, self)
		}
	}
	for _, root := range obs.BuildTree(tracer.Records()) {
		walk(root, nil)
	}
}

// TestTraceRetrySpansMatchSidecar injects transient faults and checks
// the reconciliation under retries: the eval span count still equals
// the journal record count (retries happen inside one eval span), and
// the retry span count equals the retry events in the sidecar.
func TestTraceRetrySpansMatchSidecar(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	tracer := obs.NewTracer("model=funarc seed=1")
	reg := obs.NewRegistry()
	res, err, fault := runJournaled(t, Options{
		Seed: 1, JournalPath: path, Trace: tracer, Metrics: reg,
		Resilience: resilience.Policy{Retries: 8, Backoff: resilience.Backoff{Base: 1}},
		WrapEvaluator: func(inner search.Evaluator) search.Evaluator {
			return &search.FaultInjector{Inner: inner, Mode: search.FaultFlaky, Rate: 0.3, Seed: 7}
		},
	})
	if err != nil || fault != nil {
		t.Fatalf("flaky run: err=%v fault=%v", err, fault)
	}
	if res.Resilience == nil || res.Resilience.Retried == 0 {
		t.Fatal("no retries happened — the test is vacuous")
	}
	_, recs, err := journal.Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	_, evs, err := journal.InspectEvents(journal.EventsPath(path))
	if err != nil {
		t.Fatal(err)
	}
	retryEvents := 0
	for _, e := range evs {
		if e.Type == journal.EventRetry {
			retryEvents++
		}
	}
	counts := obs.CountByName(tracer.Records())
	if counts[obs.SpanEval] != len(recs) {
		t.Errorf("eval spans = %d, journal records = %d", counts[obs.SpanEval], len(recs))
	}
	if counts[obs.SpanRetry] != retryEvents {
		t.Errorf("retry spans = %d, retry events in sidecar = %d", counts[obs.SpanRetry], retryEvents)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.MetricRetries] != int64(retryEvents) {
		t.Errorf("retries counter = %d, retry events = %d", snap.Counters[obs.MetricRetries], retryEvents)
	}
}

// TestParallelTraceDeterministicJournal runs the tune at parallelism 8
// with tracing on: spans are emitted from 8 concurrent workers (the
// race detector covers this in CI), the journal still matches the
// serial untraced reference, and the eval spans still reconcile.
func TestParallelTraceDeterministicJournal(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	if _, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: refPath}); err != nil || fault != nil {
		t.Fatalf("reference run: err=%v fault=%v", err, fault)
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	parPath := filepath.Join(dir, "par.jsonl")
	tracer := obs.NewTracer("model=funarc seed=1")
	if _, err, fault := runJournaled(t, Options{
		Seed: 1, JournalPath: parPath, Parallelism: 8,
		Trace: tracer, Metrics: obs.NewRegistry(),
	}); err != nil || fault != nil {
		t.Fatalf("parallel traced run: err=%v fault=%v", err, fault)
	}
	parBytes, err := os.ReadFile(parPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(parBytes) != string(refBytes) {
		t.Errorf("par-8 traced journal differs from serial untraced journal (%d vs %d bytes)",
			len(parBytes), len(refBytes))
	}
	_, recs, err := journal.Inspect(parPath)
	if err != nil {
		t.Fatal(err)
	}
	if counts := obs.CountByName(tracer.Records()); counts[obs.SpanEval] != len(recs) {
		t.Errorf("eval spans = %d, journal records = %d", counts[obs.SpanEval], len(recs))
	}
}

// TestMetricsSnapshotInReport checks that a run with a registry
// attached carries a final snapshot into the Result and renders it in
// the report, with the evals counter agreeing with the evaluation log.
func TestMetricsSnapshotInReport(t *testing.T) {
	res, err, fault := runJournaled(t, Options{Seed: 1, Metrics: obs.NewRegistry()})
	if err != nil || fault != nil {
		t.Fatalf("run: err=%v fault=%v", err, fault)
	}
	if res.Metrics == nil {
		t.Fatal("Result.Metrics is nil on a run with a registry")
	}
	if got, want := res.Metrics.Counters[obs.MetricEvals], int64(len(res.Outcome.Log.Evals)); got != want {
		t.Errorf("evals counter = %d, evaluation log has %d", got, want)
	}
	report := res.Render()
	if !strings.Contains(report, "metrics:") {
		t.Errorf("report does not contain a metrics section:\n%s", report)
	}
	if !strings.Contains(report, "evals") {
		t.Errorf("report metrics section does not mention evals:\n%s", report)
	}

	// Without a registry the report must not change.
	plain, err, fault := runJournaled(t, Options{Seed: 1})
	if err != nil || fault != nil {
		t.Fatalf("plain run: err=%v fault=%v", err, fault)
	}
	if plain.Metrics != nil {
		t.Error("Result.Metrics is non-nil on a run without a registry")
	}
	if strings.Contains(plain.Render(), "metrics:") {
		t.Error("plain report grew a metrics section")
	}
}
