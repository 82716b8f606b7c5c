package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/search"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and
// returns everything it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	fn()
	w.Close()
	return string(<-done)
}

// TestTuneTraceCLI: tune -trace writes a loadable trace whose eval
// spans reconcile with the journal, and prose trace analyzes it — with
// the per-phase self times summing (within rounding) to the root span.
func TestTuneTraceCLI(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "funarc.jsonl")
	tpath := filepath.Join(dir, "funarc.trace")
	if err := cmdTune([]string{"-model", "funarc", "-journal", jpath, "-trace", tpath}); err != nil {
		t.Fatalf("tune -trace: %v", err)
	}

	recs, meta, err := obs.LoadTrace(tpath)
	if err != nil {
		t.Fatalf("loading trace: %v", err)
	}
	if meta["fingerprint"] != "model=funarc seed=1" {
		t.Errorf("trace fingerprint = %q", meta["fingerprint"])
	}
	_, jrecs, err := journal.Inspect(jpath)
	if err != nil {
		t.Fatal(err)
	}
	counts := obs.CountByName(recs)
	if counts[obs.SpanEval] != len(jrecs) {
		t.Errorf("eval spans = %d, journal records = %d", counts[obs.SpanEval], len(jrecs))
	}

	roots := obs.BuildTree(recs)
	if len(roots) != 1 || roots[0].Rec.Name != obs.SpanTune {
		t.Fatalf("trace roots = %d, want a single tune root", len(roots))
	}
	var selfSum float64
	for _, r := range obs.PhaseRegions(roots) {
		selfSum += r.Self
	}
	rootMicros := float64(roots[0].Rec.Dur) / 1000
	if math.Abs(selfSum-rootMicros) > 1 {
		t.Errorf("phase self times sum to %.2fµs, root is %.2fµs", selfSum, rootMicros)
	}

	if err := cmdTrace([]string{tpath}); err != nil {
		t.Errorf("trace <path>: %v", err)
	}
	if err := cmdTrace([]string{"-top", "3", "-tree", "-depth", "2", "-trace", tpath}); err != nil {
		t.Errorf("trace -top -tree: %v", err)
	}
	if err := cmdTrace([]string{filepath.Join(dir, "missing.trace")}); err == nil {
		t.Error("missing trace accepted")
	}
	if err := cmdTrace(nil); err == nil {
		t.Error("trace without a path accepted")
	}
}

// TestJournalJSONCLI: prose journal -format json emits a parseable
// dump carrying the same counts as the journal, keyed by the obs
// metric names; the default text format is unaffected by the flag.
func TestJournalJSONCLI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "funarc.jsonl")
	if err := cmdTune([]string{"-model", "funarc", "-journal", path,
		"-retries", "1", "-retry-backoff", "1ns"}); err != nil {
		t.Fatalf("tune: %v", err)
	}

	var jerr error
	out := captureStdout(t, func() {
		jerr = cmdJournal([]string{"-format", "json", "-records", path})
	})
	if jerr != nil {
		t.Fatalf("journal -format json: %v", jerr)
	}
	var dump struct {
		Model       string           `json:"model"`
		Evaluations int              `json:"evaluations"`
		Statuses    map[string]int   `json:"statuses"`
		Metrics     map[string]int64 `json:"metrics"`
		Records     []journal.Record `json:"records"`
		Checkpoint  *struct {
			Done bool `json:"done"`
		} `json:"checkpoint"`
	}
	if err := json.Unmarshal([]byte(out), &dump); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if dump.Model != "funarc" {
		t.Errorf("model = %q", dump.Model)
	}
	if dump.Evaluations == 0 || len(dump.Records) != dump.Evaluations {
		t.Errorf("evaluations = %d, records = %d", dump.Evaluations, len(dump.Records))
	}
	if dump.Metrics[obs.MetricEvals] != int64(dump.Evaluations) {
		t.Errorf("metrics[%s] = %d, want %d", obs.MetricEvals, dump.Metrics[obs.MetricEvals], dump.Evaluations)
	}
	total := 0
	for st, n := range dump.Statuses {
		total += n
		if dump.Metrics[obs.MetricEvalsPrefix+st] != int64(n) {
			t.Errorf("metrics[%s%s] = %d, statuses[%s] = %d",
				obs.MetricEvalsPrefix, st, dump.Metrics[obs.MetricEvalsPrefix+st], st, n)
		}
	}
	if total != dump.Evaluations {
		t.Errorf("status counts sum to %d, want %d", total, dump.Evaluations)
	}
	if dump.Checkpoint == nil || !dump.Checkpoint.Done {
		t.Error("checkpoint missing or not done in JSON dump")
	}

	if err := cmdJournal([]string{"-format", "nope", path}); err == nil {
		t.Error("unknown -format accepted")
	}
	// The default text path still works with the flag present.
	if err := cmdJournal([]string{"-format", "text", path}); err != nil {
		t.Errorf("journal -format text: %v", err)
	}
}

// TestJournalReadsLateResultAsDupRefused: older sidecars record a
// reply that outlived its lease as late_result. prose journal counts it
// with the dup_refused events, in text and in JSON.
func TestJournalReadsLateResultAsDupRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "funarc.jsonl")
	if err := cmdTune([]string{"-model", "funarc", "-budget", "3", "-journal", path}); err != nil {
		t.Fatalf("tune: %v", err)
	}
	h, _, err := journal.Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := journal.CreateEvents(journal.EventsPath(path), h)
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []string{fleet.EventLeaseGrant, "late_result", fleet.EventDupRefused} {
		if err := ev.Append(journal.EventRecord{Type: typ}); err != nil {
			t.Fatal(err)
		}
	}
	ev.Close()

	var jerr error
	text := captureStdout(t, func() { jerr = cmdJournal([]string{path}) })
	if jerr != nil || !strings.Contains(text, "2 duplicate or stale reply(ies) refused") {
		t.Errorf("journal text (err %v) does not count late_result as refused:\n%s", jerr, text)
	}
	out := captureStdout(t, func() { jerr = cmdJournal([]string{"-format", "json", path}) })
	var dump struct {
		Metrics map[string]int64 `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out), &dump); jerr != nil || err != nil {
		t.Fatalf("journal -format json: %v, %v", jerr, err)
	}
	for _, name := range []string{obs.MetricFleetNetDupRefused, obs.MetricEventsPrefix + fleet.EventDupRefused} {
		if dump.Metrics[name] != 2 {
			t.Errorf("metrics[%s] = %d, want 2", name, dump.Metrics[name])
		}
	}
}

// TestTuneObsShutdownOnCancel: a tune with the progress heartbeat and
// the debug server running stops cleanly when the wall budget expires —
// same *search.Cancelled error and exit code 5 as an unobserved run —
// and still flushes the partial trace.
func TestTuneObsShutdownOnCancel(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "funarc.jsonl")
	tpath := filepath.Join(dir, "funarc.trace")
	err := cmdTune([]string{"-model", "funarc", "-journal", jpath,
		"-trace", tpath, "-progress", "5ms", "-debug-addr", "127.0.0.1:0",
		"-wall-budget", "25ms"})
	var ce *search.Cancelled
	if !errors.As(err, &ce) {
		t.Fatalf("observed tune under a wall budget returned %v, want *search.Cancelled", err)
	}
	if got := exitCodeFor(err); got != exitCancelled {
		t.Errorf("exit code %d, want %d", got, exitCancelled)
	}
	if _, serr := os.Stat(tpath); serr != nil {
		t.Errorf("cancelled run flushed no trace: %v", serr)
	}
	if _, _, lerr := obs.LoadTrace(tpath); lerr != nil {
		t.Errorf("partial trace unreadable: %v", lerr)
	}
	// The journal stays resumable with observability off again.
	if rerr := cmdTune([]string{"-model", "funarc", "-journal", jpath, "-resume"}); rerr != nil {
		t.Errorf("resume after observed cancel: %v", rerr)
	}
}
