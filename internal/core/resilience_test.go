package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/journal"
	"repro/internal/models"
	"repro/internal/resilience"
	"repro/internal/search"
	"repro/internal/transform"
)

// TestFlakyRetryJournalByteIdentical is the resilience acceptance test:
// a tune whose evaluations transiently die 30% of the time, run under
// -retries, leaves an evaluation journal BYTE-IDENTICAL to a fault-free
// run's — the retries absorb the infrastructure noise without changing
// a single journaled value, index, or byte.
func TestFlakyRetryJournalByteIdentical(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	ref, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: refPath})
	if err != nil || fault != nil {
		t.Fatalf("reference run: err=%v fault=%v", err, fault)
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	flakyPath := filepath.Join(dir, "flaky.jsonl")
	res, err, fault := runJournaled(t, Options{
		Seed: 1, JournalPath: flakyPath,
		Resilience: resilience.Policy{Retries: 8, Backoff: resilience.Backoff{Base: 1}}, // ~ns-scale sleeps
		WrapEvaluator: func(inner search.Evaluator) search.Evaluator {
			return &search.FaultInjector{Inner: inner, Mode: search.FaultFlaky, Rate: 0.3, Seed: 7}
		},
	})
	if err != nil || fault != nil {
		t.Fatalf("flaky run: err=%v fault=%v", err, fault)
	}
	if res.Resilience == nil {
		t.Fatal("supervised run reported no resilience stats")
	}
	if res.Resilience.Quarantined != 0 {
		t.Fatalf("flaky run quarantined %d assignment(s); pick a different injector seed", res.Resilience.Quarantined)
	}
	if res.Resilience.Retried == 0 {
		t.Fatal("no retries happened — the test is vacuous")
	}
	flakyBytes, err := os.ReadFile(flakyPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(flakyBytes) != string(refBytes) {
		t.Errorf("flaky+retries journal differs from fault-free journal (%d vs %d bytes)",
			len(flakyBytes), len(refBytes))
	}
	if fmt.Sprint(res.Outcome.Minimal) != fmt.Sprint(ref.Outcome.Minimal) {
		t.Errorf("minimal %v, want %v", res.Outcome.Minimal, ref.Outcome.Minimal)
	}
	// The retry noise lives in the events sidecar, not the journal.
	if _, err := os.Stat(journal.EventsPath(flakyPath)); err != nil {
		t.Errorf("supervised run left no events sidecar: %v", err)
	}
	if _, err := os.Stat(journal.EventsPath(refPath)); !os.IsNotExist(err) {
		t.Errorf("unsupervised run created an events sidecar")
	}
}

// TestSupervisedNoFaultRunIsFaithful: with supervision on but no faults,
// every evaluation takes exactly one attempt (variant outcomes — funarc
// produces fails and errors — are never retried) and the journal matches
// the unsupervised reference byte for byte.
func TestSupervisedNoFaultRunIsFaithful(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	if _, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: refPath}); err != nil || fault != nil {
		t.Fatalf("reference run: err=%v fault=%v", err, fault)
	}
	refBytes, _ := os.ReadFile(refPath)

	supPath := filepath.Join(dir, "sup.jsonl")
	res, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: supPath, Resilience: resilience.Policy{Retries: 3, Backoff: resilience.Backoff{Base: 1}}})
	if err != nil || fault != nil {
		t.Fatalf("supervised run: err=%v fault=%v", err, fault)
	}
	st := res.Resilience
	if st == nil {
		t.Fatal("no resilience stats")
	}
	if st.Attempts != st.Evaluations || st.Retried != 0 || st.Quarantined != 0 {
		t.Errorf("stats = %+v: fault-free supervised run must spend exactly one attempt per evaluation", st)
	}
	if total, pass, _, _, _ := res.Outcome.Log.Counts(); total == pass {
		t.Error("funarc search produced no failing variants; the no-retry assertion is vacuous")
	}
	supBytes, _ := os.ReadFile(supPath)
	if string(supBytes) != string(refBytes) {
		t.Error("supervision changed the journal of a fault-free run")
	}
}

// poisonedKey picks the canonical key of the first fail-status variant
// of a reference run — an assignment the search certainly proposes.
func poisonedKey(t *testing.T, ref *Result) string {
	t.Helper()
	for _, ev := range ref.Outcome.Log.Evals {
		if ev.Status == search.StatusFail && ev.Assignment != nil {
			return ev.Assignment.Key()
		}
	}
	t.Fatal("reference run has no fail-status variant to poison")
	return ""
}

// TestQuarantineCompletesSearch: a persistently crashing assignment is
// quarantined mid-tune; the search completes, records the poisoned
// variant as infra (excluded from Table II counts), and reports it.
func TestQuarantineCompletesSearch(t *testing.T) {
	dir := t.TempDir()
	ref, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: filepath.Join(dir, "ref.jsonl")})
	if err != nil || fault != nil {
		t.Fatalf("reference run: err=%v fault=%v", err, fault)
	}
	poison := poisonedKey(t, ref)

	path := filepath.Join(dir, "q.jsonl")
	res, err, fault := runJournaled(t, Options{
		Seed: 1, JournalPath: path, Resilience: resilience.Policy{Retries: 2, Backoff: resilience.Backoff{Base: 1}},
		WrapEvaluator: func(inner search.Evaluator) search.Evaluator {
			return &search.FaultInjector{Inner: inner, Mode: search.FaultCrashKey, CrashKey: poison}
		},
	})
	if err != nil || fault != nil {
		t.Fatalf("quarantine run: err=%v fault=%v", err, fault)
	}
	if res.Outcome.Log.InfraCount() != 1 {
		t.Fatalf("InfraCount = %d, want 1", res.Outcome.Log.InfraCount())
	}
	if res.Resilience.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", res.Resilience.Quarantined)
	}
	// The poisoned variant failed in the reference, so its outcome never
	// steered the search: totals differ by exactly the excluded record.
	refTotal, _, _, _, _ := ref.Outcome.Log.Counts()
	total, _, _, _, _ := res.Outcome.Log.Counts()
	if total != refTotal-1 {
		t.Errorf("Counts total = %d, want %d", total, refTotal-1)
	}
	if fmt.Sprint(res.Outcome.Minimal) != fmt.Sprint(ref.Outcome.Minimal) {
		t.Errorf("minimal %v, want %v", res.Outcome.Minimal, ref.Outcome.Minimal)
	}
	if !strings.Contains(res.Render(), "infrastructure failures: 1") {
		t.Error("report does not surface the infra record")
	}
	// The quarantine survived to the events sidecar.
	elog, err := journal.OpenEvents(journal.EventsPath(path), journal.Header{Fingerprint: mustFingerprint(t, Options{Seed: 1})})
	if err != nil {
		t.Fatal(err)
	}
	defer elog.Close()
	if q := elog.QuarantinedKeys(); len(q) != 1 || q[poison] == "" {
		t.Errorf("sidecar quarantine keys = %v, want [%s]", q, poison)
	}
}

func mustFingerprint(t *testing.T, opts Options) string {
	t.Helper()
	tn, err := New(models.Funarc(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return tn.Fingerprint()
}

// recordingWrap wraps an evaluator, recording every assignment key that
// reaches it. Safe for concurrent use.
type recordingWrap struct {
	inner search.Evaluator
	mu    sync.Mutex
	keys  map[string]int
}

func (r *recordingWrap) Evaluate(a transform.Assignment) *search.Evaluation {
	r.mu.Lock()
	if r.keys == nil {
		r.keys = make(map[string]int)
	}
	r.keys[a.Key()]++
	r.mu.Unlock()
	return r.inner.Evaluate(a)
}

func (r *recordingWrap) count(key string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.keys[key]
}

// TestBreakerTripThenResume is the graceful-degradation acceptance test:
// a Breaker=1 tune trips on a poisoned assignment, returns the partial
// result alongside the typed abort error, and persists the quarantine —
// so a -resume run short-circuits the poison, never re-crashes, and
// finishes with a journal byte-identical to a run that quarantined the
// poison inline from the start.
func TestBreakerTripThenResume(t *testing.T) {
	dir := t.TempDir()
	ref, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: filepath.Join(dir, "ref.jsonl")})
	if err != nil || fault != nil {
		t.Fatalf("reference run: err=%v fault=%v", err, fault)
	}
	poison := poisonedKey(t, ref)
	crashInjector := func(inner search.Evaluator) search.Evaluator {
		return &search.FaultInjector{Inner: inner, Mode: search.FaultCrashKey, CrashKey: poison}
	}

	// One-shot reference for the final journal: same poison, quarantined
	// inline (no breaker), search runs to completion.
	onePath := filepath.Join(dir, "oneshot.jsonl")
	if _, err, fault := runJournaled(t, Options{
		Seed: 1, JournalPath: onePath, Resilience: resilience.Policy{Retries: 1, Backoff: resilience.Backoff{Base: 1}},
		WrapEvaluator: crashInjector,
	}); err != nil || fault != nil {
		t.Fatalf("one-shot run: err=%v fault=%v", err, fault)
	}
	oneBytes, _ := os.ReadFile(onePath)

	// Breaker=1 run: trips at the poisoned evaluation.
	path := filepath.Join(dir, "trip.jsonl")
	res, err, fault := runJournaled(t, Options{
		Seed: 1, JournalPath: path, Resilience: resilience.Policy{Breaker: 1, Backoff: resilience.Backoff{Base: 1}},
		Parallelism:   2,
		WrapEvaluator: crashInjector,
	})
	if fault != nil {
		t.Fatalf("breaker trip leaked an injected-fault panic: %v", fault)
	}
	var abort *resilience.AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("err = %v, want *resilience.AbortError", err)
	}
	if abort.Reason != resilience.AbortBreaker {
		t.Fatalf("abort reason = %v, want breaker", abort.Reason)
	}
	if res == nil || res.Aborted == nil {
		t.Fatal("no partial result returned with the abort")
	}
	if res.Outcome == nil || res.Outcome.Converged {
		t.Fatal("partial outcome missing or claims convergence")
	}
	if !strings.Contains(res.Render(), "PARTIAL RESULT") {
		t.Error("partial report does not announce the abort")
	}
	// The trip must not write a Done checkpoint.
	if ck, ok, err := journal.LoadCheckpoint(journal.CheckpointPath(path)); err != nil {
		t.Fatal(err)
	} else if ok && ck.Done {
		t.Error("aborted run wrote a Done checkpoint")
	}

	// Resume with retries instead of the breaker: the persisted quarantine
	// short-circuits the poison — the injector (and tuner) must never
	// see that key again — and the search completes.
	var rec *recordingWrap
	res2, err, fault := runJournaled(t, Options{
		Seed: 1, JournalPath: path, Resume: true, Resilience: resilience.Policy{Retries: 1, Backoff: resilience.Backoff{Base: 1}},
		WrapEvaluator: func(inner search.Evaluator) search.Evaluator {
			rec = &recordingWrap{inner: crashInjector(inner)}
			return rec
		},
	})
	if err != nil || fault != nil {
		t.Fatalf("resume after trip: err=%v fault=%v", err, fault)
	}
	if rec.count(poison) != 0 {
		t.Errorf("poisoned key reached the evaluator %d times on resume; the persisted quarantine must short-circuit it", rec.count(poison))
	}
	if res2.Outcome.Log.InfraCount() != 1 {
		t.Errorf("resumed InfraCount = %d, want 1", res2.Outcome.Log.InfraCount())
	}
	gotBytes, _ := os.ReadFile(path)
	if string(gotBytes) != string(oneBytes) {
		t.Errorf("trip+resume journal differs from inline-quarantine journal (%d vs %d bytes)",
			len(gotBytes), len(oneBytes))
	}
	if fmt.Sprint(res2.Outcome.Minimal) != fmt.Sprint(ref.Outcome.Minimal) {
		t.Errorf("minimal %v, want %v", res2.Outcome.Minimal, ref.Outcome.Minimal)
	}
}

// gatedCrash panics persistently on one key — but only after at least
// one other evaluation has completed, so a concurrent sibling's result
// is always there to salvage when the breaker trips.
type gatedCrash struct {
	inner   search.Evaluator
	crash   string
	sibling chan struct{}
	once    sync.Once
}

func (g *gatedCrash) Evaluate(a transform.Assignment) *search.Evaluation {
	if a.Key() == g.crash {
		<-g.sibling
		panic(fmt.Sprintf("injected: persistent crash on %q", g.crash))
	}
	ev := g.inner.Evaluate(a)
	g.once.Do(func() { close(g.sibling) })
	return ev
}

// TestSalvagedSiblingsSurviveTrip: under parallel evaluation a breaker
// trip salvages completed sibling evaluations to the events sidecar, and
// the resumed run replays them without re-evaluating.
func TestSalvagedSiblingsSurviveTrip(t *testing.T) {
	dir := t.TempDir()
	tn, err := New(models.Funarc(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Poison the all-32 variant: slot 0 of the opening batch. The crash is
	// gated on its all-64 sibling's completion, making "the completed
	// sibling is salvaged" deterministic instead of a scheduler race.
	poison := transform.Uniform(tn.Atoms(), 4).Key()
	crashInjector := func(inner search.Evaluator) search.Evaluator {
		return &search.FaultInjector{Inner: inner, Mode: search.FaultCrashKey, CrashKey: poison}
	}

	path := filepath.Join(dir, "salvage.jsonl")
	res, err, fault := runJournaled(t, Options{
		Seed: 1, JournalPath: path, Resilience: resilience.Policy{Breaker: 1, Backoff: resilience.Backoff{Base: 1}}, Parallelism: 2,
		WrapEvaluator: func(inner search.Evaluator) search.Evaluator {
			return &gatedCrash{inner: inner, crash: poison, sibling: make(chan struct{})}
		},
	})
	if fault != nil {
		t.Fatal("trip leaked a panic")
	}
	var abort *resilience.AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("err = %v, want abort", err)
	}
	if len(res.Outcome.Log.Evals) != 0 {
		t.Fatalf("trip at slot 0 journaled %d evals", len(res.Outcome.Log.Evals))
	}
	elog, err := journal.OpenEvents(journal.EventsPath(path), journal.Header{Fingerprint: mustFingerprint(t, Options{Seed: 1})})
	if err != nil {
		t.Fatal(err)
	}
	salvagedRecs := elog.SalvagedRecords()
	elog.Close()
	if len(salvagedRecs) != 1 {
		t.Fatalf("sidecar holds %d salvage records, want 1 (the all-64 sibling)", len(salvagedRecs))
	}

	var rec *recordingWrap
	res2, err, fault := runJournaled(t, Options{
		Seed: 1, JournalPath: path, Resume: true, Resilience: resilience.Policy{Retries: 1, Backoff: resilience.Backoff{Base: 1}},
		WrapEvaluator: func(inner search.Evaluator) search.Evaluator {
			rec = &recordingWrap{inner: crashInjector(inner)}
			return rec
		},
	})
	if err != nil || fault != nil {
		t.Fatalf("resume: err=%v fault=%v", err, fault)
	}
	if res2.Salvaged != 1 {
		t.Errorf("Resumed run reports %d salvaged evals, want 1", res2.Salvaged)
	}
	if rec.count(salvagedRecs[0].AKey) != 0 {
		t.Error("salvaged evaluation was re-evaluated on resume")
	}
	if rec.count(poison) != 0 {
		t.Error("poisoned key reached the evaluator on resume")
	}
	if !strings.Contains(res2.Render(), "salvaged: 1") {
		t.Error("report does not surface the salvage")
	}
}

// TestResilienceOptionsNotFingerprinted: like parallelism, the
// resilience policy does not shape the evaluation stream, so journals
// interoperate across policies. Every Policy field is set, by
// reflection, so a field added later is covered too.
func TestResilienceOptionsNotFingerprinted(t *testing.T) {
	base := mustFingerprint(t, Options{Seed: 1})
	var pol resilience.Policy
	setNonZero(t, "Policy", reflect.ValueOf(&pol).Elem())
	if mustFingerprint(t, Options{Seed: 1, Resilience: pol}) != base {
		t.Errorf("resilience policy %+v changed the fingerprint; journals would be rejected across retry policies", pol)
	}
}

// setNonZero sets v — each field of a struct, one entry of a map — to a
// non-zero value.
func setNonZero(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64: // time.Duration too
		v.SetInt(7)
	case reflect.String:
		v.SetString("hang")
	case reflect.Map:
		k := reflect.New(v.Type().Key()).Elem()
		e := reflect.New(v.Type().Elem()).Elem()
		setNonZero(t, name, k)
		setNonZero(t, name, e)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			setNonZero(t, name+"."+v.Type().Field(i).Name, v.Field(i))
		}
	default:
		t.Fatalf("%s has kind %s; teach setNonZero to set it", name, v.Kind())
	}
	if v.IsZero() {
		t.Fatalf("%s is still zero", name)
	}
}
