package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/models"
	"repro/internal/resilience"
	"repro/internal/search"
	"repro/internal/transform"
)

// cancelAfter cancels a context once n evaluations have completed — an
// in-process stand-in for a SIGTERM or an expired wall-clock budget
// landing mid-batch.
type cancelAfter struct {
	inner  search.Evaluator
	cancel context.CancelFunc
	after  int64
	n      atomic.Int64
}

func (c *cancelAfter) Evaluate(a transform.Assignment) *search.Evaluation {
	ev := c.inner.Evaluate(a)
	if c.n.Add(1) == c.after {
		c.cancel()
	}
	return ev
}

// TestCancelResumeByteIdentical is the acceptance test for deadline-
// aware tuning: a tune cancelled after ANY number of evaluations leaves
// a valid journal that -resume completes byte-identically to an
// uninterrupted run — at serial and at batch parallelism, where the
// cancellation lands nondeterministically relative to in-flight
// siblings.
func TestCancelResumeByteIdentical(t *testing.T) {
	for _, par := range []int{1, 8} {
		par := par
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			dir := t.TempDir()
			refPath := filepath.Join(dir, "ref.jsonl")
			res, err, fault := runJournaled(t, Options{Seed: 1, Parallelism: par, JournalPath: refPath})
			if err != nil || fault != nil {
				t.Fatalf("reference run: err=%v fault=%v", err, fault)
			}
			refBytes, err := os.ReadFile(refPath)
			if err != nil {
				t.Fatal(err)
			}
			total := len(res.Outcome.Log.Evals)
			refMin := fmt.Sprint(res.Outcome.Minimal)

			tried := map[int]bool{}
			for _, stop := range []int{1, 2, total / 2, total - 1} {
				if stop < 1 || tried[stop] {
					continue
				}
				tried[stop] = true
				path := filepath.Join(dir, fmt.Sprintf("stop%d.jsonl", stop))
				ctx, cancel := context.WithCancel(context.Background())
				tn, err := New(models.Funarc(), Options{
					Seed: 1, Parallelism: par, JournalPath: path,
					WrapEvaluator: func(inner search.Evaluator) search.Evaluator {
						return &cancelAfter{inner: inner, cancel: cancel, after: int64(stop)}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				resC, errC := tn.Run(ctx)
				cancel()
				if errC == nil {
					// Everything still needed was already in flight when the
					// stop landed (possible at high parallelism near the end):
					// the run finished, and its journal must be complete.
					if par == 1 {
						t.Fatalf("stop=%d: serial run outran its own cancellation", stop)
					}
					if got, _ := os.ReadFile(path); string(got) != string(refBytes) {
						t.Errorf("stop=%d: completed journal differs from reference", stop)
					}
					continue
				}
				var ce *search.Cancelled
				if !errors.As(errC, &ce) {
					t.Fatalf("stop=%d: Run error %v (%T), want *search.Cancelled", stop, errC, errC)
				}
				if resC == nil || resC.Cancelled == nil {
					t.Fatalf("stop=%d: cancelled run carries no partial result", stop)
				}
				if resC.Outcome.Converged {
					t.Errorf("stop=%d: cancelled run claims convergence", stop)
				}
				// The stop is recorded in the events sidecar, never the
				// journal proper.
				if _, evs, err := journal.InspectEvents(journal.EventsPath(path)); err != nil {
					t.Errorf("stop=%d: events sidecar unreadable: %v", stop, err)
				} else {
					found := false
					for _, e := range evs {
						if e.Type == journal.EventCancelled {
							found = true
						}
					}
					if !found {
						t.Errorf("stop=%d: no cancelled record in the events sidecar", stop)
					}
				}
				// No Done checkpoint: the search is not finished.
				if ck, ok, err := journal.LoadCheckpoint(journal.CheckpointPath(path)); err == nil && ok && ck.Done {
					t.Errorf("stop=%d: cancelled run wrote a Done checkpoint", stop)
				}

				res2, err2, fault := runJournaled(t, Options{Seed: 1, Parallelism: par, JournalPath: path, Resume: true})
				if err2 != nil || fault != nil {
					t.Fatalf("stop=%d: resume failed: err=%v fault=%v", stop, err2, fault)
				}
				gotBytes, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if string(gotBytes) != string(refBytes) {
					t.Errorf("stop=%d: resumed journal differs from uninterrupted journal (%d vs %d bytes)",
						stop, len(gotBytes), len(refBytes))
				}
				if got := fmt.Sprint(res2.Outcome.Minimal); got != refMin {
					t.Errorf("stop=%d: minimal %s, want %s", stop, got, refMin)
				}
				if len(res2.Outcome.Log.Evals) != total {
					t.Errorf("stop=%d: resumed log holds %d evals, want %d", stop, len(res2.Outcome.Log.Evals), total)
				}
			}
		})
	}
}

// TestPreCancelledContext: a context that is already done stops the
// run before any evaluation — including with a DrainGrace hard-cancel
// layer armed — and the empty journal resumes to a complete run.
func TestPreCancelledContext(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tn, err := New(models.Funarc(), Options{Seed: 1, JournalPath: path, Resilience: resilience.Policy{DrainGrace: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.Run(ctx)
	var ce *search.Cancelled
	if !errors.As(err, &ce) {
		t.Fatalf("Run error %v (%T), want *search.Cancelled", err, err)
	}
	if n := len(res.Outcome.Log.Evals); n != 0 {
		t.Errorf("pre-cancelled run evaluated %d variants, want 0", n)
	}
	res2, err2, fault := runJournaled(t, Options{Seed: 1, JournalPath: path, Resume: true})
	if err2 != nil || fault != nil {
		t.Fatalf("resume: err=%v fault=%v", err2, fault)
	}
	if !res2.Outcome.Converged {
		t.Error("resumed run did not converge")
	}
	ck, ok, err := journal.LoadCheckpoint(journal.CheckpointPath(path))
	if err != nil || !ok || !ck.Done {
		t.Errorf("final checkpoint = %+v, %v, %v; want Done", ck, ok, err)
	}
}

// hangFirst wedges the very first inner evaluation until released —
// a worker that neither returns nor dies.
type hangFirst struct {
	inner   search.Evaluator
	release chan struct{}
	first   atomic.Bool
}

func (h *hangFirst) Evaluate(a transform.Assignment) *search.Evaluation {
	if h.first.CompareAndSwap(false, true) {
		<-h.release
	}
	return h.inner.Evaluate(a)
}

// TestWatchdogUnblocksBatch: a hung evaluation no longer blocks its
// batch — the watchdog abandons the wedged attempt, the retry
// succeeds, the search completes, the hang is recorded only in the
// events sidecar, and the journal is byte-identical to an undisturbed
// run's.
func TestWatchdogUnblocksBatch(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	if _, err, fault := runJournaled(t, Options{Seed: 1, Parallelism: 8, JournalPath: refPath}); err != nil || fault != nil {
		t.Fatalf("reference run: err=%v fault=%v", err, fault)
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	path := filepath.Join(dir, "hung.jsonl")
	// The watchdog is generous so only the deliberately wedged attempt
	// trips it: a spurious timeout on a merely slow evaluation would
	// retry it (harmless — evaluations are pure), but three in a row
	// would quarantine it and divert the search.
	res, err, fault := runJournaled(t, Options{
		Seed: 1, Parallelism: 8, JournalPath: path,
		Resilience: resilience.Policy{Retries: 2, Watchdog: 2 * time.Second, Backoff: resilience.Backoff{Base: time.Nanosecond}},
		WrapEvaluator: func(inner search.Evaluator) search.Evaluator {
			return &hangFirst{inner: inner, release: release}
		},
	})
	if err != nil || fault != nil {
		t.Fatalf("watchdogged run: err=%v fault=%v", err, fault)
	}
	if res.Resilience == nil || res.Resilience.Hung < 1 {
		t.Fatalf("resilience stats = %+v, want at least one abandoned attempt", res.Resilience)
	}
	if res.Resilience.Quarantined != 0 {
		t.Fatalf("resilience stats = %+v, want no quarantines", res.Resilience)
	}
	gotBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(refBytes) {
		t.Errorf("journal with a ridden-out hang differs from the undisturbed journal (%d vs %d bytes)",
			len(gotBytes), len(refBytes))
	}
	_, evs, err := journal.InspectEvents(journal.EventsPath(path))
	if err != nil {
		t.Fatal(err)
	}
	sawWatchdog := false
	for _, e := range evs {
		if e.Type == string(journal.EventWatchdog) {
			sawWatchdog = true
			if e.Kind != "hang" {
				t.Errorf("watchdog event kind = %q, want hang", e.Kind)
			}
		}
	}
	if !sawWatchdog {
		t.Error("no watchdog record in the events sidecar")
	}
}

// poisonKeys panics persistently on a fixed set of assignment keys.
// Poisoning by key (not arrival index) keeps the injected quarantines
// identical across runs regardless of worker scheduling — batch workers
// may acquire their slots out of spawn order.
type poisonKeys struct {
	inner search.Evaluator
	keys  map[string]bool
}

func (p *poisonKeys) Evaluate(a transform.Assignment) *search.Evaluation {
	if p.keys[a.Key()] {
		panic(fmt.Sprintf("injected: node lost evaluating %s", a.Key()))
	}
	return p.inner.Evaluate(a)
}

// TestHalfOpenBreakerJournalEquivalent: a search that rides out an open
// half-open breaker (probe succeeds, search resumes) produces the same
// journal as one whose breaker never engaged — the breaker changes
// pacing, never results.
func TestHalfOpenBreakerJournalEquivalent(t *testing.T) {
	dir := t.TempDir()
	// Poison two fail-status variants from a clean reference run: their
	// outcomes never steered the search, so both poisoned runs propose
	// the same evaluation stream and quarantine the same two keys.
	pick, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: filepath.Join(dir, "pick.jsonl")})
	if err != nil || fault != nil {
		t.Fatalf("reference run: err=%v fault=%v", err, fault)
	}
	poison := map[string]bool{}
	for _, ev := range pick.Outcome.Log.Evals {
		if len(poison) == 2 {
			break
		}
		if ev.Status == search.StatusFail && ev.Assignment != nil {
			poison[ev.Assignment.Key()] = true
		}
	}
	if len(poison) != 2 {
		t.Fatalf("reference run offers %d distinct fail-status variants to poison, want 2", len(poison))
	}
	wrap := func(inner search.Evaluator) search.Evaluator {
		return &poisonKeys{inner: inner, keys: poison}
	}

	refPath := filepath.Join(dir, "nobreaker.jsonl")
	refRes, err, fault := runJournaled(t, Options{
		Seed: 1, Parallelism: 1, JournalPath: refPath,
		Resilience:    resilience.Policy{MaxQuarantined: 10, Backoff: resilience.Backoff{Base: time.Nanosecond}},
		WrapEvaluator: wrap,
	})
	if err != nil || fault != nil {
		t.Fatalf("breakerless run: err=%v fault=%v", err, fault)
	}
	if refRes.Resilience.Quarantined != 2 {
		t.Fatalf("breakerless run quarantined %d, want 2", refRes.Resilience.Quarantined)
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "halfopen.jsonl")
	res, err, fault := runJournaled(t, Options{
		Seed: 1, Parallelism: 1, JournalPath: path,
		Resilience:    resilience.Policy{Breaker: 1, HalfOpen: true, Backoff: resilience.Backoff{Base: time.Nanosecond}},
		WrapEvaluator: wrap,
	})
	if err != nil || fault != nil {
		t.Fatalf("half-open run: err=%v fault=%v", err, fault)
	}
	st := res.Resilience
	if st.BreakerTripped {
		t.Error("a ridden-out breaker must not count as tripped")
	}
	if st.Quarantined != 2 {
		t.Errorf("half-open run quarantined %d, want 2", st.Quarantined)
	}
	// Scheduling may make the second poisoned key the probe itself (a
	// failed probe that keeps the breaker open for the next waiter), so
	// pin the invariant rather than an exact trace: every probe either
	// closed the breaker or counted as failed, and the breaker closed
	// at least once.
	if st.BreakerClosed < 1 || st.Probes != st.BreakerClosed+st.FailedProbes {
		t.Errorf("stats = %+v: every probe must close the breaker or count as failed", st)
	}
	gotBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(refBytes) {
		t.Errorf("half-open journal differs from breakerless journal (%d vs %d bytes)",
			len(gotBytes), len(refBytes))
	}
	_, evs, err := journal.InspectEvents(journal.EventsPath(path))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, e := range evs {
		counts[e.Type]++
	}
	open := counts[string(journal.EventBreakerOpen)]
	probe := counts[string(journal.EventBreakerProbe)]
	closed := counts[string(journal.EventBreakerClose)]
	if open < 1 || open != closed || int64(probe) != int64(closed)+st.FailedProbes {
		t.Errorf("sidecar event counts = %v (stats %+v), want matched open/probe/close cycles", counts, st)
	}
}
