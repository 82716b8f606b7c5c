package resilience

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/search"
	"repro/internal/transform"
)

// scriptedEval returns canned evaluations and panics per-key for the
// first `failures[key]` attempts. Safe for concurrent use.
type scriptedEval struct {
	mu       sync.Mutex
	failures map[string]int // key -> attempts that panic before success
	fault    func(key string, attempt int) any
	result   func(a transform.Assignment) *search.Evaluation
	calls    atomic.Int64
	attempts map[string]int
}

func (s *scriptedEval) Evaluate(a transform.Assignment) *search.Evaluation {
	s.calls.Add(1)
	key := a.Key()
	s.mu.Lock()
	if s.attempts == nil {
		s.attempts = make(map[string]int)
	}
	s.attempts[key]++
	n := s.attempts[key]
	remaining := s.failures[key]
	s.mu.Unlock()
	if n <= remaining {
		if s.fault != nil {
			panic(s.fault(key, n))
		}
		panic("injected: transient worker death")
	}
	if s.result != nil {
		return s.result(a)
	}
	return &search.Evaluation{Assignment: a, Status: search.StatusPass, Lowered: a.Lowered()}
}

func asn(names ...string) transform.Assignment {
	a := make(transform.Assignment)
	for _, n := range names {
		a[n] = 4
	}
	return a
}

// sup builds a supervisor with no real sleeping.
func sup(inner search.Evaluator) *Supervised {
	return &Supervised{Inner: inner, Sleep: func(time.Duration) {}}
}

// TestVariantOutcomesNeverRetried is the Table II guard: evaluations the
// inner evaluator *returns* — fail, timeout, error, including ones
// produced from interpreter run errors — are variant outcomes, passed
// through verbatim with exactly one inner call, never retried.
func TestVariantOutcomesNeverRetried(t *testing.T) {
	outcomes := []*search.Evaluation{
		{Status: search.StatusFail, RelError: 10},
		{Status: search.StatusTimeout, Detail: (&interp.RunError{Kind: interp.FailTimeout, Msg: "cycle budget exceeded"}).Error()},
		{Status: search.StatusError, Detail: (&interp.RunError{Kind: interp.FailNonFinite, Msg: "NaN in x"}).Error()},
	}
	for _, want := range outcomes {
		want := want
		se := &scriptedEval{result: func(a transform.Assignment) *search.Evaluation {
			cp := *want
			cp.Assignment = a
			return &cp
		}}
		s := sup(se)
		s.Retries = 5
		got := s.Evaluate(asn("m.p.v01"))
		if got.Status != want.Status || got.RelError != want.RelError || got.Detail != want.Detail {
			t.Errorf("status %v: evaluation altered by supervisor: got %+v", want.Status, got)
		}
		if se.calls.Load() != 1 {
			t.Errorf("status %v: inner evaluator called %d times, want exactly 1 (variant outcomes must not be retried)",
				want.Status, se.calls.Load())
		}
	}
}

// TestTransientFaultRetriedAndRecovered: panics within the retry budget
// are absorbed and the eventual success returned.
func TestTransientFaultRetriedAndRecovered(t *testing.T) {
	key := asn("m.p.v01").Key()
	se := &scriptedEval{failures: map[string]int{key: 2}}
	s := sup(se)
	s.Retries = 3
	var events []Event
	s.OnEvent = func(e Event) { events = append(events, e) }

	ev := s.Evaluate(asn("m.p.v01"))
	if ev.Status != search.StatusPass {
		t.Fatalf("recovered evaluation status = %v, want pass", ev.Status)
	}
	if se.calls.Load() != 3 {
		t.Errorf("inner called %d times, want 3 (2 faults + success)", se.calls.Load())
	}
	st := s.Stats()
	if st.Retried != 2 || st.Recovered != 1 || st.Quarantined != 0 {
		t.Errorf("stats = %+v, want 2 retried / 1 recovered / 0 quarantined", st)
	}
	if len(events) != 2 || events[0].Type != EventRetry || events[1].Type != EventRetry {
		t.Fatalf("events = %+v, want two retry events", events)
	}
	if events[0].Attempt != 1 || events[1].Attempt != 2 {
		t.Errorf("retry attempts = %d, %d, want 1, 2", events[0].Attempt, events[1].Attempt)
	}
}

// TestRetriesExhaustedQuarantines: a persistently panicking assignment
// exhausts its budget, yields StatusInfra, and short-circuits thereafter.
func TestRetriesExhaustedQuarantines(t *testing.T) {
	key := asn("m.p.v01").Key()
	se := &scriptedEval{failures: map[string]int{key: 1 << 20}}
	s := sup(se)
	s.Retries = 2
	var events []Event
	s.OnEvent = func(e Event) { events = append(events, e) }

	ev := s.Evaluate(asn("m.p.v01"))
	if ev.Status != search.StatusInfra {
		t.Fatalf("status = %v, want infra", ev.Status)
	}
	if !strings.HasPrefix(ev.Detail, "quarantined: ") {
		t.Errorf("detail = %q, want quarantined prefix", ev.Detail)
	}
	if got := se.calls.Load(); got != 3 {
		t.Errorf("inner called %d times, want 3 (Retries=2 allows 3 attempts)", got)
	}
	if len(events) != 3 || events[2].Type != EventQuarantine {
		t.Fatalf("events = %+v, want retry, retry, quarantine", events)
	}

	// Second evaluation of the same assignment: no inner calls at all.
	ev2 := s.Evaluate(asn("m.p.v01"))
	if ev2.Status != search.StatusInfra || ev2.Detail != ev.Detail {
		t.Errorf("short-circuited evaluation = %+v, want identical infra record", ev2)
	}
	if se.calls.Load() != 3 {
		t.Errorf("quarantined key reached the inner evaluator again (%d calls)", se.calls.Load())
	}
	if q := s.Stats().Quarantined; q != 1 {
		t.Errorf("Stats().Quarantined = %d, want 1", q)
	}
}

// TestPersistentFaultSkipsRetries: a fault whose Transient() reports
// false is quarantined on the first attempt — retrying cannot cure it.
func TestPersistentFaultSkipsRetries(t *testing.T) {
	a := asn("m.p.v01")
	se := &scriptedEval{
		failures: map[string]int{a.Key(): 1 << 20},
		fault: func(key string, attempt int) any {
			return &search.InjectedFault{Key: key, Persistent: true}
		},
	}
	s := sup(se)
	s.Retries = 5
	ev := s.Evaluate(a)
	if ev.Status != search.StatusInfra {
		t.Fatalf("status = %v, want infra", ev.Status)
	}
	if se.calls.Load() != 1 {
		t.Errorf("persistent fault retried: %d inner calls, want 1", se.calls.Load())
	}
	if st := s.Stats(); st.Retried != 0 || st.Quarantined != 1 {
		t.Errorf("stats = %+v, want 0 retried / 1 quarantined", st)
	}
}

// TestBreakerTrips: consecutive quarantines reach the threshold and the
// supervisor fails fast with an AbortError implementing search.Abort.
func TestBreakerTrips(t *testing.T) {
	se := &scriptedEval{
		failures: map[string]int{asn("m.p.v01").Key(): 1 << 20, asn("m.p.v02").Key(): 1 << 20},
	}
	s := sup(se)
	s.Breaker = 2
	var events []Event
	s.OnEvent = func(e Event) { events = append(events, e) }

	if ev := s.Evaluate(asn("m.p.v01")); ev.Status != search.StatusInfra {
		t.Fatalf("first quarantine status = %v", ev.Status)
	}
	abort := func() (ae *AbortError) {
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if ae, ok = r.(*AbortError); !ok {
					panic(r)
				}
			}
		}()
		s.Evaluate(asn("m.p.v02"))
		return nil
	}()
	if abort == nil {
		t.Fatal("breaker did not trip on the second consecutive quarantine")
	}
	if abort.Reason != AbortBreaker || abort.Consecutive != 2 || abort.Quarantined != 2 {
		t.Errorf("abort = %+v, want breaker reason, 2 consecutive, 2 quarantined", abort)
	}
	var searchAbort search.Abort = abort
	if searchAbort.SearchAbort() == "" {
		t.Error("AbortError must describe itself via search.Abort")
	}
	var err error = abort
	if !errors.As(err, &abort) {
		t.Error("AbortError must be usable as an error")
	}
	if last := events[len(events)-1]; last.Type != EventBreakerTrip {
		t.Errorf("last event = %+v, want breaker_trip", last)
	}
	if !s.Stats().BreakerTripped {
		t.Error("stats do not record the trip")
	}

	// Once open, the breaker rejects further evaluations immediately.
	calls := se.calls.Load()
	func() {
		defer func() { recover() }()
		s.Evaluate(asn("m.p.v03"))
		t.Error("evaluation after trip did not panic")
	}()
	if se.calls.Load() != calls {
		t.Error("open breaker still reached the inner evaluator")
	}
}

// TestSuccessResetsConsecutive: an intervening success resets the
// breaker counter, so scattered hard failures do not trip it.
func TestSuccessResetsConsecutive(t *testing.T) {
	se := &scriptedEval{
		failures: map[string]int{asn("m.p.v01").Key(): 1 << 20, asn("m.p.v03").Key(): 1 << 20},
	}
	s := sup(se)
	s.Breaker = 2
	if ev := s.Evaluate(asn("m.p.v01")); ev.Status != search.StatusInfra {
		t.Fatal("first quarantine missing")
	}
	if ev := s.Evaluate(asn("m.p.v02")); ev.Status != search.StatusPass {
		t.Fatal("healthy evaluation failed")
	}
	// Without the reset this would be the second consecutive quarantine.
	ev := s.Evaluate(asn("m.p.v03"))
	if ev.Status != search.StatusInfra {
		t.Fatalf("third evaluation = %v, want quarantined infra (not a trip)", ev.Status)
	}
	if s.Stats().BreakerTripped {
		t.Error("breaker tripped despite intervening success")
	}
}

// TestMaxQuarantinedAborts: exhausting the quarantine budget aborts with
// the quarantine reason even though no consecutive run tripped the
// breaker.
func TestMaxQuarantinedAborts(t *testing.T) {
	se := &scriptedEval{
		failures: map[string]int{asn("m.p.v01").Key(): 1 << 20, asn("m.p.v03").Key(): 1 << 20},
	}
	s := sup(se)
	s.MaxQuarantined = 1
	if ev := s.Evaluate(asn("m.p.v01")); ev.Status != search.StatusInfra {
		t.Fatal("first quarantine missing")
	}
	if ev := s.Evaluate(asn("m.p.v02")); ev.Status != search.StatusPass {
		t.Fatal("healthy evaluation failed")
	}
	abort := func() (ae *AbortError) {
		defer func() {
			if r := recover(); r != nil {
				ae = r.(*AbortError)
			}
		}()
		s.Evaluate(asn("m.p.v03"))
		return nil
	}()
	if abort == nil || abort.Reason != AbortQuarantine {
		t.Fatalf("abort = %+v, want quarantine-budget reason", abort)
	}
}

// TestQuarantinePreload: a key preloaded from a resumed run's event
// journal never reaches the inner evaluator.
func TestQuarantinePreload(t *testing.T) {
	a := asn("m.p.v01")
	se := &scriptedEval{failures: map[string]int{a.Key(): 1 << 20}}
	s := sup(se)
	s.Quarantine(a.Key(), "injected: prior-run fault")
	ev := s.Evaluate(a)
	if ev.Status != search.StatusInfra || ev.Detail != "quarantined: injected: prior-run fault" {
		t.Fatalf("preloaded quarantine evaluation = %+v", ev)
	}
	if se.calls.Load() != 0 {
		t.Error("preloaded quarantine reached the inner evaluator")
	}
	if s.Stats().Quarantined != 1 {
		t.Errorf("stats.Quarantined = %d, want 1", s.Stats().Quarantined)
	}
}

// TestDefaultClassify pins the classifier contract.
func TestDefaultClassify(t *testing.T) {
	if DefaultClassify("any panic") != ClassTransient {
		t.Error("plain panic values must default to transient")
	}
	if DefaultClassify(&search.InjectedFault{Key: "k", Persistent: true}) != ClassPersistent {
		t.Error("Transient()==false faults must classify persistent")
	}
	if DefaultClassify(&search.InjectedFault{Key: "k"}) != ClassTransient {
		t.Error("Transient()==true faults must classify transient")
	}
}

// TestBackoffDeterministicAndBounded: delays are a pure function of
// (seed, key, attempt), bounded by the capped exponential ceiling.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Cap: time.Second, Seed: 42}
	for attempt := 0; attempt < 10; attempt++ {
		d1 := b.Delay("m.p.v01", attempt)
		d2 := b.Delay("m.p.v01", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: Delay not deterministic (%v vs %v)", attempt, d1, d2)
		}
		ceil := 100 * time.Millisecond << uint(attempt)
		if ceil > time.Second || ceil < 0 {
			ceil = time.Second
		}
		if d1 < 0 || d1 > ceil {
			t.Fatalf("attempt %d: delay %v outside [0, %v]", attempt, d1, ceil)
		}
	}
	// Different seeds and keys decorrelate.
	b2 := Backoff{Base: 100 * time.Millisecond, Cap: time.Second, Seed: 43}
	same := 0
	for attempt := 0; attempt < 8; attempt++ {
		if b.Delay("m.p.v01", attempt) == b2.Delay("m.p.v01", attempt) {
			same++
		}
		if b.Delay("m.p.v01", attempt) == b.Delay("m.p.v02", attempt) {
			same++
		}
	}
	if same == 16 {
		t.Error("jitter ignores seed and key")
	}
}

// TestSupervisedConcurrency exercises the supervisor from many
// goroutines (the batched search does this) — run under -race.
func TestSupervisedConcurrency(t *testing.T) {
	poison := asn("m.p.v00").Key()
	se := &scriptedEval{failures: map[string]int{poison: 1 << 20}}
	s := sup(se)
	s.Retries = 1
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				name := "m.p.v0" + string(rune('0'+i%4))
				s.Evaluate(asn(name))
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Quarantined != 1 {
		t.Errorf("quarantined %d keys, want 1", st.Quarantined)
	}
	if st.Evaluations != 160 {
		t.Errorf("evaluations = %d, want 160", st.Evaluations)
	}
}
