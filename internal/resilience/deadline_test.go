package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/transform"
)

func TestFaultKindOf(t *testing.T) {
	cases := []struct {
		fault any
		want  string
	}{
		{&HangFault{Key: "k", After: time.Second}, KindHang},
		{namedKindFault{"node-flap"}, "node-flap"},
		{errors.New("mmap: out of memory while allocating arena"), KindOOM},
		{"fortran runtime: cannot allocate memory", KindOOM},
		{"OOM-killer selected worker 3", KindOOM},
		{errors.New("slurmstepd: job killed by SIGTERM"), KindSchedulerKill},
		{"node preempted by higher-priority allocation", KindSchedulerKill},
		{"PBS: walltime exceeded", KindSchedulerKill},
		{"segmentation fault in cast-flow pass", KindGeneric},
		{42, KindGeneric},
	}
	for _, c := range cases {
		if got := FaultKindOf(c.fault); got != c.want {
			t.Errorf("FaultKindOf(%v) = %q, want %q", c.fault, got, c.want)
		}
	}
}

type namedKindFault struct{ kind string }

func (f namedKindFault) Error() string     { return "custom fault" }
func (f namedKindFault) FaultKind() string { return f.kind }

func TestParseRetryBudgets(t *testing.T) {
	if m, err := ParseRetryBudgets(""); m != nil || err != nil {
		t.Errorf("empty spec = %v, %v; want nil, nil", m, err)
	}
	m, err := ParseRetryBudgets(" oom=1, scheduler-kill=4 ,hang=2")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{KindOOM: 1, KindSchedulerKill: 4, KindHang: 2}
	if len(m) != len(want) {
		t.Fatalf("parsed %v, want %v", m, want)
	}
	for k, n := range want {
		if m[k] != n {
			t.Errorf("budget[%s] = %d, want %d", k, m[k], n)
		}
	}
	for _, bad := range []string{"hang", "hang=-1", "hang=x", "=3"} {
		if _, err := ParseRetryBudgets(bad); err == nil {
			t.Errorf("ParseRetryBudgets(%q) accepted", bad)
		}
	}
}

func TestDefaultRetryBudgets(t *testing.T) {
	if m := DefaultRetryBudgets(0); m != nil {
		t.Errorf("base 0 = %v, want nil", m)
	}
	m := DefaultRetryBudgets(3)
	if m[KindSchedulerKill] != 6 || m[KindOOM] != 1 || m[KindHang] != 3 {
		t.Errorf("base 3 = %v", m)
	}
	if DefaultRetryBudgets(1)[KindOOM] != 1 {
		t.Error("OOM budget must stay at least 1")
	}
}

// TestRetryBudgetByKind: a scheduler kill draws from its own, larger
// budget even when the base Retries would have given up, and a
// zero per-kind budget quarantines on the first fault of that kind
// regardless of Retries.
func TestRetryBudgetByKind(t *testing.T) {
	key := asn("m.p.v01").Key()
	se := &scriptedEval{
		failures: map[string]int{key: 3},
		fault: func(string, int) any {
			return errors.New("worker killed by scheduler (SIGTERM)")
		},
	}
	s := sup(se)
	s.Retries = 1
	s.RetriesByKind = map[string]int{KindSchedulerKill: 3}
	var events []Event
	s.OnEvent = func(e Event) { events = append(events, e) }
	if ev := s.Evaluate(asn("m.p.v01")); ev.Status != search.StatusPass {
		t.Fatalf("status = %v, want pass (scheduler-kill budget covers 3 faults)", ev.Status)
	}
	if se.calls.Load() != 4 {
		t.Errorf("inner called %d times, want 4", se.calls.Load())
	}
	for _, e := range events {
		if e.Type == EventRetry && e.Kind != KindSchedulerKill {
			t.Errorf("retry event kind = %q, want %q", e.Kind, KindSchedulerKill)
		}
	}

	se2 := &scriptedEval{
		failures: map[string]int{key: 1},
		fault:    func(string, int) any { return errors.New("worker out of memory") },
	}
	s2 := sup(se2)
	s2.Retries = 5
	s2.RetriesByKind = map[string]int{KindOOM: 0}
	if ev := s2.Evaluate(asn("m.p.v01")); ev.Status != search.StatusInfra {
		t.Fatalf("status = %v, want infra (zero OOM budget quarantines immediately)", ev.Status)
	}
	if se2.calls.Load() != 1 {
		t.Errorf("inner called %d times, want 1", se2.calls.Load())
	}
}

// hangEval blocks (instead of panicking) for the first hangs[key]
// attempts — a worker that wedges rather than dies. Blocked goroutines
// stay parked on release until the test closes it.
type hangEval struct {
	mu       sync.Mutex
	hangs    map[string]int
	attempts map[string]int
	release  chan struct{}
	calls    atomic.Int64
}

func (h *hangEval) Evaluate(a transform.Assignment) *search.Evaluation {
	h.calls.Add(1)
	key := a.Key()
	h.mu.Lock()
	if h.attempts == nil {
		h.attempts = make(map[string]int)
	}
	h.attempts[key]++
	hang := h.attempts[key] <= h.hangs[key]
	h.mu.Unlock()
	if hang {
		<-h.release
	}
	return &search.Evaluation{Assignment: a, Status: search.StatusPass, Lowered: a.Lowered()}
}

// TestWatchdogAbandonsHungAttempt: a wedged attempt is abandoned after
// the watchdog limit, classified as a hang, retried, and the retry's
// success returned — the hang costs one attempt, not the search.
func TestWatchdogAbandonsHungAttempt(t *testing.T) {
	key := asn("m.p.v01").Key()
	he := &hangEval{hangs: map[string]int{key: 1}, release: make(chan struct{})}
	t.Cleanup(func() { close(he.release) })
	s := sup(he)
	s.Watchdog = 10 * time.Millisecond
	s.Retries = 1
	var events []Event
	s.OnEvent = func(e Event) { events = append(events, e) }

	if ev := s.Evaluate(asn("m.p.v01")); ev.Status != search.StatusPass {
		t.Fatalf("status = %v, want pass", ev.Status)
	}
	st := s.Stats()
	if st.Hung != 1 || st.Retried != 1 || st.Recovered != 1 {
		t.Errorf("stats = %+v, want Hung=1 Retried=1 Recovered=1", st)
	}
	var sawWatchdog, sawRetry bool
	for _, e := range events {
		switch e.Type {
		case EventWatchdog:
			sawWatchdog = true
			if e.Kind != KindHang || !strings.Contains(e.Fault, "hung") {
				t.Errorf("watchdog event = %+v", e)
			}
		case EventRetry:
			sawRetry = true
			if e.Kind != KindHang {
				t.Errorf("retry kind = %q, want hang", e.Kind)
			}
		}
	}
	if !sawWatchdog || !sawRetry {
		t.Errorf("events %v: want a watchdog and a retry event", events)
	}
}

// TestWatchdogPersistentHangQuarantines: an attempt that hangs on every
// retry exhausts the hang budget and is quarantined like any other
// persistent infrastructure fault.
func TestWatchdogPersistentHangQuarantines(t *testing.T) {
	key := asn("m.p.v01").Key()
	he := &hangEval{hangs: map[string]int{key: 100}, release: make(chan struct{})}
	t.Cleanup(func() { close(he.release) })
	s := sup(he)
	s.Watchdog = 10 * time.Millisecond
	s.RetriesByKind = map[string]int{KindHang: 1}

	ev := s.Evaluate(asn("m.p.v01"))
	if ev.Status != search.StatusInfra || !strings.Contains(ev.Detail, "hung") {
		t.Fatalf("evaluation = %+v, want quarantined hang", ev)
	}
	st := s.Stats()
	if st.Hung != 2 || st.Quarantined != 1 {
		t.Errorf("stats = %+v, want Hung=2 Quarantined=1", st)
	}
	// The quarantine is durable: re-evaluating must not touch the
	// evaluator again.
	before := he.calls.Load()
	if ev := s.Evaluate(asn("m.p.v01")); ev.Status != search.StatusInfra {
		t.Errorf("re-evaluation status = %v, want infra", ev.Status)
	}
	if he.calls.Load() != before {
		t.Error("quarantined assignment touched the evaluator again")
	}
}

// TestHalfOpenProbeClosesBreaker: with HalfOpen set, tripping opens the
// breaker instead of aborting; the next evaluation probes, succeeds,
// and closes it, and the search carries on.
func TestHalfOpenProbeClosesBreaker(t *testing.T) {
	se := &scriptedEval{failures: map[string]int{
		asn("m.p.v01").Key(): 1000,
		asn("m.p.v02").Key(): 1000,
	}}
	s := sup(se)
	s.Breaker = 2
	s.HalfOpen = true
	var events []Event
	s.OnEvent = func(e Event) { events = append(events, e) }

	if ev := s.Evaluate(asn("m.p.v01")); ev.Status != search.StatusInfra {
		t.Fatalf("first hard failure: status = %v, want infra", ev.Status)
	}
	if ev := s.Evaluate(asn("m.p.v02")); ev.Status != search.StatusInfra {
		t.Fatalf("second hard failure: status = %v, want infra", ev.Status)
	}
	if ev := s.Evaluate(asn("m.p.v03")); ev.Status != search.StatusPass {
		t.Fatalf("probe: status = %v, want pass", ev.Status)
	}
	if ev := s.Evaluate(asn("m.p.v04")); ev.Status != search.StatusPass {
		t.Fatalf("post-close: status = %v, want pass", ev.Status)
	}

	st := s.Stats()
	if st.Probes != 1 || st.FailedProbes != 0 || st.BreakerClosed != 1 {
		t.Errorf("stats = %+v, want Probes=1 FailedProbes=0 BreakerClosed=1", st)
	}
	if st.BreakerTripped {
		t.Error("a ridden-out open breaker must not count as tripped")
	}
	var types []EventType
	for _, e := range events {
		types = append(types, e.Type)
	}
	wantOrder := []EventType{EventQuarantine, EventQuarantine, EventBreakerOpen, EventBreakerProbe, EventBreakerClose}
	if fmt.Sprint(types) != fmt.Sprint(wantOrder) {
		t.Errorf("event order %v, want %v", types, wantOrder)
	}
}

// TestHalfOpenFailedProbesRetrip: MaxProbes consecutive failed probes
// exhaust the half-open breaker's patience and the search aborts with
// the usual breaker AbortError.
func TestHalfOpenFailedProbesRetrip(t *testing.T) {
	se := &scriptedEval{
		failures: map[string]int{},
		fault:    func(string, int) any { return errors.New("injected: rack power loss") },
	}
	for i := 1; i <= 4; i++ {
		se.failures[asn(fmt.Sprintf("m.p.v%02d", i)).Key()] = 1000
	}
	s := sup(se)
	s.Breaker = 1
	s.HalfOpen = true
	s.MaxProbes = 2

	if ev := s.Evaluate(asn("m.p.v01")); ev.Status != search.StatusInfra {
		t.Fatalf("opening failure: status = %v, want infra", ev.Status)
	}
	if ev := s.Evaluate(asn("m.p.v02")); ev.Status != search.StatusInfra {
		t.Fatalf("first failed probe: status = %v, want infra (breaker stays open)", ev.Status)
	}
	abort := mustAbort(t, func() { s.Evaluate(asn("m.p.v03")) })
	if abort.Reason != AbortBreaker {
		t.Errorf("abort reason = %v, want breaker", abort.Reason)
	}
	// Once terminally aborted, every further evaluation fails fast.
	abort = mustAbort(t, func() { s.Evaluate(asn("m.p.v04")) })
	if abort.LastFault != "breaker already open" {
		t.Errorf("post-abort LastFault = %q", abort.LastFault)
	}

	st := s.Stats()
	if st.Probes != 2 || st.FailedProbes != 2 || !st.BreakerTripped {
		t.Errorf("stats = %+v, want Probes=2 FailedProbes=2 tripped", st)
	}
}

func mustAbort(t *testing.T, fn func()) (abort *AbortError) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected an AbortError panic")
		}
		ae, ok := r.(*AbortError)
		if !ok {
			t.Fatalf("panic value %T (%v), want *AbortError", r, r)
		}
		abort = ae
	}()
	fn()
	return nil
}

// TestHalfOpenConcurrentWaiters: while one probe is in flight every
// other evaluation blocks; a successful probe releases them all and
// exactly one probe is ever spent. Run with -race.
func TestHalfOpenConcurrentWaiters(t *testing.T) {
	se := &scriptedEval{failures: map[string]int{asn("m.p.v00").Key(): 1000}}
	s := sup(se)
	s.Breaker = 1
	s.HalfOpen = true

	if ev := s.Evaluate(asn("m.p.v00")); ev.Status != search.StatusInfra {
		t.Fatalf("opening failure: status = %v, want infra", ev.Status)
	}
	var wg sync.WaitGroup
	var passes atomic.Int64
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if ev := s.Evaluate(asn(fmt.Sprintf("m.p.v%02d", i))); ev.Status == search.StatusPass {
				passes.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if passes.Load() != 8 {
		t.Errorf("%d of 8 waiters passed", passes.Load())
	}
	st := s.Stats()
	if st.Probes != 1 || st.BreakerClosed != 1 {
		t.Errorf("stats = %+v, want exactly one probe and one close", st)
	}
}

// panicEval always panics with a fixed value.
type panicEval struct {
	v     any
	calls atomic.Int64
}

func (p *panicEval) Evaluate(transform.Assignment) *search.Evaluation {
	p.calls.Add(1)
	panic(p.v)
}

// TestCancellationNotRetried: a context cancellation unwinding through
// the supervisor is a deliberate stop, not an infrastructure fault — it
// must pass through unretried and unquarantined, and blocked breaker
// waiters must unwind with the same cause.
func TestCancellationNotRetried(t *testing.T) {
	cancelled := search.NewCancelled(context.Canceled)
	pe := &panicEval{v: cancelled}
	s := sup(pe)
	s.Retries = 5

	recovered := func(fn func()) (r any) {
		defer func() { r = recover() }()
		fn()
		return nil
	}
	if r := recovered(func() { s.Evaluate(asn("m.p.v01")) }); r != any(cancelled) {
		t.Fatalf("recovered %v (%T), want the original *search.Cancelled", r, r)
	}
	if pe.calls.Load() != 1 {
		t.Errorf("inner called %d times, want 1 (cancellation is never retried)", pe.calls.Load())
	}
	st := s.Stats()
	if st.Retried != 0 || st.Quarantined != 0 {
		t.Errorf("stats = %+v, want no retries or quarantines", st)
	}
	// The supervisor is now terminally aborted with the cancellation:
	// further evaluations re-raise it without touching the evaluator.
	if r := recovered(func() { s.Evaluate(asn("m.p.v02")) }); r != any(cancelled) {
		t.Errorf("post-cancel recovered %v (%T), want the original *search.Cancelled", r, r)
	}
	if pe.calls.Load() != 1 {
		t.Errorf("inner called %d times after cancellation, want still 1", pe.calls.Load())
	}
}
