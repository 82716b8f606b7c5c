// Package resilience makes the tuning search survive the failures the
// paper's pipeline meets on Derecho: compile-node faults, job-limit
// kills, and flaky workers that die mid-evaluation. Its Supervised
// evaluator wraps any search.Evaluator and draws one hard line:
//
//   - Variant outcomes — StatusFail, StatusTimeout, StatusError
//     evaluations *returned* by the inner evaluator — are deterministic
//     properties of the precision assignment (Table II buckets). They
//     pass through untouched and are NEVER retried: re-running them
//     cannot change the answer, and retrying would distort the paper's
//     outcome statistics.
//   - Infrastructure faults — *panics* escaping the inner evaluator —
//     say nothing about the assignment. Transient ones are retried with
//     capped exponential backoff (seeded, per-assignment jitter, so
//     journaled runs stay deterministic); persistent ones exhaust the
//     retry budget and the assignment is quarantined: it yields a
//     search.StatusInfra evaluation instead of crashing the search, and
//     a resumed run short-circuits it without touching the evaluator.
//
// Transient faults are budgeted per kind (scheduler kills, OOMs, hangs
// — see FaultKindOf): a requeue routinely cures a scheduler kill, so it
// deserves more retries than an OOM that will recur on every attempt.
// A per-evaluation wall-clock watchdog (Watchdog) converts a hung
// worker — one that neither returns nor panics — into a transient
// HangFault that travels the same retry/quarantine taxonomy, so a
// wedged evaluation no longer blocks its whole batch.
//
// A circuit breaker counts consecutive quarantines: N hard
// infrastructure failures in a row mean the infrastructure itself is
// down, and burning the remaining evaluation budget into it is worse
// than failing fast. In its default configuration the breaker trips by
// panicking with an *AbortError (a search.Abort), which the batched
// search layer uses to salvage completed sibling results before
// unwinding, and which the tuner converts into a partial report instead
// of a stack trace. With HalfOpen set, tripping instead *opens* the
// breaker: new evaluations block while a single probe evaluation tests
// whether the infrastructure recovered; a successful probe closes the
// breaker and the search resumes, while MaxProbes consecutive failed
// probes give up and abort as before. Because evaluation results are
// pure functions of the assignment, a search that rode out an open
// breaker produces the same journal as one that never tripped.
package resilience

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/transform"
)

// Class classifies a recovered panic value.
type Class int

const (
	// ClassTransient faults may succeed on retry (node fault, kill).
	ClassTransient Class = iota
	// ClassPersistent faults will recur on every attempt; retrying only
	// burns time, so the assignment is quarantined immediately.
	ClassPersistent
)

// Classifier maps a recovered panic value to a fault class.
type Classifier func(v any) Class

// DefaultClassify treats every panic as a transient infrastructure
// fault — the search would rather waste a few retries than abort — but
// honors a `Transient() bool` method on the panic value (implemented by
// search.InjectedFault's crash-on-key mode, and available to any real
// evaluator that can tell a poisoned config from a flaky node).
func DefaultClassify(v any) Class {
	if t, ok := v.(interface{ Transient() bool }); ok && !t.Transient() {
		return ClassPersistent
	}
	return ClassTransient
}

// EventType tags a resilience event.
type EventType string

// Event types, also used verbatim as journal sidecar record types.
const (
	// EventRetry: a transient fault was absorbed and the attempt retried.
	EventRetry EventType = "retry"
	// EventQuarantine: retries exhausted (or the fault was persistent);
	// the assignment is quarantined and evaluates to StatusInfra.
	EventQuarantine EventType = "quarantine"
	// EventBreakerTrip: too many consecutive quarantines; the search is
	// failing fast with a partial report.
	EventBreakerTrip EventType = "breaker_trip"
	// EventWatchdog: the per-evaluation watchdog abandoned a hung
	// attempt and substituted a transient HangFault.
	EventWatchdog EventType = "watchdog"
	// EventBreakerOpen: the half-open breaker opened; new evaluations
	// block until a probe settles the infrastructure's fate.
	EventBreakerOpen EventType = "breaker_open"
	// EventBreakerProbe: one evaluation is probing the opened breaker.
	EventBreakerProbe EventType = "breaker_probe"
	// EventBreakerClose: a probe succeeded; the breaker closed and the
	// search resumed.
	EventBreakerClose EventType = "breaker_close"
)

// Event is one observable resilience decision. Events are emitted on
// the evaluating goroutine, in decision order; under parallel
// evaluation their interleaving across assignments is nondeterministic
// (the evaluation *log* stays deterministic regardless).
type Event struct {
	Type EventType
	// Key is the canonical assignment key the event concerns.
	Key string
	// Attempt is the 1-based attempt that faulted (EventRetry) or the
	// total attempts spent before quarantining (EventQuarantine).
	Attempt int
	// Fault is the rendered panic value.
	Fault string
	// Kind is the fault's class label (FaultKindOf) on retry,
	// quarantine, and watchdog events; empty on breaker events.
	Kind string
	// Backoff is the delay slept before the retry (EventRetry only).
	Backoff time.Duration
}

// Stats is a snapshot of supervisor counters.
type Stats struct {
	// Evaluations is the number of Evaluate calls answered, including
	// quarantine short-circuits.
	Evaluations int64
	// Attempts is the number of inner evaluator invocations.
	Attempts int64
	// Retried is the number of faulted attempts that were retried.
	Retried int64
	// Recovered is the number of evaluations that succeeded after at
	// least one retry.
	Recovered int64
	// Quarantined is the number of quarantined assignments, including
	// those preloaded from a resumed run's event journal.
	Quarantined int
	// Hung is the number of attempts the watchdog abandoned.
	Hung int64
	// Probes is the number of half-open breaker probes started.
	Probes int64
	// FailedProbes is the number of probes that ended in quarantine.
	FailedProbes int64
	// BreakerClosed is the number of times a probe closed the breaker.
	BreakerClosed int64
	// BreakerTripped reports whether the circuit breaker has tripped.
	BreakerTripped bool
}

// AbortReason says why the supervisor terminated the search.
type AbortReason int

const (
	// AbortBreaker: too many consecutive hard infrastructure failures.
	AbortBreaker AbortReason = iota
	// AbortQuarantine: the quarantine budget (MaxQuarantined) was
	// exhausted — so many distinct assignments are poisoned that the
	// search's coverage is no longer meaningful.
	AbortQuarantine
)

func (r AbortReason) String() string {
	if r == AbortQuarantine {
		return "quarantine budget exhausted"
	}
	return "circuit breaker tripped"
}

// AbortError is the panic value the supervisor fails fast with. It
// implements search.Abort, so the batched search salvages completed
// sibling results before unwinding, and error, so the tuner can return
// it alongside the partial result.
type AbortError struct {
	Reason AbortReason
	// Consecutive is the consecutive hard-failure count at trip time.
	Consecutive int
	// Quarantined is the total quarantined-assignment count.
	Quarantined int
	// LastFault is the rendered fault that pushed it over.
	LastFault string
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("resilience: %s after %d consecutive hard infrastructure failure(s) (%d assignment(s) quarantined; last fault: %s)",
		e.Reason, e.Consecutive, e.Quarantined, e.LastFault)
}

// SearchAbort implements search.Abort.
func (e *AbortError) SearchAbort() string { return e.Error() }

// Supervised wraps a search.Evaluator with panic recovery, retry,
// quarantine, and a circuit breaker, as its Policy directs. It is safe
// for concurrent use (the batched search evaluates through it from many
// goroutines). The zero value of every knob is usable: no retries,
// default classifier and backoff, breaker disabled.
type Supervised struct {
	// Inner is the wrapped evaluator (required).
	Inner search.Evaluator
	// Policy holds the retry, watchdog, breaker and quarantine knobs
	// (DrainGrace is the tuner's; the supervisor ignores it).
	Policy
	// MaxProbes bounds consecutive failed half-open probes before the
	// breaker gives up and aborts (default 3).
	MaxProbes int
	// ProbeCooldown is slept (via Sleep) before each probe touches the
	// infrastructure, giving it time to recover (default 10×
	// DefaultBackoffBase).
	ProbeCooldown time.Duration
	// Classify overrides DefaultClassify.
	Classify Classifier
	// Sleep overrides time.Sleep between retries (tests inject a no-op).
	Sleep func(time.Duration)
	// OnEvent observes retry/quarantine/breaker decisions; the tuner
	// bridges it to the journal's events sidecar. Called on the
	// evaluating goroutine; a panic here propagates like an evaluator
	// panic would, but is not classified or retried.
	OnEvent func(Event)
	// Metrics, if non-nil, receives per-event counters (events_<type>,
	// retries, retries_<kind>, quarantined) and the breaker_open gauge —
	// purely observational, alongside (never instead of) the events
	// sidecar. Unlike Stats.Quarantined it counts only quarantines
	// decided this run, not ones preloaded from a resumed journal.
	Metrics *obs.Registry

	mu          sync.Mutex
	quarantined map[string]string // assignment key -> rendered fault
	consecutive int
	tripped     bool
	stats       Stats

	// Half-open breaker state, guarded by mu. cond is created on first
	// use (the zero Supervised stays usable); aborted holds the terminal
	// panic value once the supervisor has decided to unwind, so blocked
	// waiters re-raise the same cause instead of deadlocking.
	cond          *sync.Cond
	open          bool
	probing       bool
	probeFailures int
	aborted       any
}

// Quarantine preloads a quarantined assignment (typically replayed from
// a resumed run's event journal): evaluating it returns StatusInfra
// without touching the inner evaluator, so a poisoned configuration
// cannot re-crash a resumed search.
func (s *Supervised) Quarantine(key, fault string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quarantined == nil {
		s.quarantined = make(map[string]string)
	}
	if _, ok := s.quarantined[key]; !ok {
		s.quarantined[key] = fault
		s.stats.Quarantined++
	}
}

// Stats returns a snapshot of the supervisor counters.
func (s *Supervised) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Supervised) classify(v any) Class {
	if s.Classify != nil {
		return s.Classify(v)
	}
	return DefaultClassify(v)
}

func (s *Supervised) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if s.Sleep != nil {
		s.Sleep(d)
		return
	}
	time.Sleep(d)
}

func (s *Supervised) event(e Event) {
	if m := s.Metrics; m != nil {
		m.Counter(obs.MetricEventsPrefix + string(e.Type)).Add(1)
		switch e.Type {
		case EventRetry:
			m.Counter(obs.MetricRetries).Add(1)
			if e.Kind != "" {
				m.Counter(obs.MetricRetriesPrefix + e.Kind).Add(1)
			}
		case EventQuarantine:
			m.Counter(obs.MetricQuarantined).Add(1)
		case EventBreakerTrip, EventBreakerOpen:
			m.Gauge(obs.GaugeBreakerOpen).Set(1)
		case EventBreakerClose:
			m.Gauge(obs.GaugeBreakerOpen).Set(0)
		}
	}
	if s.OnEvent != nil {
		s.OnEvent(e)
	}
}

// retryBudget returns the retry budget for a fault kind.
func (s *Supervised) retryBudget(kind string) int {
	if n, ok := s.RetriesByKind[kind]; ok {
		return n
	}
	return s.Retries
}

func (s *Supervised) maxProbes() int {
	if s.MaxProbes > 0 {
		return s.MaxProbes
	}
	return 3
}

func (s *Supervised) probeCooldown() time.Duration {
	if s.ProbeCooldown > 0 {
		return s.ProbeCooldown
	}
	return 10 * DefaultBackoffBase
}

// condLocked returns the breaker condition variable, creating it on
// first use. Callers must hold mu.
func (s *Supervised) condLocked() *sync.Cond {
	if s.cond == nil {
		s.cond = sync.NewCond(&s.mu)
	}
	return s.cond
}

// broadcastLocked wakes every goroutine blocked on the breaker gate.
// Callers must hold mu.
func (s *Supervised) broadcastLocked() {
	if s.cond != nil {
		s.cond.Broadcast()
	}
}

// abortValueLocked is what a waiter (or a fresh Evaluate call) panics
// with once the supervisor has terminally aborted. A cancellation
// propagates as-is so the tuner reports the true cause; a breaker abort
// is re-rendered so each panicking goroutine says the breaker was
// already open. Callers must hold mu.
func (s *Supervised) abortValueLocked() any {
	if _, ok := s.aborted.(*AbortError); !ok && s.aborted != nil {
		return s.aborted
	}
	reason := AbortBreaker
	if ae, ok := s.aborted.(*AbortError); ok {
		reason = ae.Reason
	}
	return &AbortError{Reason: reason, Consecutive: s.consecutive,
		Quarantined: len(s.quarantined), LastFault: "breaker already open"}
}

// attempt runs one inner evaluation, converting a panic into a fault
// value. fault is nil on success. With a watchdog configured the inner
// call runs on its own goroutine: if it produces nothing within the
// limit it is abandoned (the goroutine leaks until the evaluation
// returns on its own) and a transient *HangFault is reported instead.
// sp is the caller's eval span, threaded through to span-aware inner
// evaluators (nil when tracing is off).
func (s *Supervised) attempt(sp *obs.Span, key string, a transform.Assignment) (ev *search.Evaluation, fault any) {
	s.mu.Lock()
	s.stats.Attempts++
	s.mu.Unlock()
	if s.Watchdog <= 0 {
		defer func() {
			if r := recover(); r != nil {
				fault = r
			}
		}()
		return search.Evaluate(s.Inner, sp, a), nil
	}
	type outcome struct {
		ev    *search.Evaluation
		fault any
	}
	// Buffered so an abandoned worker's late send never blocks it forever.
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{fault: r}
			}
		}()
		ch <- outcome{ev: search.Evaluate(s.Inner, sp, a)}
	}()
	timer := time.NewTimer(s.Watchdog)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.ev, o.fault
	case <-timer.C:
		s.mu.Lock()
		s.stats.Hung++
		s.mu.Unlock()
		return nil, &HangFault{Key: key, After: s.Watchdog}
	}
}

// quarantineDetail renders the StatusInfra detail for a quarantined
// assignment. It must be a pure function of the fault text so the
// record a crashed run journaled and the record a resumed run rebuilds
// from the event journal are identical.
func quarantineDetail(fault string) string { return "quarantined: " + fault }

// Evaluate implements search.Evaluator.
func (s *Supervised) Evaluate(a transform.Assignment) *search.Evaluation {
	return s.EvaluateSpan(nil, a)
}

// EvaluateSpan implements search.SpanEvaluator: identical to Evaluate,
// additionally emitting one "retry" child span per retried attempt
// (covering the backoff sleep and the re-attempt) and threading sp
// through to a span-aware inner evaluator. sp may be nil.
func (s *Supervised) EvaluateSpan(sp *obs.Span, a transform.Assignment) *search.Evaluation {
	key := a.Key()

	s.mu.Lock()
	s.stats.Evaluations++
	// Half-open gate: while the breaker is open and a probe is in
	// flight, everyone else waits for its verdict instead of hammering
	// infrastructure that is presumed down.
	for s.aborted == nil && s.open && s.probing {
		s.condLocked().Wait()
	}
	if s.aborted != nil {
		abort := s.abortValueLocked()
		s.mu.Unlock()
		panic(abort)
	}
	fault, poisoned := s.quarantined[key]
	isProbe := false
	if !poisoned && s.open {
		// First caller through an idle open breaker becomes the probe; a
		// quarantined key cannot probe (it never touches the evaluator).
		s.probing = true
		isProbe = true
		s.stats.Probes++
	}
	s.mu.Unlock()
	if poisoned {
		return s.infraEvaluation(a, fault)
	}
	if isProbe {
		s.event(Event{Type: EventBreakerProbe, Key: key})
		s.sleep(s.probeCooldown())
	}

	var lastFault string
	// rsp is the span of the retry currently being paid for: opened when
	// a retry is decided, closed — with its outcome — when the retried
	// attempt returns.
	var rsp *obs.Span
	for attempt := 0; ; attempt++ {
		ev, fault := s.attempt(sp, key, a)
		if rsp != nil {
			if fault == nil {
				rsp.Attr("outcome", "recovered")
			} else {
				rsp.Attr("outcome", "failed")
			}
			rsp.End()
			rsp = nil
		}
		if fault == nil {
			s.mu.Lock()
			s.consecutive = 0
			if attempt > 0 {
				s.stats.Recovered++
			}
			if isProbe {
				// The probe came back: the infrastructure recovered.
				// Close the breaker and release the waiters.
				s.open = false
				s.probing = false
				s.probeFailures = 0
				s.stats.BreakerClosed++
				s.broadcastLocked()
			}
			s.mu.Unlock()
			if isProbe {
				s.event(Event{Type: EventBreakerClose, Key: key})
			}
			return ev
		}
		// Deliberate search terminations — a context cancellation, a
		// nested abort — are not infrastructure faults: they must not be
		// retried or quarantined. Record the cause so gate waiters unwind
		// with it instead of deadlocking, then re-raise.
		if _, ok := fault.(search.Abort); ok {
			s.mu.Lock()
			if s.aborted == nil {
				s.aborted = fault
			}
			s.broadcastLocked()
			s.mu.Unlock()
			panic(fault)
		}
		kind := FaultKindOf(fault)
		lastFault = renderFault(fault)
		if _, hung := fault.(*HangFault); hung {
			s.event(Event{Type: EventWatchdog, Key: key, Attempt: attempt + 1, Fault: lastFault, Kind: kind})
		}
		if s.classify(fault) == ClassTransient && attempt < s.retryBudget(kind) {
			delay := s.Backoff.Delay(key, attempt)
			s.mu.Lock()
			s.stats.Retried++
			s.mu.Unlock()
			s.event(Event{Type: EventRetry, Key: key, Attempt: attempt + 1, Fault: lastFault, Kind: kind, Backoff: delay})
			rsp = sp.Child(obs.SpanRetry)
			rsp.Attr("key", key)
			rsp.AttrInt("attempt", int64(attempt+1))
			rsp.Attr("kind", kind)
			rsp.Attr("class", "transient")
			rsp.AttrInt("backoff_ns", int64(delay))
			s.sleep(delay)
			continue
		}
		// Hard infrastructure failure: quarantine the assignment. Two
		// workers can race to exhaust retries on the same key (batched
		// duplicates are deduplicated upstream, but nothing forbids it);
		// only the first counts.
		s.mu.Lock()
		if s.quarantined == nil {
			s.quarantined = make(map[string]string)
		}
		if _, dup := s.quarantined[key]; !dup {
			s.quarantined[key] = lastFault
			s.stats.Quarantined++
		}
		s.consecutive++
		trip := s.Breaker > 0 && s.consecutive >= s.Breaker
		exhausted := s.MaxQuarantined > 0 && len(s.quarantined) > s.MaxQuarantined
		abort := &AbortError{Consecutive: s.consecutive,
			Quarantined: len(s.quarantined), LastFault: lastFault}
		terminal := false   // the search aborts now
		justOpened := false // the half-open breaker opened on this fault
		switch {
		case exhausted:
			// A meaningless search is not worth probing for.
			abort.Reason = AbortQuarantine
			terminal = true
		case isProbe:
			// The probe failed: the infrastructure is still down. Stay
			// open and let the next waiter probe, unless the probe budget
			// is spent.
			s.probing = false
			s.probeFailures++
			s.stats.FailedProbes++
			if s.probeFailures >= s.maxProbes() {
				abort.Reason = AbortBreaker
				terminal = true
			} else {
				s.broadcastLocked()
			}
		case trip:
			if s.HalfOpen {
				justOpened = !s.open
				s.open = true
			} else {
				abort.Reason = AbortBreaker
				terminal = true
			}
		}
		if terminal {
			s.tripped = true
			if abort.Reason == AbortBreaker {
				s.stats.BreakerTripped = true
			}
			s.aborted = abort
			s.broadcastLocked()
		}
		s.mu.Unlock()

		s.event(Event{Type: EventQuarantine, Key: key, Attempt: attempt + 1, Fault: lastFault, Kind: kind})
		if terminal {
			if abort.Reason == AbortBreaker {
				s.event(Event{Type: EventBreakerTrip, Key: key, Fault: lastFault})
			}
			panic(abort)
		}
		if justOpened {
			s.event(Event{Type: EventBreakerOpen, Key: key, Fault: lastFault})
		}
		return s.infraEvaluation(a, lastFault)
	}
}

// infraEvaluation builds the StatusInfra evaluation for a quarantined
// assignment.
func (s *Supervised) infraEvaluation(a transform.Assignment, fault string) *search.Evaluation {
	return &search.Evaluation{
		Assignment: a,
		Status:     search.StatusInfra,
		Lowered:    a.Lowered(),
		Detail:     quarantineDetail(fault),
	}
}

// renderFault formats a recovered panic value.
func renderFault(v any) string {
	if err, ok := v.(error); ok {
		return err.Error()
	}
	return fmt.Sprint(v)
}
