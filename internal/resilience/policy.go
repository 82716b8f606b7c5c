package resilience

import (
	"flag"
	"fmt"
	"time"
)

// Policy is the resilience tuning surface of one search: how transient
// infrastructure faults are retried, when the search gives up, and how
// a stopped run drains. Variant outcomes — fail/timeout/error
// evaluations *returned* by the evaluator — are deterministic
// properties of the assignment and are never retried, so Table II
// statistics are unaffected. Like parallelism, no policy field is
// fingerprinted: none shapes the evaluation stream, so a journal
// recorded under one policy resumes correctly under any other.
type Policy struct {
	// Retries bounds retries of transient faults per evaluation (the
	// first attempt is not a retry; Retries=3 allows 4 attempts).
	Retries int
	// RetriesByKind overrides Retries for specific fault kinds
	// (FaultKindOf labels; see DefaultRetryBudgets): a scheduler kill
	// usually deserves more retries than an OOM. Kinds absent from the
	// map use Retries.
	RetriesByKind map[string]int
	// Backoff shapes the retry delay (zero value = defaults; tests set a
	// ~1ns Base to avoid real sleeps). Jitter is seeded per assignment,
	// so retried runs stay deterministic.
	Backoff Backoff
	// Watchdog bounds each attempt's wall-clock time; 0 disables it. An
	// attempt that exceeds the limit is abandoned — its goroutine leaks
	// until the inner evaluation eventually returns, so real evaluators
	// should also honor a context deadline — and treated as a transient
	// *HangFault, retried within the hang retry budget and quarantined
	// past it like any other infrastructure fault.
	Watchdog time.Duration
	// Breaker trips the circuit breaker after this many consecutive
	// quarantines (hard infrastructure failures with no intervening
	// success), failing fast with a partial report. 0 disables it; 1
	// fails on the first.
	Breaker int
	// HalfOpen makes a tripped breaker open instead of aborting: new
	// evaluations block while one probe evaluation (after a cooldown)
	// tests the infrastructure. A successful probe closes the breaker
	// and the search resumes.
	HalfOpen bool
	// MaxQuarantined aborts the search once more than this many distinct
	// assignments are quarantined. 0 = unlimited.
	MaxQuarantined int
	// DrainGrace is how long in-flight evaluations may keep running
	// after the run's context is cancelled before they are hard-stopped
	// mid-flight (the interpreter unwinds with a cancellation fault). 0
	// lets in-flight evaluations drain to completion; the soft stop — no
	// *new* evaluation starts — always applies immediately. The tuner
	// applies it; the supervisor ignores it.
	DrainGrace time.Duration
}

// Supervises reports whether the policy needs the supervisor: any
// retry budget, breaker, quarantine budget or watchdog enables it.
func (p Policy) Supervises() bool {
	return p.Retries > 0 || len(p.RetriesByKind) > 0 || p.Breaker > 0 ||
		p.MaxQuarantined > 0 || p.Watchdog > 0
}

// Flags registers the policy's flags on fs and returns a function that
// builds the Policy after fs is parsed. With -retries N and no
// -retries-by-class, the per-kind budgets are DefaultRetryBudgets(N).
func Flags(fs *flag.FlagSet) func() (Policy, error) {
	retries := fs.Int("retries", 0, "retry transient evaluation-infrastructure faults up to N times (variant outcomes are never retried)")
	byClass := fs.String("retries-by-class", "", "per-class retry budgets as kind=N,kind=N (kinds: generic, scheduler-kill, oom, hang; default with -retries N: scheduler-kill=2N, oom=max(1,N/2), hang=N)")
	backoff := fs.Duration("retry-backoff", 0, "base retry backoff (capped exponential with seeded jitter; 0 = default 100ms)")
	watchdog := fs.Duration("watchdog", 0, "abandon an evaluation attempt that produces no result within this wall-clock time and treat it as a transient infrastructure fault (0 = no watchdog)")
	breaker := fs.Int("breaker", 0, "fail fast after N consecutive hard infrastructure failures (0 = never; exit code 3)")
	halfOpen := fs.Bool("breaker-halfopen", false, "after the breaker trips, probe one evaluation (instead of aborting) and resume the search if it succeeds")
	maxQuarantined := fs.Int("max-quarantined", 0, "abort once more than N distinct assignments are quarantined (0 = unlimited; exit code 4)")
	drainGrace := fs.Duration("drain-grace", 0, "after a stop (signal or -wall-budget), let in-flight evaluations keep running this long before hard-cancelling them (0 = drain to completion)")
	return func() (Policy, error) {
		kinds, err := ParseRetryBudgets(*byClass)
		if err != nil {
			return Policy{}, fmt.Errorf("-retries-by-class: %w", err)
		}
		if kinds == nil {
			kinds = DefaultRetryBudgets(*retries)
		}
		return Policy{
			Retries:        *retries,
			RetriesByKind:  kinds,
			Backoff:        Backoff{Base: *backoff},
			Watchdog:       *watchdog,
			Breaker:        *breaker,
			HalfOpen:       *halfOpen,
			MaxQuarantined: *maxQuarantined,
			DrainGrace:     *drainGrace,
		}, nil
	}
}
