package search

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transform"
)

// batchEval evaluates a slice of assignments, at most parallelism at a
// time, and records the results in the log in the *given order* —
// regardless of completion order — so that a search's evaluation log is
// identical for any degree of parallelism. This mirrors the paper's
// artifact workflow, where T1 emits a batch of precision assignments and
// T2/T3 transform/compile/execute them in parallel on dedicated nodes.
//
// Duplicate assignments within the batch, and assignments already in the
// log, are evaluated only once. Assignments with a record in the log's
// warm cache (a resumed crash journal) are served from it without
// calling the evaluator at all. The evaluator must be safe for
// concurrent use.
//
// Crash safety: if the evaluator panics, the completed results that
// precede the first panic in batch order are still flushed to the log —
// and through its OnAdd observer to any journal — before the original
// panic value is re-raised on the caller's goroutine, so the log (and
// journal) remain an exact prefix of the deterministic evaluation order.
//
// What happens to completed results at or after the first panicked slot
// depends on the panic:
//
//   - An uncontrolled crash (any ordinary panic value) discards them:
//     nothing can be assumed about process state, and the journal prefix
//     invariant is the resume contract.
//   - A supervised Abort (a tripped circuit breaker failing the search
//     fast, or a context cancellation) salvages every completed fresh
//     result, in deterministic batch order, into Log.Salvaged — and
//     through the OnSalvage observer to the journal's sidecar — before
//     re-raising. They cannot enter the log proper (their deterministic
//     slots were never reached), but a resumed search serves them from
//     the warm cache, so a worker failure no longer silently wastes the
//     paid-for evaluations of its siblings.
//
// Cancellation: once ctx is done, no *new* evaluation starts — workers
// that have not yet called the evaluator panic with a *Cancelled
// (an Abort) instead, while in-flight evaluations drain normally and
// are flushed or salvaged like any other completed sibling. Hard
// cancellation of in-flight work is the evaluator's business (the tuner
// threads a second, grace-delayed context into the interpreter).
//
// Observability: when sp is non-nil the batch emits a "batch" span with
// one "eval" child per fresh evaluation, attributed to the worker slot
// that ran it; when the log carries a metrics registry, cache/warm hits
// and queue-wait vs. run-time histograms are recorded. Both are
// strictly observational — a nil span and nil registry take the
// allocation-free no-op path and the evaluation order, results, and
// journal bytes are identical either way.
func batchEval(ctx context.Context, log *Log, eval Evaluator, batch []transform.Assignment, parallelism int, sp *obs.Span) []*Evaluation {
	if parallelism < 1 {
		parallelism = 1
	}
	results := make([]*Evaluation, len(batch))

	// Identify the distinct, not-yet-cached assignments.
	type job struct {
		idx      int // first batch index needing this evaluation
		a        transform.Assignment
		warm     *Evaluation // prior record served without evaluation
		salvaged bool        // warm record came from a salvage sidecar
	}
	var jobs []job
	firstByKey := make(map[string]int)
	for i, a := range batch {
		k := a.Key()
		if _, cached := log.Lookup(a); cached {
			continue
		}
		if _, seen := firstByKey[k]; seen {
			continue
		}
		firstByKey[k] = i
		j := job{idx: i, a: a}
		if we, ok := log.fromWarm(a); ok {
			j.warm = we.ev
			j.salvaged = we.salvaged
		}
		jobs = append(jobs, j)
	}

	bsp := sp.Child(obs.SpanBatch)
	bsp.AttrInt("size", int64(len(batch)))
	bsp.AttrInt("jobs", int64(len(jobs)))
	defer bsp.End()
	if log.metrics != nil {
		warmServed := 0
		for ji := range jobs {
			if jobs[ji].warm != nil {
				warmServed++
			}
		}
		log.metrics.Counter(obs.MetricCacheHits).Add(int64(len(batch) - len(jobs)))
		log.metrics.Counter(obs.MetricWarmHits).Add(int64(warmServed))
	}

	fresh := make([]*Evaluation, len(jobs))
	panics := make([]any, len(jobs))
	var wg sync.WaitGroup
	// Worker slots double as trace attribution: an eval span carries the
	// 1-based slot number that ran it (the trace viewer's tid).
	slots := make(chan int, parallelism)
	for w := 1; w <= parallelism; w++ {
		slots <- w
	}
	for ji := range jobs {
		if jobs[ji].warm != nil {
			ev := jobs[ji].warm
			ev.Assignment = jobs[ji].a
			fresh[ji] = ev
			continue
		}
		wg.Add(1)
		go func(ji int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[ji] = r
				}
			}()
			var queued time.Time
			if log.metrics != nil {
				queued = time.Now()
			}
			w := <-slots
			defer func() { slots <- w }()
			if log.metrics != nil {
				log.metrics.Histogram(obs.HistQueueWaitNS).Observe(float64(time.Since(queued)))
			}
			// The last cancellation gate before paying for an evaluation:
			// a done context stops new work while siblings already inside
			// the evaluator drain.
			checkCancelled(ctx)
			esp := bsp.Child(obs.SpanEval)
			esp.SetWorker(w)
			esp.Attr("key", jobs[ji].a.Key())
			var started time.Time
			if log.metrics != nil {
				started = time.Now()
			}
			ev := Evaluate(eval, esp, jobs[ji].a)
			if log.metrics != nil {
				log.metrics.Histogram(obs.HistEvalRunNS).Observe(float64(time.Since(started)))
			}
			esp.Attr("outcome", ev.Status.String())
			esp.AttrFloat("speedup", ev.Speedup)
			esp.End()
			ev.Assignment = jobs[ji].a
			fresh[ji] = ev
		}(ji)
	}
	wg.Wait()

	// Log in deterministic (batch) order, then resolve every slot. On a
	// panic, flush the contiguous completed prefix; if the panic is a
	// supervised Abort, additionally salvage the completed fresh results
	// past the panicked slot (still in batch order) before re-raising.
	for ji := range jobs {
		if r := panics[ji]; r != nil {
			if _, ok := r.(Abort); ok {
				for kj := ji + 1; kj < len(jobs); kj++ {
					// Warm-served entries are already durable (as journal
					// records or prior salvage events); only freshly paid-for
					// evaluations need rescuing.
					if panics[kj] == nil && fresh[kj] != nil && jobs[kj].warm == nil {
						log.salvage(fresh[kj])
					}
				}
			}
			panic(r)
		}
		// A salvaged warm record was never durable in the journal proper:
		// report it as fresh so the journal hook appends it at this index.
		log.add(fresh[ji], jobs[ji].warm != nil && !jobs[ji].salvaged, bsp)
	}
	for i, a := range batch {
		ev, ok := log.Lookup(a)
		if !ok {
			// Unreachable: every batch member is either cached or fresh.
			ev = &Evaluation{Assignment: a, Status: StatusError, Detail: "internal: lost evaluation"}
			log.Add(ev)
		}
		results[i] = ev
	}
	return results
}
