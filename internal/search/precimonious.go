package search

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/transform"
)

// Outcome is the result of a Precimonious search.
type Outcome struct {
	// Minimal is the 1-minimal set of atoms that must remain 64-bit.
	Minimal []string
	// Final is the corresponding variant's evaluation (all other atoms
	// lowered), nil if even the all-64-bit configuration fails.
	Final *Evaluation
	// Log records every variant explored, in evaluation order.
	Log *Log
	// Converged is false if the search stopped on budget.
	Converged bool
}

// Options configures the Precimonious search.
type Options struct {
	Criteria Criteria
	// MaxEvaluations bounds distinct variant evaluations (0 =
	// unlimited); the paper's 12-hour job limit plays this role for
	// MOM6, whose search did not finish.
	MaxEvaluations int
	// Parallelism bounds concurrent variant evaluations within a batch
	// (default 1). The search is *batched* as in the paper's artifact:
	// at each delta-debugging step every candidate subset of the
	// current granularity is generated (T1), then transformed and
	// evaluated in parallel (T2/T3), and the outcomes drive the next
	// step (T4). Results — including the evaluation log — are identical
	// for every parallelism level; the evaluator must be safe for
	// concurrent use when Parallelism > 1.
	Parallelism int
	// Warm seeds the log's warm cache with prior evaluations keyed by
	// canonical assignment key (transform.Assignment.Key()), typically
	// replayed from a crash journal. A proposed assignment found here is
	// appended to the log without re-running the evaluator, so a
	// resumed search replays past work for free and produces the same
	// evaluation log as an uninterrupted run.
	Warm map[string]*Evaluation
	// Salvaged seeds prior evaluations recovered from an aborted run's
	// salvage sidecar (see Log.Salvaged). Like Warm they are served
	// without re-evaluation, but they replay as fresh (replayed=false)
	// so the journal hook persists them at their deterministic index —
	// they were never durable in the journal proper. A key present in
	// both Warm and Salvaged is served from Warm.
	Salvaged map[string]*Evaluation
	// OnAdd observes every log append in deterministic order; replayed
	// is true for records served from Warm. sp is the "batch" span the
	// append runs inside (nil untraced), so a span the hook opens is its
	// child and its time is not also counted as the batch's own. The
	// crash journal appends (and fsyncs) fresh records from this hook.
	OnAdd func(ev *Evaluation, replayed bool, sp *obs.Span)
	// OnSalvage observes evaluations salvaged when a supervised abort
	// unwinds a batch (completed results past the panicked slot). The
	// crash journal persists these to its events sidecar.
	OnSalvage func(ev *Evaluation)
	// Log, if non-nil, is the (empty) evaluation log the search records
	// into, instead of creating its own. Callers that must render a
	// partial report when the search aborts by panic — the resilience
	// supervisor's circuit breaker fails fast this way — pre-create the
	// log so the completed work survives the unwind.
	Log *Log
	// Span, if non-nil, is the parent span under which the search emits
	// "search.round"/"batch"/"eval" trace spans. Metrics, if non-nil,
	// receives counters and histograms. Both are purely observational:
	// the search's behavior, evaluation order, and journal bytes are
	// identical whether or not they are set, and neither participates in
	// the run fingerprint.
	Span    *obs.Span
	Metrics *obs.Registry
	// Decisions, if non-nil, receives the per-round candidate-lifecycle
	// stream (see DecisionSink). Purely observational like Span/Metrics,
	// and byte-stable across parallelism and resume by construction: the
	// stream is derived only from the deterministic evaluation log.
	Decisions DecisionSink
}

// Precimonious runs the delta-debugging-based FPPT search of §III-B over
// the given atoms: it finds a 1-minimal set of variables that must stay
// in 64-bit precision, lowering everything else to 32-bit, subject to
// the correctness and performance criteria. Every distinct variant
// evaluated is recorded in the returned Log (the data behind Table II
// and Figures 5-7).
//
// ctx bounds the search's lifetime (nil means never cancelled): once it
// is done, no new evaluation starts, in-flight evaluations drain, and
// the search unwinds by panicking with a *Cancelled — an Abort, so the
// journal keeps the completed deterministic prefix and completed
// siblings are salvaged. A resumed search replays that prefix and
// finishes with a byte-identical journal.
func Precimonious(ctx context.Context, eval Evaluator, atoms []transform.Atom, opts Options) *Outcome {
	log := opts.Log
	if log == nil {
		log = NewLog()
	}
	for k, ev := range opts.Salvaged {
		log.SeedSalvaged(k, ev)
	}
	for k, ev := range opts.Warm {
		log.SeedWarm(k, ev) // journal records win over salvage events
	}
	log.SetOnAdd(opts.OnAdd)
	log.SetOnSalvage(opts.OnSalvage)
	if opts.Metrics != nil {
		log.SetMetrics(opts.Metrics)
	}
	out := &Outcome{Log: log, Converged: true}
	if len(atoms) == 0 {
		return out
	}

	remaining := func() int {
		if opts.MaxEvaluations == 0 {
			return 1 << 30
		}
		return opts.MaxEvaluations - len(log.Evals)
	}

	// lowerAllBut builds the assignment keeping exactly `high` in
	// 64-bit precision.
	lowerAllBut := func(high []int) transform.Assignment {
		keep := make(map[int]bool, len(high))
		for _, i := range high {
			keep[i] = true
		}
		a := make(transform.Assignment, len(atoms))
		for i, at := range atoms {
			if keep[i] {
				a[at.QName] = 8
			} else {
				a[at.QName] = 4
			}
		}
		return a
	}

	// runBatch evaluates the candidates' assignments (budget-capped)
	// and returns per-candidate acceptance. Candidates beyond the
	// budget are reported as not accepted and flip Converged off.
	round := 0
	runBatch := func(cands [][]int) []bool {
		ok := make([]bool, len(cands))
		n := len(cands)
		if r := remaining(); n > r {
			n = r
			out.Converged = false
		}
		if n <= 0 {
			return ok
		}
		// Stop before proposing a new batch once the deadline has passed:
		// the between-batch gate catches cancellations that arrive while
		// no evaluation is in flight.
		checkCancelled(ctx)
		round++
		rsp := opts.Span.Child(obs.SpanSearchRound)
		rsp.AttrInt("round", int64(round))
		rsp.AttrInt("candidates", int64(n))
		defer rsp.End()
		if opts.Decisions != nil {
			opts.Decisions.RoundStart(round, len(cands))
		}
		preEvals := len(log.Evals)
		batch := make([]transform.Assignment, n)
		for i := 0; i < n; i++ {
			batch[i] = lowerAllBut(cands[i])
		}
		evs := batchEval(ctx, log, eval, batch, opts.Parallelism, rsp)
		for i, ev := range evs {
			ok[i] = opts.Criteria.Accept(ev)
		}
		if opts.Decisions != nil {
			keyOf := func(i int) string { return lowerAllBut(cands[i]).Key() }
			emitRoundDecisions(opts.Decisions, log, opts.Criteria, round, keyOf, len(cands), evs, ok, preEvals)
		}
		return ok
	}

	idx := make([]int, len(atoms))
	for i := range idx {
		idx[i] = i
	}

	// The all-32-bit variant is the empty "stay-high" set: if it
	// passes, the minimal set is empty. The all-64-bit configuration
	// *is* the baseline and satisfies the criteria by definition; it is
	// evaluated anyway so the log records it (as the paper's searches
	// do).
	first := runBatch([][]int{nil, idx})
	if first[0] {
		out.Minimal = nil
		out.Final, _ = log.Lookup(lowerAllBut(nil))
		return out
	}

	// Batched ddmin (Zeller & Hildebrandt) over the stay-high set.
	cur := idx
	n := 2
	for len(cur) >= 2 && out.Converged {
		chunks := split(cur, n)
		// Candidate order: each chunk alone, then each complement.
		var cands [][]int
		cands = append(cands, chunks...)
		if n > 2 {
			for i := range chunks {
				cands = append(cands, complement(cur, chunks[i]))
			}
		}
		accepted := runBatch(cands)

		pick := -1
		for i, ok := range accepted {
			if ok {
				pick = i
				break
			}
		}
		switch {
		case pick >= 0 && pick < len(chunks):
			cur = cands[pick]
			n = 2
		case pick >= 0:
			cur = cands[pick]
			n = max(n-1, 2)
		default:
			if n >= len(cur) {
				// 1-minimal.
				out.Minimal = atomNames(atoms, cur)
				if ev, okc := log.Lookup(lowerAllBut(cur)); okc {
					out.Final = ev
				}
				return out
			}
			n = min(len(cur), 2*n)
		}
	}
	out.Minimal = atomNames(atoms, cur)
	if ev, okc := log.Lookup(lowerAllBut(cur)); okc {
		out.Final = ev
	}
	return out
}

// split partitions items into n nearly equal contiguous chunks.
func split(items []int, n int) [][]int {
	if n > len(items) {
		n = len(items)
	}
	out := make([][]int, 0, n)
	start := 0
	for i := 0; i < n; i++ {
		end := start + (len(items)-start)/(n-i)
		if end > start {
			out = append(out, items[start:end])
		}
		start = end
	}
	return out
}

// complement returns items minus chunk (chunk is a contiguous slice of
// items, so identity comparison over values suffices).
func complement(items, chunk []int) []int {
	drop := make(map[int]bool, len(chunk))
	for _, v := range chunk {
		drop[v] = true
	}
	out := make([]int, 0, len(items)-len(chunk))
	for _, v := range items {
		if !drop[v] {
			out = append(out, v)
		}
	}
	return out
}

func atomNames(atoms []transform.Atom, idx []int) []string {
	out := make([]string, len(idx))
	for i, k := range idx {
		out[i] = atoms[k].QName
	}
	return out
}

// MaxBruteForceAtoms bounds the exhaustive sweep: 2^24 variants is
// already ~16.8M evaluations, far beyond any practical budget, and
// larger shifts overflow the variant count on 32-bit ints.
const MaxBruteForceAtoms = 24

// BruteForce evaluates all 2^n variants over atoms (used for funarc's
// Fig. 2; n must be small). Atom i is lowered in variant v when bit i of
// v is set. Variants are evaluated with the given parallelism but logged
// in enumeration order. Atom counts above MaxBruteForceAtoms are
// rejected rather than silently attempting an astronomically large (or,
// after shift overflow, nonsensically sized) sweep. ctx cancels the
// sweep like Precimonious: the unwind is a *Cancelled panic.
func BruteForce(ctx context.Context, eval Evaluator, atoms []transform.Atom, parallelism int) (*Log, error) {
	n := len(atoms)
	if n > MaxBruteForceAtoms {
		return nil, fmt.Errorf("search: brute force over %d atoms needs 2^%d evaluations; the limit is %d atoms — use Precimonious for larger spaces", n, n, MaxBruteForceAtoms)
	}
	log := NewLog()
	batch := make([]transform.Assignment, 1<<uint(n))
	for v := range batch {
		a := make(transform.Assignment, n)
		for i, at := range atoms {
			if v&(1<<uint(i)) != 0 {
				a[at.QName] = 4
			} else {
				a[at.QName] = 8
			}
		}
		batch[v] = a
	}
	batchEval(ctx, log, eval, batch, parallelism, nil)
	return log, nil
}
