// Package core is the public face of the PROSE-Go precision tuner: it
// wires the paper's tuning cycle together (Fig. 1 / artifact tasks
// T0-T4) for a given model:
//
//	T0  parse the model, enumerate search atoms, profile the baseline;
//	T1  the delta-debugging search proposes precision assignments;
//	T2  the transformer generates each mixed-precision variant
//	    (kind rewriting + wrapper insertion);
//	T3  the interpreter + machine model evaluate the variant's
//	    performance (simulated cycles, GPTL regions) and correctness
//	    (§IV-A metrics vs. the baseline);
//	T4  outcomes feed back into the search until a 1-minimal variant
//	    is found or the budget expires.
package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"repro/internal/fleet"
	ft "repro/internal/fortran"
	"repro/internal/gptl"
	"repro/internal/interp"
	"repro/internal/journal"
	"repro/internal/ledger"
	"repro/internal/models"
	"repro/internal/numerics"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/resilience"
	"repro/internal/search"
	"repro/internal/transform"
)

// Options configures a tuning run.
type Options struct {
	// WholeModel guides the search by whole-model time instead of
	// hotspot CPU time (the §IV-C / Fig. 7 experiment).
	WholeModel bool
	// MaxEvaluations overrides the model's evaluation budget (0 keeps
	// the model default; negative means unlimited).
	MaxEvaluations int
	// MinSpeedup is the performance criterion (default 1.0: variants
	// slower than the baseline are rejected, as in the paper).
	MinSpeedup float64
	// Seed drives the Eq. (1) runtime-noise model. Each variant's noise
	// stream is derived from Seed and the variant's canonical key, so
	// results are independent of evaluation order and parallelism.
	Seed int64
	// Parallelism bounds concurrent variant evaluations (default 1).
	Parallelism int
	// Machine overrides the default machine model.
	Machine *perfmodel.Model
	// Progress, if non-nil, receives one call per distinct variant, in
	// the evaluation log's deterministic order: the same tune makes the
	// same calls in the same order at any Parallelism and on a Fleet.
	// Evaluations replayed from a resumed journal do not reach Progress;
	// ones salvaged from an aborted run's events sidecar do, since they
	// are appended to the journal afresh.
	Progress func(ev *search.Evaluation)

	// JournalPath, if non-empty, makes the search crash-safe: every
	// distinct variant evaluation is appended to an append-only JSONL
	// journal at this path and fsync'd before the search proceeds, and
	// an atomic checkpoint of search progress is kept at
	// JournalPath+".ckpt". A run killed at any point (the paper's
	// 12-hour job limit killed the MOM6 search and lost everything)
	// leaves a journal from which Resume continues without re-running
	// any evaluated variant.
	JournalPath string
	// Resume warm-starts from an existing journal at JournalPath: the
	// search replays the journaled evaluations to the point the
	// previous run died, then continues. The journal's baseline
	// fingerprint (program source, machine model, seed, search options)
	// must match this run's, or it is rejected as stale rather than
	// silently reused. Parallelism is deliberately not fingerprinted:
	// evaluation logs are identical at every parallelism level.
	Resume bool

	// WrapEvaluator, if non-nil, wraps the tuner's variant evaluator
	// before the search runs — the instrumentation seam used by the
	// crash-safety fault-injection tests, and available for caching or
	// screening layers.
	WrapEvaluator func(search.Evaluator) search.Evaluator

	// Resilience is the supervisor and drain policy. Any retry budget,
	// breaker, quarantine budget or watchdog in it (Policy.Supervises)
	// runs the evaluator under a resilience.Supervised wrapper; its
	// DrainGrace bounds the drain after the run's context is cancelled.
	// Like Parallelism it is not fingerprinted.
	Resilience resilience.Policy

	// Trace, if non-nil, collects a hierarchical span trace of the run
	// (tune → search.round → batch → eval → interp.run, plus retry and
	// journal.append spans). Metrics, if non-nil, collects counters,
	// gauges, and histograms; the final snapshot lands in
	// Result.Metrics. Like Parallelism and the resilience knobs, neither
	// is fingerprinted, and neither may perturb the evaluation stream or
	// the journal bytes: they are strictly observational (test-enforced
	// by TestTracingDoesNotPerturbJournal).
	Trace   *obs.Tracer
	Metrics *obs.Registry

	// Numerics attaches a shadow-execution recorder to every
	// interpreter run: each evaluation's eval span gains numeric_*
	// attributes (FP error, cancellations, non-finite provenance) and
	// Metrics gains the numeric_* counters. Like Trace/Metrics it is
	// strictly observational — not fingerprinted, and it may not
	// perturb the evaluation stream or the journal bytes
	// (test-enforced by TestNumericsDoesNotPerturbJournal).
	Numerics bool

	// DecisionPath, if non-empty, streams the search's per-round decision
	// telemetry (candidate lifecycle, funnel tallies, best-so-far,
	// frontier) to an append-only JSONL sidecar at this path — see
	// internal/ledger. Like Trace/Metrics it is strictly observational:
	// not fingerprinted, journal bytes unchanged. The file is recreated
	// on every run, Resume included: the stream derives only from the
	// deterministic evaluation log, so a resumed run rewrites it
	// byte-identically to an uninterrupted run's (test-enforced by
	// TestDecisionLogKillResumeByteIdentical).
	DecisionPath string
	// LedgerDir, if non-empty, archives the run into the content-
	// addressed run ledger at this directory when Run returns: a
	// manifest carrying the fingerprint, machine, result
	// summary, final metrics snapshot (with histogram quantiles), fleet
	// stats, and the decision-log digest. See internal/ledger and
	// `prose runs` / `prose compare`.
	LedgerDir string

	// Fleet, if non-nil, shards every variant evaluation across this
	// coordinator's worker subprocesses instead of running it in-process.
	// The tuner starts the coordinator when Run begins (handing it the
	// in-process evaluator as the degrade fallback and the run
	// fingerprint for the worker handshake) and closes it before Run
	// returns. Worker deaths, missed heartbeats, and expired leases
	// surface as transient infrastructure faults to the resilience
	// supervisor — a fleet run always supervises, and when Resilience
	// sets no retry budget it gets DefaultFleetRetries with the per-kind
	// defaults — so a lease reassignment is just a supervised retry.
	// Like Parallelism, the fleet is not fingerprinted: workers reproduce the
	// coordinator's evaluations bit for bit, so the journal is
	// byte-identical at any pool size, worker crashes included
	// (test-enforced by TestFleetJournalByteIdentity). ProcVariants
	// (Fig. 6) stays empty in fleet mode: the result frame does not
	// carry an evaluation's per-procedure samples.
	Fleet *fleet.Coordinator
}

// DefaultFleetRetries is the retry base a fleet run uses when no
// explicit retry knob is set: killed workers are routine, so the leases
// they held must be reassigned a few times before anyone concludes an
// assignment is poisoned.
const DefaultFleetRetries = 3

// supervising reports whether the run needs the resilience supervisor:
// its policy asks for one, or it runs on a fleet.
func (o Options) supervising() bool {
	return o.Resilience.Supervises() || o.Fleet != nil
}

// Baseline summarizes the instrumented baseline run (Table I data).
type Baseline struct {
	TotalCycles   float64
	HotspotCycles float64
	HotspotShare  float64 // fraction of CPU time in the hotspot
	AtomCount     int
	Threshold     float64
	Regions       []*gptl.Region
}

// ProcPoint is one unique per-procedure variant measurement (Fig. 6):
// the average CPU time per call of a hotspot procedure under a unique
// precision assignment of that procedure's own variables.
type ProcPoint struct {
	Key        string  // canonical sub-assignment (lowered atoms of the proc)
	Lowered    int     // this procedure's atoms at 32-bit
	PerCall    float64 // cycles per call (self + its wrappers)
	Speedup    float64 // baseline per-call / variant per-call
	FromIndex  int     // log index of the evaluation that first produced this point
	CallsSeen  int64
	FailStatus search.Status // status of the producing variant
}

// Result is a completed tuning run.
type Result struct {
	Model    *models.Model
	Options  Options
	Baseline *Baseline
	Outcome  *search.Outcome
	// ProcVariants maps hotspot procedure qualified names to their
	// unique per-procedure variants (Fig. 6 series), built from the
	// evaluation log in log order, so it is the same at every
	// parallelism. Evaluations replayed from a journal or run on fleet
	// workers carry no per-procedure samples and add no points.
	ProcVariants map[string][]ProcPoint
	// Criteria used by the search.
	Criteria search.Criteria
	// Resumed is the number of evaluations replayed from the journal
	// instead of re-run (0 unless Options.Resume found prior work).
	Resumed int
	// Salvaged is the number of evaluations recovered from the events
	// sidecar of an aborted prior run and replayed without re-running.
	Salvaged int
	// Resilience snapshots the supervisor counters (nil when the run
	// was not supervised).
	Resilience *resilience.Stats
	// Aborted is set when the supervisor terminated the search early
	// (circuit breaker / quarantine budget); the Result then holds the
	// partial work completed before the abort, and Run returns the same
	// value as its error.
	Aborted *resilience.AbortError
	// Cancelled is set when the run's context was cancelled — a signal
	// or an expired wall-clock budget stopped the search in an orderly
	// fashion. The Result holds the partial work completed (and
	// journaled) before the stop, and Run returns the same value as its
	// error; with a journal, a -resume run completes the search and
	// produces a byte-identical journal.
	Cancelled *search.Cancelled
	// Metrics is the final snapshot of Options.Metrics (nil when the run
	// collected no metrics); Render embeds it in the report.
	Metrics *obs.Snapshot
	// Fleet snapshots the worker-fleet counters (nil when the run did
	// not shard evaluations across worker subprocesses).
	Fleet *fleet.Stats
}

// Tuner runs the full tuning cycle for one model.
type Tuner struct {
	model   *models.Model
	machine *perfmodel.Model
	opts    Options

	prog          *ft.Program
	atoms         []transform.Atom
	hotspotProcs  map[string]bool
	entryProcs    map[string]bool // hotspot procs called from outside
	baseOut       []float64
	baseline      *Baseline
	baseProcPC    map[string]float64 // baseline per-call by proc
	baseProcCalls map[string]int64
	baseTimeEq1   float64 // Eq. (1) numerator (median of n noisy samples)

	log       *search.Log
	procAtoms map[string][]string // proc -> its atom qnames

	// pool recycles module arrays: every interpreter the tuner builds
	// comes from it and is released back once its output is read, so a
	// tune allocates its model's module arrays about once per
	// concurrent evaluation.
	pool interp.Pool

	// runCtx is the hard-cancellation context of the current Run: once
	// it is done, in-flight interpreter runs unwind with FailCancelled.
	// Written once before the search spawns workers (the go statement
	// establishes the happens-before), nil when Run was given no context.
	runCtx context.Context
}

// New prepares a tuner: parses the model, enumerates atoms, runs and
// profiles the baseline, and determines the error threshold.
func New(m *models.Model, opts Options) (*Tuner, error) {
	if opts.Machine == nil {
		opts.Machine = perfmodel.Default()
	}
	if opts.MinSpeedup == 0 {
		opts.MinSpeedup = 1.0
	}
	t := &Tuner{
		model:   m,
		machine: opts.Machine,
		opts:    opts,
	}
	prog, err := m.Parse()
	if err != nil {
		return nil, err
	}
	t.prog = prog
	t.atoms = transform.Atoms(prog, m.Hotspot)
	if len(t.atoms) == 0 {
		return nil, fmt.Errorf("core: model %s has no tunable atoms in module %q", m.Name, m.Hotspot)
	}

	t.hotspotProcs = make(map[string]bool)
	for _, q := range m.HotspotProcs(prog) {
		t.hotspotProcs[q] = true
	}
	t.entryProcs = entryProcs(prog, m.Hotspot)

	// Atom list per procedure, for the Fig. 6 sub-assignment keys.
	t.procAtoms = make(map[string][]string)
	for _, a := range t.atoms {
		var owner string
		if a.Decl.Proc != nil {
			owner = a.Decl.Proc.QName()
		} else {
			// Module-level variables influence every procedure that
			// could touch them; attribute them to the module pseudo-proc.
			owner = m.Hotspot + ".<module>"
		}
		t.procAtoms[owner] = append(t.procAtoms[owner], a.QName)
	}

	if err := t.runBaseline(); err != nil {
		return nil, err
	}
	t.baseTimeEq1 = t.noiseFor("baseline").MedianOfN(
		t.measuredTime(t.baseline.HotspotCycles, t.baseline.TotalCycles), m.NRuns)
	return t, nil
}

// noiseFor derives a deterministic runtime-noise stream for one variant
// from the tuner seed and the variant's canonical key, making measured
// speedups independent of evaluation order and parallelism.
func (t *Tuner) noiseFor(key string) *perfmodel.Noise {
	h := fnv.New64a()
	h.Write([]byte(key))
	return perfmodel.NewNoise(t.model.NoiseRel, t.opts.Seed^int64(h.Sum64()))
}

// Atoms returns the search atoms (hotspot real declarations).
func (t *Tuner) Atoms() []transform.Atom { return t.atoms }

// BaselineInfo returns the baseline profile.
func (t *Tuner) BaselineInfo() *Baseline { return t.baseline }

// Program returns the analyzed baseline program.
func (t *Tuner) Program() *ft.Program { return t.prog }

// entryProcs finds hotspot procedures invoked from outside the hotspot
// module in the baseline: wrappers of these procs marshal data across
// the hotspot boundary, and their cost is excluded from hotspot CPU time
// (the paper's GPTL timers sit inside the original routines).
func entryProcs(prog *ft.Program, hotspot string) map[string]bool {
	out := make(map[string]bool)
	info := ft.MustAnalyze(prog, ft.Options{})
	for _, cs := range info.CallSites {
		if cs.Callee.Module == nil || cs.Callee.Module.Name != hotspot {
			continue
		}
		callerMod := ""
		if cs.Caller != nil && cs.Caller.Module != nil {
			callerMod = cs.Caller.Module.Name
		}
		if callerMod != hotspot {
			out[cs.Callee.QName()] = true
		}
	}
	return out
}

func (t *Tuner) runBaseline() error {
	// The uniform-32 build and run read nothing of the baseline run's
	// until Compare, so they run beside it.
	var done chan uniform32Run
	if t.model.ThresholdMode == models.ThresholdUniform32 {
		done = make(chan uniform32Run, 1)
		go func() {
			in, err := t.runUniform32()
			done <- uniform32Run{in, err}
		}()
	}
	res, err := t.profileBaseline()
	var u32 uniform32Run
	if done != nil {
		u32 = <-done
		if u32.in != nil {
			defer u32.in.Release()
		}
	}
	if err != nil {
		return err
	}
	hotspot := t.hotspotTime(res, nil)
	t.baseline = &Baseline{
		TotalCycles:   res.Cycles,
		HotspotCycles: hotspot,
		HotspotShare:  hotspot / res.Cycles,
		AtomCount:     len(t.atoms),
		Regions:       res.Timers.Regions(),
	}
	t.baseProcPC = make(map[string]float64)
	t.baseProcCalls = make(map[string]int64)
	for q := range t.hotspotProcs {
		if r := res.Timers.Region(q); r != nil {
			t.baseProcPC[q] = r.PerCall()
			t.baseProcCalls[q] = r.Calls
		}
	}

	// Threshold (§IV-A).
	switch t.model.ThresholdMode {
	case models.ThresholdUniform32:
		if u32.err != nil {
			return u32.err
		}
		out, err := t.model.Extract(u32.in)
		if err != nil {
			return err
		}
		e, err := t.model.Compare(t.baseOut, out)
		if err != nil {
			return err
		}
		f := t.model.ThresholdFactor
		if f == 0 {
			f = 1
		}
		t.baseline.Threshold = e * f
	default:
		t.baseline.Threshold = t.model.Threshold
	}
	return nil
}

// profileBaseline runs the baseline with GPTL profiling and keeps its
// output series as t.baseOut.
func (t *Tuner) profileBaseline() (*interp.Result, error) {
	in, err := t.pool.New(t.prog, interp.Config{
		Model:         t.machine,
		TrapNonFinite: true,
		Profile:       true,
	})
	if err != nil {
		return nil, err
	}
	defer in.Release()
	res, err := in.Run()
	if err != nil {
		return nil, fmt.Errorf("core: %s baseline run failed: %w", t.model.Name, err)
	}
	t.baseOut, err = t.model.Extract(in)
	return res, err
}

// uniform32Run is the finished run of the whole-program uniform 32-bit
// build, or the error that stopped it.
type uniform32Run struct {
	in  *interp.Interp
	err error
}

// runUniform32 builds and runs the whole-program uniform 32-bit build
// (the supported single-precision configuration), whose correctness
// metric sets a ThresholdUniform32 model's threshold. The caller
// extracts its output and releases it.
func (t *Tuner) runUniform32() (*interp.Interp, error) {
	all := transform.Atoms(t.prog)
	v, err := transform.Apply(t.prog, transform.Uniform(all, 4))
	if err != nil {
		return nil, fmt.Errorf("core: uniform-32 build: %w", err)
	}
	in, err := t.pool.New(v.Prog, interp.Config{Model: t.machine, TrapNonFinite: true})
	if err != nil {
		return nil, err
	}
	if _, err := in.Run(); err != nil {
		in.Release()
		return nil, fmt.Errorf("core: uniform-32 run: %w", err)
	}
	return in, nil
}

// hotspotTime computes the hotspot CPU time of a run: self time of the
// hotspot module's baseline procedures plus the wrappers of *internal*
// hotspot procedures. Boundary wrappers (around entry procedures) run in
// the caller and are excluded — the blindness that §IV-C exposes.
//
// wrapperOf is the variant's authoritative generated-wrapper map
// (transform.Result.WrapperOf; nil for the wrapper-free baseline).
// Matching against it, rather than against a "_wrapper_" substring,
// keeps a user procedure that merely *looks* like a wrapper (e.g. one
// literally named foo_wrapper_x) from corrupting the attribution.
func (t *Tuner) hotspotTime(res *interp.Result, wrapperOf map[string]string) float64 {
	var sum float64
	for _, r := range res.Timers.Regions() {
		name := r.Name
		if t.hotspotProcs[name] {
			sum += r.Self
			continue
		}
		if callee, ok := wrapperOf[name]; ok && t.hotspotProcs[callee] && !t.entryProcs[callee] {
			sum += r.Self
		}
	}
	return sum
}

// measuredTime selects the guiding time metric.
func (t *Tuner) measuredTime(hotspot, total float64) float64 {
	if t.opts.WholeModel {
		return total
	}
	return hotspot
}

// Evaluate implements search.Evaluator: it generates, "compiles"
// (analyzes), runs, and scores one variant.
func (t *Tuner) Evaluate(a transform.Assignment) *search.Evaluation {
	return t.EvaluateSpan(nil, a)
}

// AttachMetrics implements fleet.MetricsAttacher: a fleet worker's
// tuner starts without a registry and adopts one when the first lease
// arrives with trace context asking for metrics, so the interpreter
// counters it feeds can be shipped back to the coordinator. Worker
// leases run sequentially, so attaching between evaluations is safe.
// Metrics never influence evaluation outcomes or the journal.
func (t *Tuner) AttachMetrics(reg *obs.Registry) {
	t.opts.Metrics = reg
}

// EvaluateSpan implements search.SpanEvaluator: identical to Evaluate,
// additionally attributing the interpreter execution to an "interp.run"
// child of sp and feeding interpreter counters to Options.Metrics. sp
// may be nil; outcomes are identical with or without it.
func (t *Tuner) EvaluateSpan(sp *obs.Span, a transform.Assignment) *search.Evaluation {
	ev := &search.Evaluation{
		Assignment: a,
		Lowered:    a.Lowered(),
		TotalAtoms: len(t.atoms),
	}
	v, err := transform.Apply(t.prog, a)
	if err != nil {
		// The paper's uncompilable variants (ROSE unparsing failures)
		// land here: a variant the toolchain cannot build is an error
		// outcome.
		ev.Status = search.StatusError
		ev.Detail = "transform: " + err.Error()
		return ev
	}

	var nrec *numerics.Recorder
	if t.opts.Numerics {
		nrec = numerics.NewRecorder(t.model.Name+".ft", numerics.Options{})
	}
	in, err := t.pool.New(v.Prog, interp.Config{
		Model:         t.machine,
		TrapNonFinite: true,
		Profile:       true,
		CycleBudget:   3 * t.baseline.TotalCycles, // §IV-A: 3x baseline timeout
		Context:       t.runCtx,                   // hard cancellation after the drain grace
		Numerics:      nrec,                       // nil unless Options.Numerics
	})
	if err != nil {
		ev.Status = search.StatusError
		ev.Detail = err.Error()
		return ev
	}
	defer in.Release() // on every return, and on the cancellation panic below
	isp := sp.Child(obs.SpanInterpRun)
	res, runErr := in.Run()
	var calls int64 // procedure calls, generated wrappers included
	if res != nil && (isp != nil || t.opts.Metrics != nil) {
		for _, r := range res.Timers.Regions() {
			calls += r.Calls
		}
	}
	if res != nil {
		isp.AttrFloat("cycles", res.Cycles)
		isp.AttrInt("steps", res.Steps)
		isp.AttrInt("calls", calls)
	}
	if runErr != nil {
		isp.Attr("error", runErr.Error())
	}
	prof := nrec.Profile() // nil recorder -> nil profile
	if prof != nil {
		isp.AttrInt("numeric_ops", prof.Ops)
		isp.AttrInt("numeric_cancellations", prof.Cancellations)
		isp.AttrInt("numeric_catastrophic", prof.Catastrophic)
		isp.AttrFloat("numeric_max_divergence", prof.MaxDivergence)
		if nf := prof.FirstNonFinite; nf != nil {
			isp.Attr("numeric_first_nonfinite",
				fmt.Sprintf("%s:%d in %s (op %s)", prof.File, nf.Line, nf.Proc, nf.Op))
		}
	}
	isp.End()
	if m := t.opts.Metrics; m != nil {
		m.Counter(obs.MetricInterpRuns).Add(1)
		if res != nil {
			m.Counter(obs.MetricInterpSteps).Add(res.Steps)
			m.Counter(obs.MetricInterpCalls).Add(calls)
		}
		if prof != nil {
			m.Counter(obs.MetricNumericOps).Add(prof.Ops)
			m.Counter(obs.MetricNumericCancellations).Add(prof.Cancellations)
			m.Counter(obs.MetricNumericCatastrophic).Add(prof.Catastrophic)
			m.Counter(obs.MetricNumericBranchDiverg).Add(prof.BranchDivergences)
			m.Counter(obs.MetricNumericDiscretizations).Add(prof.Discretizations)
			m.Counter(obs.MetricNumericNonFinite).Add(prof.NonFinite)
			m.Histogram(obs.HistNumericDivergence).Observe(prof.MaxDivergence)
		}
	}
	if runErr != nil {
		if re, ok := runErr.(*interp.RunError); ok && re.Kind == interp.FailCancelled {
			// Hard cancellation cut this run short. A truncated
			// measurement says nothing about the assignment, so it must
			// never be journaled as a variant outcome: unwind as a
			// cancellation instead (a resumed run re-evaluates it).
			panic(search.NewCancelled(context.Cause(t.runCtx)))
		}
		if re, ok := runErr.(*interp.RunError); ok && re.Kind == interp.FailTimeout {
			ev.Status = search.StatusTimeout
		} else {
			ev.Status = search.StatusError
		}
		ev.Detail = runErr.Error()
		ev.Procs = t.procSamples(res, v.WrapperOf)
		return ev
	}

	out, err := t.model.Extract(in)
	if err == nil {
		ev.RelError, err = t.model.Compare(t.baseOut, out)
	}
	if err != nil {
		ev.Status = search.StatusError
		ev.Detail = err.Error()
		ev.Procs = t.procSamples(res, v.WrapperOf)
		return ev
	}

	varTime := t.noiseFor(a.Key()).MedianOfN(t.measuredTime(t.hotspotTime(res, v.WrapperOf), res.Cycles), t.model.NRuns)
	ev.Speedup = t.baseTimeEq1 / varTime
	if ev.RelError <= t.baseline.Threshold {
		ev.Status = search.StatusPass
	} else {
		ev.Status = search.StatusFail
	}
	ev.Detail = fmt.Sprintf("wrappers=%d casts=%d", v.Wrappers, res.Casts)
	ev.Procs = t.procSamples(res, v.WrapperOf)
	return ev
}

// procSamples measures each hotspot procedure that ran: its cycles
// per call (self time plus its generated wrappers') and its calls.
// wrapperOf is the variant's generated-wrapper map; only actual
// generated wrappers count toward a procedure's time.
func (t *Tuner) procSamples(res *interp.Result, wrapperOf map[string]string) []search.ProcSample {
	if res == nil || res.Timers == nil {
		return nil
	}
	regions := res.Timers.Regions()
	wrapSelf := make(map[string]float64)
	for _, r := range regions {
		if callee, ok := wrapperOf[r.Name]; ok {
			wrapSelf[callee] += r.Self
		}
	}
	out := make([]search.ProcSample, 0, len(t.hotspotProcs))
	for _, r := range regions {
		if t.hotspotProcs[r.Name] && r.Calls > 0 {
			perCall := (r.Self + wrapSelf[r.Name]) / float64(r.Calls)
			out = append(out, search.ProcSample{Proc: r.Name, PerCall: perCall, Calls: r.Calls})
		}
	}
	return out
}

// procVariants collects the Fig. 6 data from the evaluation log: for
// each hotspot procedure, the per-call time under each unique
// sub-assignment of that procedure's own variables, taken from the
// first evaluation in log order that measured it (the paper's "unique
// procedure variants"). The log's order is the same at every
// parallelism, so the points are too.
func (t *Tuner) procVariants(evals []*search.Evaluation) map[string][]ProcPoint {
	out := make(map[string][]ProcPoint)
	seen := make(map[string]map[string]bool) // proc -> sub-assignment keys
	for _, ev := range evals {
		for _, s := range ev.Procs {
			// Partial runs (errors, timeouts) bias per-call averages when
			// a procedure was cut off mid-schedule; only keep measurements
			// from procedures that ran (most of) their baseline schedule.
			if ev.Status == search.StatusError || ev.Status == search.StatusTimeout {
				if base := t.baseProcCalls[s.Proc]; base > 0 && s.Calls*5 < base*4 {
					continue
				}
			}
			key, lowered := t.subKey(s.Proc, ev.Assignment)
			if seen[s.Proc] == nil {
				seen[s.Proc] = make(map[string]bool)
			}
			if seen[s.Proc][key] {
				continue
			}
			seen[s.Proc][key] = true
			pt := ProcPoint{
				Key:        key,
				Lowered:    lowered,
				PerCall:    s.PerCall,
				FromIndex:  ev.Index,
				CallsSeen:  s.Calls,
				FailStatus: ev.Status,
			}
			if base := t.baseProcPC[s.Proc]; base > 0 && s.PerCall > 0 {
				pt.Speedup = base / s.PerCall
			}
			out[s.Proc] = append(out[s.Proc], pt)
		}
	}
	return out
}

// subKey canonicalizes the assignment restricted to one procedure's
// atoms (module-level atoms are included in every procedure's key since
// they affect all of them).
func (t *Tuner) subKey(proc string, a transform.Assignment) (string, int) {
	var parts []string
	lowered := 0
	add := func(qnames []string) {
		for _, q := range qnames {
			if a.KindOf(q, 8) == 4 {
				parts = append(parts, q)
				lowered++
			}
		}
	}
	add(t.procAtoms[proc])
	add(t.procAtoms[t.model.Hotspot+".<module>"])
	return strings.Join(parts, ";"), lowered
}

// Fingerprint identifies everything that shapes the evaluation stream:
// the program source, the machine model, the noise seed, and the search
// options. A journal whose fingerprint differs must not be reused —
// its cached evaluations belong to a different experiment. Parallelism
// is deliberately excluded: evaluation logs are identical at every
// parallelism level, so a journal recorded at one level resumes
// correctly at any other.
func (t *Tuner) Fingerprint() string {
	criteria, budget := t.searchParams()
	return journal.Fingerprint(
		"model="+t.model.Name,
		"source="+t.model.Source,
		"machine="+t.machine.Signature(),
		fmt.Sprintf("seed=%d", t.opts.Seed),
		fmt.Sprintf("wholemodel=%v", t.opts.WholeModel),
		fmt.Sprintf("budget=%d", budget),
		fmt.Sprintf("minspeedup=%g", criteria.MinSpeedup),
		fmt.Sprintf("maxrelerror=%g", criteria.MaxRelError),
		fmt.Sprintf("nruns=%d", t.model.NRuns),
		fmt.Sprintf("noiserel=%g", t.model.NoiseRel),
	)
}

// EvaluationBudget returns the run's resolved evaluation budget
// (0 = unlimited) — what the progress reporter shows as the total.
func (t *Tuner) EvaluationBudget() int {
	_, budget := t.searchParams()
	return budget
}

// searchParams resolves the acceptance criteria and evaluation budget.
func (t *Tuner) searchParams() (search.Criteria, int) {
	criteria := search.Criteria{
		MaxRelError: t.baseline.Threshold,
		MinSpeedup:  t.opts.MinSpeedup,
	}
	budget := t.model.BudgetEvals
	if t.opts.MaxEvaluations > 0 {
		budget = t.opts.MaxEvaluations
	} else if t.opts.MaxEvaluations < 0 {
		budget = 0
	}
	return criteria, budget
}

// journalAbort carries a journal write failure out of the search: if
// the crash-safety layer cannot persist an evaluation, continuing to
// burn evaluations that would be lost on a crash defeats its purpose.
type journalAbort struct{ err error }

// journalState is everything openJournal replays from disk: the journal
// itself, warm-start evaluations, and — when the run is supervised —
// the events sidecar with its quarantine and salvage records.
type journalState struct {
	jnl    *journal.Journal
	events *journal.EventLog // nil when the run is not supervised
	warm   map[string]*search.Evaluation
	// salvaged holds evaluations rescued by an aborted prior run's
	// salvage events, for keys not already durable in the journal.
	salvaged map[string]*search.Evaluation
	// quarantined maps poisoned assignment keys to their rendered fault.
	quarantined map[string]string
}

func (s *journalState) close() {
	if s.events != nil {
		s.events.Close()
	}
	s.jnl.Close()
}

// openJournal opens (or creates) the evaluation journal per Options and
// returns it with the warm-start records replayed from it. When
// withEvents is set (a supervised run), the resilience events sidecar
// is opened alongside: on resume its quarantine records keep poisoned
// assignments from re-crashing the search, and its salvage records
// recover evaluations an aborted batch completed but never journaled.
func (t *Tuner) openJournal(withEvents bool) (*journalState, error) {
	hdr := journal.Header{Fingerprint: t.Fingerprint(), Model: t.model.Name}
	var (
		jnl *journal.Journal
		err error
	)
	if t.opts.Resume {
		jnl, err = journal.Open(t.opts.JournalPath, hdr)
	} else {
		jnl, err = journal.Create(t.opts.JournalPath, hdr)
	}
	if err != nil {
		return nil, err
	}
	ckptPath := journal.CheckpointPath(t.opts.JournalPath)
	if t.opts.Resume {
		if ck, ok, err := journal.LoadCheckpoint(ckptPath); err != nil {
			jnl.Close()
			return nil, err
		} else if ok {
			if err := journal.ValidateCheckpoint(ck, jnl); err != nil {
				jnl.Close()
				return nil, err
			}
		}
	}
	warm := make(map[string]*search.Evaluation, len(jnl.Records()))
	for _, r := range jnl.Records() {
		ev, err := r.Evaluation()
		if err != nil {
			jnl.Close()
			return nil, err
		}
		warm[r.AKey] = ev
	}
	js := &journalState{jnl: jnl, warm: warm}
	if !withEvents {
		return js, nil
	}

	epath := journal.EventsPath(t.opts.JournalPath)
	if t.opts.Resume {
		js.events, err = journal.OpenEvents(epath, hdr)
	} else {
		js.events, err = journal.CreateEvents(epath, hdr)
	}
	if err != nil {
		jnl.Close()
		return nil, err
	}
	js.quarantined = js.events.QuarantinedKeys()
	for _, rec := range js.events.SalvagedRecords() {
		if _, durable := warm[rec.AKey]; durable {
			continue // the journal proper wins over salvage events
		}
		ev, err := rec.Evaluation()
		if err != nil {
			js.close()
			return nil, err
		}
		if js.salvaged == nil {
			js.salvaged = make(map[string]*search.Evaluation)
		}
		js.salvaged[rec.AKey] = ev
	}
	return js, nil
}

// Run performs the full search and assembles the result. With
// Options.JournalPath set, the search is crash-safe: every evaluation
// is journaled and fsync'd as it completes, and with Options.Resume a
// prior journal is replayed so no evaluated variant is ever re-run.
//
// ctx bounds the run's lifetime (nil never cancels). Cancellation is
// two-phase: the moment ctx is done no *new* evaluation starts (the
// soft stop), and after Resilience.DrainGrace in-flight evaluations are
// hard-stopped mid-interpretation (with DrainGrace 0 they drain to
// completion). Either way the search unwinds in an orderly fashion: the
// journal keeps the completed deterministic prefix, completed siblings
// are salvaged to the events sidecar, the stop itself is recorded as a
// sidecar "cancelled" event (never in the journal proper), and Run
// returns the partial Result together with the *search.Cancelled error.
// A -resume run completes the search and produces a journal
// byte-identical to an uninterrupted run's.
//
// When Resilience.Supervises (or on a fleet) the evaluator runs under
// a resilience.Supervised wrapper. If the supervisor aborts the search —
// circuit breaker tripped or quarantine budget exhausted — Run returns
// the partial Result *and* the *resilience.AbortError: the completed
// work (log, journal, best variant so far) is preserved for graceful
// degradation, while the error signals that the search did not finish.
func (t *Tuner) Run(ctx context.Context) (*Result, error) {
	criteria, budget := t.searchParams()
	start := time.Now()

	// The run's root trace span. Everything below hangs off it, so the
	// per-phase self times of the trace telescope to its duration.
	root := t.opts.Trace.Root(obs.SpanTune)
	root.Attr("model", t.model.Name)
	root.AttrInt("budget", int64(budget))
	defer root.End()
	// A finished tune's caller may keep its Tuner (and Result) long
	// after the last run: hold no module arrays for it.
	defer t.pool.Clear()

	// Two-phase cancellation: ctx itself is the soft stop (gates new
	// evaluations in the search layer); the hard context reaches the
	// interpreter and fires DrainGrace later, cutting in-flight
	// evaluations short. With DrainGrace 0 there is no hard stop.
	t.runCtx = nil
	if grace := t.opts.Resilience.DrainGrace; ctx != nil && grace > 0 {
		hard, cancelHard := context.WithCancelCause(context.Background())
		stop := make(chan struct{})
		defer close(stop)
		defer cancelHard(nil)
		go func() {
			select {
			case <-ctx.Done():
				timer := time.NewTimer(grace)
				defer timer.Stop()
				select {
				case <-timer.C:
					cancelHard(context.Cause(ctx))
				case <-stop:
				}
			case <-stop:
			}
		}()
		t.runCtx = hard
	}
	// The log is pre-created (rather than left to the search) so the
	// completed evaluations survive a supervised abort's unwind and can
	// back the partial report.
	log := search.NewLog()
	sopts := search.Options{
		Criteria:       criteria,
		MaxEvaluations: budget,
		Parallelism:    t.opts.Parallelism,
		Log:            log,
		Span:           root,
		Metrics:        t.opts.Metrics,
	}
	supervising := t.opts.supervising()

	var dlog *ledger.DecisionLog
	if t.opts.DecisionPath != "" {
		dl, err := ledger.CreateDecisionLog(t.opts.DecisionPath, t.Fingerprint(), t.model.Name)
		if err != nil {
			return nil, err
		}
		dl.SetMetrics(t.opts.Metrics)
		defer dl.Close() // safety net; the explicit Close below is the real one
		sopts.Decisions = dl
		dlog = dl
	}

	resumed, salvaged := 0, 0
	var jnl *journal.Journal
	var events *journal.EventLog
	var preQuarantined map[string]string
	if t.opts.JournalPath != "" {
		js, err := t.openJournal(supervising)
		if err != nil {
			return nil, err
		}
		defer js.close()
		jnl, events, preQuarantined = js.jnl, js.events, js.quarantined
		resumed = len(js.warm)
		salvaged = len(js.salvaged)
		fp := jnl.Header().Fingerprint
		ckptPath := journal.CheckpointPath(t.opts.JournalPath)
		sopts.Warm = js.warm
		sopts.Salvaged = js.salvaged
		sopts.OnAdd = func(ev *search.Evaluation, replayed bool, sp *obs.Span) {
			if !replayed {
				jsp := sp.Child(obs.SpanJournalAppend)
				jsp.AttrInt("index", int64(ev.Index))
				err := jnl.Append(journal.FromEvaluation(fp, ev))
				jsp.End()
				if err != nil {
					panic(journalAbort{err})
				}
				if m := t.opts.Metrics; m != nil {
					m.Counter(obs.MetricJournalAppends).Add(1)
				}
			}
			// The checkpoint is rewritten after the journal append is
			// durable, so it can lag the journal but never lead it.
			csp := sp.Child(obs.SpanJournalCheckpoint)
			csp.AttrInt("index", int64(ev.Index))
			err := journal.SaveCheckpoint(ckptPath, journal.Checkpoint{
				Fingerprint: fp, Model: t.model.Name, Evaluations: ev.Index,
			})
			csp.End()
			if err != nil {
				panic(journalAbort{err})
			}
		}
		if events != nil {
			ev := events
			sopts.OnSalvage = func(e *search.Evaluation) {
				rec := journal.FromEvaluation(fp, e)
				if err := ev.Append(journal.EventRecord{
					Type: journal.EventSalvaged, AKey: rec.AKey, Rec: &rec,
				}); err != nil {
					panic(journalAbort{err})
				}
			}
		}
	}

	if progress := t.opts.Progress; progress != nil {
		// Progress follows the log, not the evaluators: adds arrive one
		// at a time in deterministic order, whoever evaluated them.
		journalAdd := sopts.OnAdd
		sopts.OnAdd = func(ev *search.Evaluation, replayed bool, sp *obs.Span) {
			if journalAdd != nil {
				journalAdd(ev, replayed, sp)
			}
			if !replayed {
				progress(ev)
			}
		}
	}

	evaluator := search.Evaluator(t)
	if t.opts.WrapEvaluator != nil {
		evaluator = t.opts.WrapEvaluator(evaluator)
	}
	if coord := t.opts.Fleet; coord != nil {
		rt := fleet.Runtime{
			// The wrapped in-process evaluator is the degrade fallback, so
			// a collapsed pool changes where evaluations run but never what
			// they compute.
			Local:       evaluator,
			Fingerprint: t.Fingerprint(),
			Metrics:     t.opts.Metrics,
			Trace:       t.opts.Trace,
		}
		if events != nil {
			ev := events
			rt.OnEvent = func(e fleet.Event) {
				// Fleet events are telemetry, not resume state (the
				// resume-critical quarantine/salvage records travel the
				// supervisor path below with journalAbort semantics), and
				// they fire on coordinator goroutines where a panic would
				// not unwind the search — so appends are best-effort.
				rec := journal.EventRecord{
					Type: e.Type, AKey: e.Key, Attempt: e.Attempt,
					Fault: e.Detail, Kind: e.Kind,
				}
				rec.SetWorker(e.Worker)
				_ = ev.Append(rec)
			}
		}
		if err := coord.Start(t.runCtx, rt); err != nil {
			return nil, err
		}
		defer coord.Close()
		evaluator = coord
	}
	var sup *resilience.Supervised
	if supervising {
		pol := t.opts.Resilience
		pol.Backoff.Seed = t.opts.Seed
		if t.opts.Fleet != nil && pol.Retries == 0 && len(pol.RetriesByKind) == 0 {
			// A fleet with no retry budget would quarantine an assignment
			// on its first worker death; give it the standard per-kind
			// budgets so routine kills become lease reassignments.
			pol.Retries = DefaultFleetRetries
			pol.RetriesByKind = resilience.DefaultRetryBudgets(DefaultFleetRetries)
		}
		sup = &resilience.Supervised{Inner: evaluator, Policy: pol, Metrics: t.opts.Metrics}
		if events != nil {
			ev := events
			sup.OnEvent = func(e resilience.Event) {
				if err := ev.Append(journal.EventRecord{
					Type: string(e.Type), AKey: e.Key, Attempt: e.Attempt,
					Fault: e.Fault, Kind: e.Kind, BackoffNS: int64(e.Backoff),
				}); err != nil {
					panic(journalAbort{err})
				}
			}
		}
		for k, fault := range preQuarantined {
			sup.Quarantine(k, fault)
		}
		evaluator = sup
	}

	outcome, abortErr, cancelErr, err := func() (out *search.Outcome, abort *resilience.AbortError, cancelled *search.Cancelled, err error) {
		defer func() {
			if r := recover(); r != nil {
				if ja, ok := r.(journalAbort); ok {
					err = ja.err
					return
				}
				if ae, ok := r.(*resilience.AbortError); ok {
					abort = ae
					return
				}
				if ce, ok := r.(*search.Cancelled); ok {
					cancelled = ce
					return
				}
				panic(r) // genuine crash (e.g. injected fault): propagate
			}
		}()
		return search.Precimonious(ctx, evaluator, t.atoms, sopts), nil, nil, nil
	}()
	if err != nil {
		return nil, err
	}
	if abortErr != nil || cancelErr != nil {
		// Graceful degradation: the pre-created log holds everything that
		// completed (and was journaled) before the abort or stop.
		outcome = &search.Outcome{Log: log, Converged: false}
	}
	t.log = outcome.Log

	// The orderly-shutdown record goes to the events sidecar, never the
	// journal proper — an interrupted-then-resumed run must reproduce the
	// uninterrupted journal byte for byte. An unsupervised run has no
	// sidecar open; one is opened (or created) just for this record, and
	// a failure to write it is tolerated: the journal and checkpoint
	// already carry everything resume needs.
	if cancelErr != nil && jnl != nil {
		rec := journal.EventRecord{Type: journal.EventCancelled, Fault: cancelErr.Error()}
		if events != nil {
			_ = events.Append(rec)
		} else if e, eerr := journal.OpenEvents(journal.EventsPath(t.opts.JournalPath), jnl.Header()); eerr == nil {
			_ = e.Append(rec)
			e.Close()
		}
	}

	// The Done checkpoint is skipped on abort or cancellation: the search
	// is not done, and a resumed run must pick up where this one stopped.
	if jnl != nil && abortErr == nil && cancelErr == nil {
		if err := journal.SaveCheckpoint(journal.CheckpointPath(t.opts.JournalPath), journal.Checkpoint{
			Fingerprint: jnl.Header().Fingerprint,
			Model:       t.model.Name,
			Evaluations: len(outcome.Log.Evals),
			Done:        true,
			Converged:   outcome.Converged,
			Minimal:     append([]string(nil), outcome.Minimal...),
		}); err != nil {
			return nil, err
		}
	}

	// Settle the fleet before snapshotting anything: Close is idempotent
	// (the deferred Close becomes a no-op), and waiting for the worker
	// loops here makes the Stats and Metrics snapshots final — late
	// results and restarts in flight at search end are counted.
	var fleetStats *fleet.Stats
	if coord := t.opts.Fleet; coord != nil {
		coord.Close()
		st := coord.Stats()
		fleetStats = &st
	}

	// Close the decision log before snapshotting metrics or archiving
	// the manifest: the digest must cover the complete stream, and a
	// sidecar write failure should surface on an otherwise-successful
	// run rather than vanish (an aborted/cancelled run's partial result
	// matters more than its telemetry, so the error is dropped there).
	var decisionDigest string
	var decisionEvents int64
	if dlog != nil {
		derr := dlog.Close()
		decisionDigest = dlog.Digest()
		decisionEvents = dlog.Events()
		if derr != nil && abortErr == nil && cancelErr == nil {
			return nil, derr
		}
	}

	result := &Result{
		Model:        t.model,
		Options:      t.opts,
		Baseline:     t.baseline,
		Outcome:      outcome,
		Criteria:     criteria,
		ProcVariants: t.procVariants(outcome.Log.Evals),
		Resumed:      resumed,
		Salvaged:     salvaged,
		Aborted:      abortErr,
		Cancelled:    cancelErr,
		Fleet:        fleetStats,
	}
	if sup != nil {
		st := sup.Stats()
		result.Resilience = &st
	}
	if t.opts.Metrics != nil {
		snap := t.opts.Metrics.Snapshot()
		result.Metrics = &snap
	}
	// Archive the run manifest. Aborted and cancelled runs archive too —
	// a ledger that only remembers successes can't explain a regression —
	// but like the decision sidecar, an archive failure only fails an
	// otherwise-successful run.
	if t.opts.LedgerDir != "" {
		m := t.buildManifest(result, start, abortErr, cancelErr, decisionDigest, decisionEvents)
		_, lerr := ledger.Open(t.opts.LedgerDir).Put(m)
		if lerr != nil && abortErr == nil && cancelErr == nil {
			return nil, lerr
		}
	}

	if abortErr != nil {
		return result, abortErr
	}
	if cancelErr != nil {
		return result, cancelErr
	}
	return result, nil
}

// buildManifest assembles the run's ledger manifest from the completed
// Result.
func (t *Tuner) buildManifest(res *Result, start time.Time, abortErr *resilience.AbortError, cancelErr *search.Cancelled, decisionDigest string, decisionEvents int64) *ledger.Manifest {
	criteria, budget := t.searchParams()
	m := &ledger.Manifest{
		Kind: ledger.ManifestKind, V: ledger.ManifestVersion,
		Model:       t.model.Name,
		Fingerprint: t.Fingerprint(),
		// The machine *name* is for humans; the full parameter signature
		// is already folded into the fingerprint above.
		Machine:     t.machine.Name,
		Seed:        t.opts.Seed,
		WholeModel:  t.opts.WholeModel,
		Budget:      budget,
		MaxRelError: criteria.MaxRelError,
		MinSpeedup:  criteria.MinSpeedup,
		Parallelism: t.opts.Parallelism,

		StartUnixNS: start.UnixNano(),
		WallMS:      time.Since(start).Milliseconds(),

		Outcome:      "completed",
		Converged:    res.Outcome.Converged,
		Evaluations:  len(res.Outcome.Log.Evals),
		Resumed:      res.Resumed,
		Salvaged:     res.Salvaged,
		TotalAtoms:   len(t.atoms),
		MinimalAtoms: len(res.Outcome.Minimal),

		Fleet:   res.Fleet,
		Metrics: res.Metrics,

		JournalPath:    t.opts.JournalPath,
		DecisionPath:   t.opts.DecisionPath,
		DecisionDigest: decisionDigest,
		DecisionEvents: decisionEvents,
	}
	if abortErr != nil {
		m.Outcome = "aborted"
	}
	if cancelErr != nil {
		m.Outcome = "cancelled"
	}
	if len(res.Outcome.Log.Evals) > 0 {
		m.Statuses = make(map[string]int)
		for _, ev := range res.Outcome.Log.Evals {
			m.Statuses[ev.Status.String()]++
		}
	}
	if best := res.Outcome.Log.Best(criteria); best != nil {
		m.BestSpeedup = best.Speedup
		m.BestRelError = best.RelError
		m.BestLowered = best.Lowered
	}
	if res.Metrics != nil {
		m.Quantiles = res.Metrics.QuantileSummary()
	}
	return m
}
