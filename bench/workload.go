package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ledger"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/transform"
)

// workload is one closed-loop benchmark input: one tune at a time, from
// one process, with no more threads than the machine has cores. The seed
// only picks the tuner's noise seed(s).
type workload struct {
	Name  string
	Model string
	// Budget caps distinct evaluations per tune (0 keeps the model's).
	Budget int
	// Par is the tune's evaluation parallelism.
	Par int
	// Tunes is the number of tunes in one rep, seeded seed, seed+1, ...
	Tunes int
	// MinReps is the least number of reps measured, however long they take.
	MinReps int
	// KillAfter, if positive, cancels each tune once this many evaluations
	// have completed, then resumes it from its journal.
	KillAfter int
	// Workers, if positive, evaluates through this many `prose worker`
	// processes.
	Workers int
	// Ledger streams search decisions and archives each tune in a run
	// ledger, as `prose tune -ledger` does.
	Ledger bool
}

// workloads stress different layers, so that an optimisation of one layer
// shows on one workload and leaves another unchanged.
var workloads = []workload{
	// The paper's headline model: call-heavy, ~124k allocations per
	// interpreter run from copy-out. VM call and copy-out work shows here.
	{Name: "mpas", Model: "mpas-a", Par: 1, Tunes: 1, MinReps: 3},
	// The paper's 12-hour kill: the journal is written by a cancelled
	// tune and replayed by a resumed one. Array-heavy, and its 32-bit NaN
	// variants end early. Par 1, because MOM6 at par 2 spreads 11%. Two
	// reps of about 13 s; a seed without a golden digest adds an
	// uninterrupted reference tune of about the same length.
	{Name: "mom6-resume", Model: "mom6", Budget: 24, Par: 1, Tunes: 1, MinReps: 2, KillAfter: 12},
	// Many small scalar tunes: set-up, compile, journal, decision-log and
	// ledger costs take their largest share here, and VM array or
	// copy-out work should leave it unchanged. Reps of 16 seeds, so that
	// at a seed without a golden digest later reps check the first, and
	// three of them, so that the median rep discards one slow rep.
	{Name: "funarc-sweep", Model: "funarc", Par: 1, Tunes: 16, MinReps: 3, Ledger: true},
	// The only workload through internal/fleet: worker spawn, leases,
	// frames and each worker's own set-up. Its tunes keep both cores busy,
	// so its gauge reads both cores at once, and only between tunes.
	{Name: "adcirc-fleet", Model: "adcirc", Par: 2, Tunes: 1, MinReps: 7, Workers: 2},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// digest is what a tune must reproduce: its journal bytes and its result.
type digest struct {
	Journal  string  `json:"journal_sha256"`
	Evals    int     `json:"evals"`
	Speedup  float64 `json:"best_speedup"`
	RelError float64 `json:"best_rel_error"`
	Lowered  int     `json:"best_lowered"`
}

func digestOf(res *core.Result, journalPath string) (digest, error) {
	raw, err := os.ReadFile(journalPath)
	if err != nil {
		return digest{}, err
	}
	sum := sha256.Sum256(raw)
	d := digest{Journal: hex.EncodeToString(sum[:]), Evals: len(res.Outcome.Log.Evals)}
	if best := res.Outcome.Log.Best(res.Criteria); best != nil {
		d.Speedup, d.RelError, d.Lowered = best.Speedup, best.RelError, best.Lowered
	}
	return d, nil
}

func goldenKey(workload string, seed int64) string {
	return fmt.Sprintf("%s/%d", workload, seed)
}

func parseGolden(raw []byte) (map[string]digest, error) {
	var g map[string]digest
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return g, nil
}

// runConfig is one workload run's settings.
type runConfig struct {
	Seed int64
	// Seconds is the least time spent measuring reps.
	Seconds float64
	// TraceDir, if set, adds a traced rep and a layer-by-layer replay,
	// and receives the trace as <workload>.json.
	TraceDir string
	// Prose is the prose CLI that fleet workers run.
	Prose string
	// Work holds journals and ledgers; the run leaves it to the caller.
	Work string
	// Golden holds reference digests by goldenKey; see
	// harness.references for a tune seed missing from it.
	Golden map[string]digest
}

// outcome is a workload run's raw result, passed from the workload
// process to the parent.
type outcome struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"values"`
	Notes     map[string]string  `json:"notes,omitempty"`
}

type harness struct {
	w       workload
	m       *models.Model
	cfg     runConfig
	refs    map[int64]digest
	out     *outcome
	ntune   int
	kernels []*kernel // the gauge's, one per evaluation slot
}

// tuneRun is one measured tune; a killed-and-resumed tune is one tuneRun
// covering both legs.
type tuneRun struct {
	seed      int64
	setup     []time.Duration // one core.New per leg
	run       time.Duration   // Run wall time, summed over legs, less gauge readings
	scale     float64         // the tune's gauge scale: times it to the reference host speed
	fresh     int             // evaluations run, not replayed from a journal
	mallocs   uint64
	bytes     uint64
	gcs       uint32
	gcPause   time.Duration
	firstEval time.Duration // last leg: Run start to its first evaluation
	res       *core.Result
	tuner     *core.Tuner
	dir       string
	dig       digest
}

func (r *tuneRun) journal() string { return filepath.Join(r.dir, "journal.jsonl") }

// countingEval wraps the tuner's evaluator: it notes when the first
// evaluation starts, cancels the tune after a set number of them and, with
// a gauge, reads it after an evaluation at most every gaugeEvery.
type countingEval struct {
	inner  search.Evaluator
	after  int64
	cancel context.CancelFunc
	gauge  *gauge
	n      atomic.Int64
	first  atomic.Int64 // UnixNano of the first call
}

func (c *countingEval) Evaluate(a transform.Assignment) *search.Evaluation {
	return c.EvaluateSpan(nil, a)
}

func (c *countingEval) EvaluateSpan(sp *obs.Span, a transform.Assignment) *search.Evaluation {
	c.first.CompareAndSwap(0, time.Now().UnixNano())
	ev := search.Evaluate(c.inner, sp, a)
	if n := c.n.Add(1); n == c.after {
		c.cancel()
	}
	if c.gauge != nil {
		c.gauge.readEvery()
	}
	return ev
}

func (h *harness) newFleet(seed int64) (*fleet.Coordinator, error) {
	if h.cfg.Prose == "" {
		return nil, errors.New("a fleet workload needs the prose CLI (-prose)")
	}
	return fleet.New(fleet.Config{
		Workers: h.w.Workers,
		Spawn: fleet.Command(h.cfg.Prose, "worker", "-model", h.m.Name,
			fmt.Sprintf("-seed=%d", seed), fmt.Sprintf("-budget=%d", h.w.Budget)),
	})
}

func (h *harness) tuneDir() (string, error) {
	h.ntune++
	dir := filepath.Join(h.cfg.Work, fmt.Sprintf("tune-%d", h.ntune))
	return dir, os.MkdirAll(dir, 0o755)
}

// tune runs one tune of the workload with a fresh journal, timing
// core.New and Run and counting Run's allocations. tr, if set, traces it.
//
// The gauge is read before each core.New and after each Run and, in an
// untraced tune at par 1, inside Run after an evaluation at most every
// gaugeEvery. Readings inside Run are taken out of its time. At par 2
// they would compete with the evaluations for the two cores, and in a
// traced tune they would land inside the eval spans.
func (h *harness) tune(seed int64, tr *obs.Tracer, withLedger bool) (*tuneRun, error) {
	dir, err := h.tuneDir()
	if err != nil {
		return nil, err
	}
	r := &tuneRun{seed: seed, dir: dir}
	opts := core.Options{
		Seed: seed, MaxEvaluations: h.w.Budget, Parallelism: h.w.Par,
		JournalPath: r.journal(), Trace: tr,
	}
	if withLedger {
		opts.LedgerDir = filepath.Join(h.cfg.Work, "ledger")
		opts.DecisionPath = ledger.DecisionPath(opts.JournalPath)
	}
	legs := 1
	if h.w.KillAfter > 0 {
		legs = 2
	}
	g := newGauge(h.kernels)
	runtime.GC()
	for leg := 0; leg < legs; leg++ {
		killed := leg < legs-1
		opts.Resume = leg > 0
		ctx, cancel := context.WithCancel(context.Background())
		ce := &countingEval{cancel: cancel}
		if killed {
			ce.after = int64(h.w.KillAfter)
		}
		if h.w.Par == 1 && tr == nil {
			ce.gauge = g
		}
		opts.WrapEvaluator = func(inner search.Evaluator) search.Evaluator {
			ce.inner = inner
			return ce
		}
		if h.w.Workers > 0 {
			if opts.Fleet, err = h.newFleet(seed); err != nil {
				cancel()
				return nil, err
			}
		}
		g.read()
		t0 := time.Now()
		t, err := core.New(h.m, opts)
		r.setup = append(r.setup, time.Since(t0))
		if err != nil {
			cancel()
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		spent := g.spentReading()
		start := time.Now()
		res, err := t.Run(ctx)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		cancel()
		wall -= g.spentReading() - spent
		g.read()

		r.run += wall
		r.mallocs += after.Mallocs - before.Mallocs
		r.bytes += after.TotalAlloc - before.TotalAlloc
		r.gcs += after.NumGC - before.NumGC
		r.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
		if res != nil {
			r.fresh += len(res.Outcome.Log.Evals) - res.Resumed
		}
		if killed {
			var c *search.Cancelled
			if !errors.As(err, &c) || len(res.Outcome.Log.Evals) != h.w.KillAfter {
				return nil, fmt.Errorf("seed %d: tune was to be cancelled after %d evaluations, got error %v", seed, h.w.KillAfter, err)
			}
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		if f := ce.first.Load(); f != 0 {
			r.firstEval = time.Duration(f - start.UnixNano())
		}
		r.res, r.tuner = res, t
	}
	r.scale = g.scale()
	r.dig, err = digestOf(r.res, r.journal())
	return r, err
}

// selfReferenced reports whether the workload's tunes are themselves
// uninterrupted in-process tunes. For a seed missing from golden.json such
// a workload's first measured tune is the reference, and later tunes of
// that seed must match it.
func (w workload) selfReferenced() bool { return w.KillAfter == 0 && w.Workers == 0 }

// references sets the digest each tune seed of the run must reproduce: the
// golden one, or else that of an uninterrupted in-process tune at par 1,
// run here untimed unless the workload is self-referenced.
func (h *harness) references() error {
	for i := 0; i < h.w.Tunes; i++ {
		seed := h.cfg.Seed + int64(i)
		if d, ok := h.cfg.Golden[goldenKey(h.w.Name, seed)]; ok {
			h.refs[seed] = d
			continue
		}
		if h.w.selfReferenced() {
			continue
		}
		d, err := referenceTune(h.m, h.w.Budget, seed, h.cfg.Work)
		if err != nil {
			return err
		}
		h.refs[seed] = d
	}
	return nil
}

func referenceTune(m *models.Model, budget int, seed int64, work string) (digest, error) {
	dir, err := os.MkdirTemp(work, "ref-")
	if err != nil {
		return digest{}, err
	}
	defer os.RemoveAll(dir)
	jpath := filepath.Join(dir, "journal.jsonl")
	t, err := core.New(m, core.Options{Seed: seed, MaxEvaluations: budget, Parallelism: 1, JournalPath: jpath})
	if err != nil {
		return digest{}, err
	}
	res, err := t.Run(context.Background())
	if err != nil {
		return digest{}, fmt.Errorf("reference tune %s seed %d: %w", m.Name, seed, err)
	}
	return digestOf(res, jpath)
}

// check counts one attempted tune, and a failure when it errored or its
// digest differs from the reference. A seed without a reference takes the
// tune's own digest as its reference. It returns the tune if it passed.
func (h *harness) check(r *tuneRun, err error) *tuneRun {
	h.out.Attempted++
	if err == nil {
		ref, ok := h.refs[r.seed]
		if !ok {
			h.refs[r.seed], ref = r.dig, r.dig
		}
		if r.dig != ref {
			err = fmt.Errorf("seed %d: got %+v, reference %+v", r.seed, r.dig, ref)
		}
	}
	if err != nil {
		h.out.Failed++
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %v\n", h.w.Name, err)
		return nil
	}
	return r
}

// sweep runs one rep of the workload and returns its passing tunes.
func (h *harness) sweep(tr *obs.Tracer, withLedger bool) []*tuneRun {
	var runs []*tuneRun
	for i := 0; i < h.w.Tunes; i++ {
		if r := h.check(h.tune(h.cfg.Seed+int64(i), tr, withLedger)); r != nil {
			runs = append(runs, r)
		}
	}
	return runs
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// minSetups is the least number of set-up samples behind setup_s.
const minSetups = 5

// runWorkload measures one workload: reference digests first (untimed),
// then reps until both MinReps and cfg.Seconds are reached, then, with
// cfg.TraceDir set, a traced rep replayed layer by layer.
//
// Each rep gives one sample of tune_s and of setup_s: its mean Run and
// core.New time per tune, each tune's times scaled by its gauge. Timed
// metrics are medians of these samples.
func runWorkload(w workload, cfg runConfig) (*outcome, error) {
	m, err := models.ByName(w.Model)
	if err != nil {
		return nil, err
	}
	h := &harness{w: w, m: m, cfg: cfg, refs: make(map[int64]digest),
		out:     &outcome{Values: make(map[string]float64), Notes: make(map[string]string)},
		kernels: newKernels(w.Par)}
	if err := h.references(); err != nil {
		return nil, err
	}

	var runs []*tuneRun
	var repRuns, tunes, walls, setups []float64
	start := time.Now()
	for rep := 0; rep < w.MinReps || time.Since(start).Seconds() < cfg.Seconds; rep++ {
		var run, wall, setup float64
		var n, nsetup int
		for _, r := range h.sweep(nil, w.Ledger) {
			run += r.run.Seconds() * r.scale
			wall += r.run.Seconds()
			for _, s := range r.setup {
				setup += s.Seconds() * r.scale
				nsetup++
			}
			n++
			runs = append(runs, r)
			os.RemoveAll(r.dir)
		}
		if n > 0 {
			repRuns = append(repRuns, run)
			tunes = append(tunes, run/float64(n))
			walls = append(walls, wall/float64(n))
			setups = append(setups, setup/float64(nsetup))
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: every tune failed", w.Name)
	}

	var run float64
	var fresh int
	var allocs, bytes, gcs, pauses, firsts, readings []float64
	var expired, restarts, retries int64
	for _, r := range runs {
		run += r.run.Seconds() * r.scale
		fresh += r.fresh
		allocs = append(allocs, float64(r.mallocs))
		bytes = append(bytes, float64(r.bytes))
		gcs = append(gcs, float64(r.gcs))
		pauses = append(pauses, millis(r.gcPause))
		firsts = append(firsts, millis(r.firstEval))
		readings = append(readings, millis(refGauge)/r.scale)
		if st := r.res.Fleet; st != nil {
			expired += st.Expired
			restarts += st.Restarts
		}
		if st := r.res.Resilience; st != nil {
			retries += st.Retried
		}
	}
	// Too few reps for setup_s: each further sample sets up each tune of a
	// rep once, without a journal, and is their mean, scaled by a gauge
	// read around each set-up.
	for len(setups) < minSetups {
		g := newGauge(h.kernels)
		var setup time.Duration
		for i := 0; i < w.Tunes; i++ {
			g.read()
			t0 := time.Now()
			if _, err := core.New(m, core.Options{Seed: cfg.Seed + int64(i), MaxEvaluations: w.Budget, Parallelism: w.Par}); err != nil {
				return nil, err
			}
			setup += time.Since(t0)
		}
		g.read()
		setups = append(setups, setup.Seconds()/float64(w.Tunes)*g.scale())
	}

	v := h.out.Values
	v["tune_s"] = median(tunes)
	v["setup_s"] = median(setups)
	v["evals_per_s"] = float64(fresh) / run
	v["allocs_per_tune"] = median(allocs)
	v["alloc_mb_per_tune"] = median(bytes) / 1e6
	v["gc.cycles_per_tune"] = median(gcs)
	v["gc.pause_ms_per_tune"] = median(pauses)
	v["journal.resume_to_first_eval_ms"] = 0
	if w.KillAfter > 0 {
		v["journal.resume_to_first_eval_ms"] = median(firsts)
	}
	v["fleet.expired"] = float64(expired)
	v["fleet.restarts"] = float64(restarts)
	v["resilience.retries"] = float64(retries)
	v["bench.gauge_ms"] = median(readings)
	v["bench.tune_wall_s"] = median(walls)

	if cfg.TraceDir != "" {
		if err := h.traced(median(repRuns), median(tunes)); err != nil {
			return nil, err
		}
	}
	return h.out, nil
}
