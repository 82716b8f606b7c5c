package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	ft "repro/internal/fortran"
	"repro/internal/interp"
	"repro/internal/journal"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/search"
	"repro/internal/transform"
)

// cost is what one or more calls into a layer took.
type cost struct {
	dur    time.Duration
	allocs uint64
	bytes  uint64
}

func (c *cost) add(o cost) {
	c.dur += o.dur
	c.allocs += o.allocs
	c.bytes += o.bytes
}

// allocSamples are the runtime's cumulative allocation counters. Unlike
// runtime.ReadMemStats they are read without stopping the world, which
// measurably slowed the call timed next.
var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readAllocs() (objects, bytes uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64() + allocSamples[1].Value.Uint64(), allocSamples[2].Value.Uint64()
}

// measure calls f under a "replay.<layer>" span and returns its wall time
// and allocations. Replays run on one goroutine, so the allocation deltas
// belong to f.
func measure(parent *obs.Span, layer string, f func() error) (cost, error) {
	sp := parent.Child("replay." + layer)
	m0, b0 := readAllocs()
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	m1, b1 := readAllocs()
	sp.End()
	return cost{dur: d, allocs: m1 - m0, bytes: b1 - b0}, err
}

// setupReplays is how many times the set-up layers are replayed; each
// layer reports its median.
const setupReplays = 3

// replaySetup repeats what core.New does, one layer at a time: parse,
// analyze, the profiled baseline run and, for a model whose threshold
// comes from the uniform 32-bit build, that build's run. It returns each
// layer's median time in ms and the baseline output.
func replaySetup(tr *obs.Tracer, m *models.Model, machine *perfmodel.Model) (map[string]float64, []float64, error) {
	layers := []string{"fortran.parse", "fortran.analyze", "core.baseline_run", "core.threshold_run"}
	samples := make(map[string][]float64)
	var baseOut []float64
	for i := 0; i < setupReplays; i++ {
		runtime.GC()
		sp := tr.Root("bench.setup")
		var prog *ft.Program
		steps := map[string]func() error{
			"fortran.parse": func() (err error) {
				prog, err = ft.ParseFile(m.Name+".ft", m.Source)
				return err
			},
			"fortran.analyze": func() error {
				_, err := ft.Analyze(prog, ft.Options{})
				return err
			},
			"core.baseline_run": func() error {
				in, err := interp.New(prog, interp.Config{Model: machine, TrapNonFinite: true, Profile: true})
				if err != nil {
					return err
				}
				if _, err := in.Run(); err != nil {
					return err
				}
				baseOut, err = m.Extract(in)
				return err
			},
			"core.threshold_run": func() error {
				v, err := transform.Apply(prog, transform.Uniform(transform.Atoms(prog), 4))
				if err != nil {
					return err
				}
				in, err := interp.New(v.Prog, interp.Config{Model: machine, TrapNonFinite: true})
				if err != nil {
					return err
				}
				if _, err := in.Run(); err != nil {
					return err
				}
				out, err := m.Extract(in)
				if err != nil {
					return err
				}
				_, err = m.Compare(baseOut, out)
				return err
			},
		}
		for _, l := range layers {
			if l == "core.threshold_run" && m.ThresholdMode != models.ThresholdUniform32 {
				samples[l] = append(samples[l], 0)
				continue
			}
			c, err := measure(sp, l, steps[l])
			if err != nil {
				return nil, nil, fmt.Errorf("set-up replay %s: %w", l, err)
			}
			samples[l] = append(samples[l], millis(c.dur))
		}
		sp.End()
	}
	out := make(map[string]float64)
	for _, l := range layers {
		out[l] = median(samples[l])
	}
	return out, baseOut, nil
}

// evalLayers are the layers of one evaluation, in call order.
var evalLayers = []string{"transform.apply", "interp.compile", "interp.run", "models.compare"}

// replayEval repeats one evaluation of tuner t twice: whole, through
// t.Evaluate, into acc["core.eval"], then layer by layer, with the
// interpreter configured as the tuner configures it. Timing the two back
// to back leaves the host's load the same for both. It checks that both
// end the way the tune's evaluation did, and returns the steps run.
func replayEval(parent *obs.Span, t *core.Tuner, m *models.Model, machine *perfmodel.Model,
	baseOut []float64, ev *search.Evaluation, acc map[string]*cost) (int64, error) {
	sp := parent.Child("replay.eval")
	defer sp.End()
	var whole *search.Evaluation
	c, _ := measure(sp, "core.eval", func() error {
		whole = t.Evaluate(ev.Assignment)
		return nil
	})
	acc["core.eval"].add(c)
	if whole.Status != ev.Status || whole.Speedup != ev.Speedup || whole.RelError != ev.RelError {
		return 0, fmt.Errorf("re-evaluation of evaluation %d: got %s %g %g, tune had %s %g %g",
			ev.Index, whole.Status, whole.Speedup, whole.RelError, ev.Status, ev.Speedup, ev.RelError)
	}
	var (
		v     *transform.Result
		in    *interp.Interp
		res   *interp.Result
		rel   float64
		steps int64
	)
	calls := map[string]func() error{
		"transform.apply": func() (err error) {
			v, err = transform.Apply(t.Program(), ev.Assignment)
			return err
		},
		"interp.compile": func() (err error) {
			in, err = interp.New(v.Prog, interp.Config{
				Model: machine, TrapNonFinite: true, Profile: true,
				CycleBudget: 3 * t.BaselineInfo().TotalCycles,
			})
			return err
		},
		"interp.run": func() (err error) {
			res, err = in.Run()
			if res != nil {
				steps = res.Steps
			}
			return err
		},
		"models.compare": func() error {
			out, err := m.Extract(in)
			if err != nil {
				return err
			}
			rel, err = m.Compare(baseOut, out)
			return err
		},
	}
	completed := ev.Status == search.StatusPass || ev.Status == search.StatusFail
	for _, l := range evalLayers {
		c, err := measure(sp, l, calls[l])
		acc[l].add(c)
		if err != nil {
			if completed {
				return steps, fmt.Errorf("replay of evaluation %d (%s) failed in %s: %v", ev.Index, ev.Status, l, err)
			}
			return steps, nil
		}
	}
	if !completed || rel != ev.RelError {
		return steps, fmt.Errorf("replay of evaluation %d: status %s rel error %g, replay completed with rel error %g",
			ev.Index, ev.Status, ev.RelError, rel)
	}
	return steps, nil
}

// replayJournal re-appends a tune's journal records into a fresh fsync'd
// journal, reopens it, and checks that the copy is byte-identical.
func replayJournal(parent *obs.Span, r *tuneRun, model string) (appendC, openC cost, err error) {
	hdr := journal.Header{Fingerprint: r.tuner.Fingerprint(), Model: model}
	src, err := journal.Open(r.journal(), hdr)
	if err != nil {
		return cost{}, cost{}, err
	}
	recs := src.Records()
	src.Close()

	copyPath := filepath.Join(r.dir, "replay.jsonl")
	dst, err := journal.Create(copyPath, hdr)
	if err != nil {
		return cost{}, cost{}, err
	}
	for _, rec := range recs {
		c, err := measure(parent, "journal.append", func() error { return dst.Append(rec) })
		if err != nil {
			dst.Close()
			return cost{}, cost{}, err
		}
		appendC.add(c)
	}
	if err := dst.Close(); err != nil {
		return cost{}, cost{}, err
	}
	var reopened int
	openC, err = measure(parent, "journal.open", func() error {
		j, err := journal.Open(copyPath, hdr)
		if err != nil {
			return err
		}
		reopened = len(j.Records())
		return j.Close()
	})
	if err != nil {
		return cost{}, cost{}, err
	}
	a, errA := os.ReadFile(r.journal())
	b, errB := os.ReadFile(copyPath)
	if errA != nil || errB != nil || !bytes.Equal(a, b) || reopened != len(recs) {
		return cost{}, cost{}, fmt.Errorf("re-appended journal differs from the tune's (%d of %d records reopened)", reopened, len(recs))
	}
	return appendC, openC, nil
}

// leaseEval evaluates a through the fleet outside a supervisor, turning a
// worker fault (raised as a panic for the supervisor) into an error.
func leaseEval(c *fleet.Coordinator, a transform.Assignment) (ev *search.Evaluation, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("fleet lease: %v", p)
		}
	}()
	return c.Evaluate(a), nil
}

// fleetReplay re-evaluates a tune's assignments one at a time through a
// fresh fleet, then in-process, and returns each lease's round trip, its
// excess over the in-process evaluation (ms), and the time from starting
// the fleet to its first result.
func (h *harness) fleetReplay(tr *obs.Tracer, r *tuneRun) (rtt, over []float64, first time.Duration, err error) {
	coord, err := h.newFleet(r.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	sp := tr.Root("bench.fleet")
	defer sp.End()
	start := time.Now()
	if err := coord.Start(context.Background(), fleet.Runtime{Local: r.tuner, Fingerprint: r.tuner.Fingerprint()}); err != nil {
		return nil, nil, 0, err
	}
	defer coord.Close()
	for i, ev := range r.res.Outcome.Log.Evals {
		var got *search.Evaluation
		lc, err := measure(sp, "fleet.lease", func() (err error) {
			got, err = leaseEval(coord, ev.Assignment)
			return err
		})
		if err != nil {
			return nil, nil, 0, err
		}
		if i == 0 {
			first = time.Since(start)
		}
		if got.Status != ev.Status || got.Speedup != ev.Speedup || got.RelError != ev.RelError {
			return nil, nil, 0, fmt.Errorf("fleet replay of evaluation %d: got %s %g %g, tune had %s %g %g",
				ev.Index, got.Status, got.Speedup, got.RelError, ev.Status, ev.Speedup, ev.RelError)
		}
		ic, _ := measure(sp, "core.eval", func() error {
			r.tuner.Evaluate(ev.Assignment)
			return nil
		})
		rtt = append(rtt, millis(lc.dur))
		over = append(over, millis(lc.dur-ic.dur))
	}
	return rtt, over, first, nil
}

// maxUnattributed is the largest share of Tuner.Evaluate's time that the
// replayed layers may miss. Beyond it the layer metrics of the run are
// flagged as unresolved.
const maxUnattributed = 0.05

// traced runs one traced rep, with the tune's own spans on, then replays
// it layer by layer and sets the per-layer metrics. untimedRep and
// untimedTune are the untraced reps' median rep time and tune_s (s), both
// scaled by the gauge.
func (h *harness) traced(untimedRep, untimedTune float64) error {
	w, m, v := h.w, h.m, h.out.Values
	tr := obs.NewTracer(fmt.Sprintf("bench workload=%s seed=%d", w.Name, h.cfg.Seed))
	runs := h.sweep(tr, w.Ledger)
	defer func() {
		for _, r := range runs {
			os.RemoveAll(r.dir)
		}
	}()
	if len(runs) == 0 {
		return fmt.Errorf("%s: every traced tune failed", w.Name)
	}
	n := float64(len(runs))

	// Evaluation time as the search saw it: the tune's own eval spans.
	var evalMS []float64
	for _, rec := range tr.Records() {
		if rec.Name == obs.SpanEval {
			evalMS = append(evalMS, millis(rec.Dur))
		}
	}
	if len(evalMS) == 0 {
		return fmt.Errorf("%s: the traced tune recorded no %q spans", w.Name, obs.SpanEval)
	}
	var run time.Duration
	var scaled float64
	var evals, passes int
	for _, r := range runs {
		run += r.run
		scaled += r.run.Seconds() * r.scale
		for _, ev := range r.res.Outcome.Log.Evals {
			evals++
			if ev.Status == search.StatusPass {
				passes++
			}
		}
	}

	machine := perfmodel.Default()
	setup, baseOut, err := replaySetup(tr, m, machine)
	if err != nil {
		return err
	}
	acc := map[string]*cost{"core.eval": {}}
	for _, l := range evalLayers {
		acc[l] = &cost{}
	}
	var steps int64
	var appendC, openC cost
	for _, r := range runs {
		runtime.GC()
		sp := tr.Root("bench.replay")
		for _, ev := range r.res.Outcome.Log.Evals {
			s, err := replayEval(sp, r.tuner, m, machine, baseOut, ev, acc)
			if err != nil {
				sp.End()
				return fmt.Errorf("%s seed %d: %w", w.Name, r.seed, err)
			}
			steps += s
		}
		a, o, err := replayJournal(sp, r, m.Name)
		sp.End()
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", w.Name, r.seed, err)
		}
		appendC.add(a)
		openC.add(o)
	}

	layerMS := func(l string) float64 { return millis(acc[l].dur) / n }
	v["interp.run_ms"] = layerMS("interp.run")
	v["interp.ns_per_step"] = float64(acc["interp.run"].dur) / float64(steps)
	v["interp.run_allocs"] = float64(acc["interp.run"].allocs) / n
	v["interp.run_alloc_kb"] = float64(acc["interp.run"].bytes) / 1e3 / n
	v["interp.steps"] = float64(steps) / n
	v["interp.compile_ms"] = layerMS("interp.compile")
	v["interp.compile_allocs"] = float64(acc["interp.compile"].allocs) / n
	v["transform.apply_ms"] = layerMS("transform.apply")
	v["transform.apply_allocs"] = float64(acc["transform.apply"].allocs) / n
	v["models.compare_ms"] = layerMS("models.compare")

	var setupLayers float64
	for l, ms := range setup {
		v[l+"_ms"] = ms
		setupLayers += ms
	}
	v["core.setup_unattributed_ms"] = 1e3*v["setup_s"] - setupLayers

	var replayed float64
	for _, l := range evalLayers {
		replayed += layerMS(l)
	}
	tailMS, pct := tail(evalMS)
	v["core.eval_ms_p50"] = median(evalMS)
	v["core.eval_ms_tail"] = tailMS
	h.out.Notes["core.eval_ms_tail"] = fmt.Sprintf("p%.1f of n=%d", pct, len(evalMS))
	evaluated := layerMS("core.eval")
	v["core.eval_unattributed_ms"] = evaluated - replayed
	share := (evaluated - replayed) / evaluated
	h.out.Notes["core.eval_unattributed_ms"] = fmt.Sprintf("%+.1f%% of Tuner.Evaluate", 100*share)
	if math.Abs(share) > maxUnattributed {
		h.out.Notes["core.eval_unattributed_ms"] += fmt.Sprintf(", over %.0f%%: layer metrics unresolved", 100*maxUnattributed)
		fmt.Fprintf(os.Stderr, "bench: %s: the replayed layers miss the time of Tuner.Evaluate by %+.1f%%, more than %.0f%%, "+
			"so in this run a layer metric that moves by less does not resolve\n", w.Name, 100*share, 100*maxUnattributed)
	}

	par := float64(w.Par)
	v["search.evals"] = float64(evals) / n
	v["search.pass_frac"] = float64(passes) / float64(evals)
	v["search.self_ms"] = (millis(run) - sum(evalMS)/par) / n
	v["search.slot_busy_frac"] = sum(evalMS) / (par * millis(run))

	v["journal.append_ms"] = millis(appendC.dur) / n
	v["journal.open_ms"] = millis(openC.dur) / n

	v["ledger.overhead_ms"] = 0
	if w.Ledger {
		var plain []float64
		for _, r := range h.sweep(nil, false) {
			plain = append(plain, r.run.Seconds()*r.scale)
			os.RemoveAll(r.dir)
		}
		v["ledger.overhead_ms"] = 1e3 * (untimedTune - mean(plain))
	}

	v["fleet.lease_rtt_ms_p50"] = 0
	v["fleet.lease_overhead_ms_p50"] = 0
	v["fleet.start_to_first_result_ms"] = 0
	if w.Workers > 0 {
		rtt, over, first, err := h.fleetReplay(tr, runs[0])
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		v["fleet.lease_rtt_ms_p50"] = median(rtt)
		v["fleet.lease_overhead_ms_p50"] = median(over)
		v["fleet.start_to_first_result_ms"] = millis(first)
	}

	v["bench.trace_overhead_frac"] = scaled/untimedRep - 1
	return tr.WriteFile(filepath.Join(h.cfg.TraceDir, w.Name+".json"))
}
