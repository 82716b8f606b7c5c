package fleet

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
)

// TestFleetShipsWorkerSpansAndMetrics is the distributed-observability
// acceptance test at the fleet layer: real subprocess workers receive
// trace context in their lease grants, run worker.eval spans under the
// propagated fleet.lease parent, and ship them back with cumulative
// metric snapshots; the coordinator splices the spans into per-worker
// pid lanes and merges the metrics into fleet.workers.*.
func TestFleetShipsWorkerSpansAndMetrics(t *testing.T) {
	tracer := obs.NewTracer(stubFingerprint)
	reg := obs.NewRegistry()
	c := startFleet(t, Config{Workers: 2, Spawn: stubSpawn(t), Heartbeat: 50 * time.Millisecond},
		Runtime{Trace: tracer, Metrics: reg})
	root := tracer.Root("tune")
	const evals = 4
	for i := 1; i <= evals; i++ {
		if ev := c.EvaluateSpan(root, asn(i)); ev.Status != search.StatusPass {
			t.Fatalf("eval %d: status %v", i, ev.Status)
		}
	}
	root.End()
	c.Close()

	recs := tracer.Drain()
	leases := map[obs.SpanID]obs.SpanRecord{}
	for _, r := range recs {
		if r.Name == obs.SpanFleetLease {
			leases[r.ID] = r
		}
	}
	var workerSpans int
	for _, r := range recs {
		if r.Name != obs.SpanWorkerEval {
			continue
		}
		workerSpans++
		if r.Worker < 0 || r.Worker >= 2 || r.PID != obs.WorkerPIDBase+r.Worker {
			t.Errorf("worker.eval span in pid %d / worker %d; want pid = %d + slot",
				r.PID, r.Worker, obs.WorkerPIDBase)
		}
		parent, ok := leases[r.Parent]
		if !ok {
			t.Errorf("worker.eval span %s is not parented under a fleet.lease span", r.ID)
			continue
		}
		// The rebased child must sit inside its parent's lane: it starts
		// at or after the lease span, and the gap is the queue wait plus
		// the grant's flight time — exactly what `prose trace` renders
		// as lease-wait vs on-worker run time.
		if r.Start < parent.Start {
			t.Errorf("worker.eval starts %v before its fleet.lease parent %v", r.Start, parent.Start)
		}
	}
	if workerSpans != evals {
		t.Errorf("worker.eval spans spliced = %d, want %d", workerSpans, evals)
	}

	snap := reg.Snapshot()
	if h := snap.Histograms[obs.MetricFleetWorkersPrefix+obs.HistEvalRunNS]; h.Count != evals {
		t.Errorf("merged %s%s count = %d, want %d",
			obs.MetricFleetWorkersPrefix, obs.HistEvalRunNS, h.Count, evals)
	}
	if n := snap.Counters[obs.MetricFleetObsSpans]; n != evals {
		t.Errorf("fleet_obs_spans = %d, want %d", n, evals)
	}
	if n := snap.Counters[obs.MetricFleetObsSnapshots]; n < evals {
		t.Errorf("fleet_obs_snapshots = %d, want >= %d", n, evals)
	}
	// WorkerMetrics filters to exactly the shipped namespace.
	wm := c.WorkerMetrics()
	if _, ok := wm.Histograms[obs.MetricFleetWorkersPrefix+obs.HistEvalRunNS]; !ok {
		t.Error("WorkerMetrics lacks the merged eval_run_ns histogram")
	}
	for name := range wm.Counters {
		if len(name) < len(obs.MetricFleetWorkersPrefix) || name[:len(obs.MetricFleetWorkersPrefix)] != obs.MetricFleetWorkersPrefix {
			t.Errorf("WorkerMetrics leaked non-worker counter %q", name)
		}
	}
}

// TestSpliceObsDropsStaleFrames pins the ObsSeq dedup: a chaos
// transport can delay, duplicate, or reorder frames, so a metric
// snapshot arriving out of order must not roll the merged view back to
// a stale eval count, and a duplicated span batch must splice at most
// once.
func TestSpliceObsDropsStaleFrames(t *testing.T) {
	c, err := New(Config{Workers: 1, Spawn: stubSpawn(t)})
	if err != nil {
		t.Fatal(err)
	}
	c.rt = Runtime{Trace: obs.NewTracer("splice"), Metrics: obs.NewRegistry()}
	s := &slot{id: 0}

	snap := func(evals int64) *obs.Snapshot {
		return &obs.Snapshot{Counters: map[string]int64{"evals": evals}}
	}
	spans := func(id uint64) []obs.SpanRecord {
		return []obs.SpanRecord{{ID: obs.SpanID(id), Name: obs.SpanWorkerEval,
			Start: time.Millisecond, Dur: time.Millisecond}}
	}
	c.spliceObs(s, Msg{Type: MsgHeartbeat, ObsSeq: 1, MetricsSnap: snap(2), Spans: spans(1), TraceNow: 1})
	c.spliceObs(s, Msg{Type: MsgHeartbeat, ObsSeq: 3, MetricsSnap: snap(5), Spans: spans(2), TraceNow: 1})
	// The chaos-delayed middle frame lands late: stale, dropped.
	c.spliceObs(s, Msg{Type: MsgHeartbeat, ObsSeq: 2, MetricsSnap: snap(3), Spans: spans(3), TraceNow: 1})
	// A duplicated copy of the newest frame: stale too, spliced never.
	c.spliceObs(s, Msg{Type: MsgResult, ObsSeq: 3, MetricsSnap: snap(5), Spans: spans(2), TraceNow: 1})

	got := c.rt.Metrics.Snapshot()
	if n := got.Counters[obs.MetricFleetWorkersPrefix+"evals"]; n != 5 {
		t.Errorf("merged evals = %d, want 5 (a stale snapshot was merged)", n)
	}
	if n := got.Counters[obs.MetricFleetObsStale]; n != 2 {
		t.Errorf("%s = %d, want 2", obs.MetricFleetObsStale, n)
	}
	if n := len(c.rt.Trace.Drain()); n != 2 {
		t.Errorf("spliced spans = %d, want 2 (batches 1 and 2, once each)", n)
	}
	if s.obsSeq != 3 {
		t.Errorf("slot obsSeq = %d, want 3", s.obsSeq)
	}
}

// TestDebugFleetHandlerRace hammers /debug/fleet while the fleet is
// granting leases and splicing worker observability shipments: every
// response must be a complete, decodable FleetStatus document, and the
// race detector must see no unsynchronized read of worker state.
func TestDebugFleetHandlerRace(t *testing.T) {
	tracer := obs.NewTracer(stubFingerprint)
	reg := obs.NewRegistry()
	c := startFleet(t, Config{Workers: 2, Spawn: stubSpawn(t), Heartbeat: 10 * time.Millisecond},
		Runtime{Trace: tracer, Metrics: reg})
	h := c.DebugHandler()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 1; i <= 8; i++ {
			c.Evaluate(asn(i))
		}
	}()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/fleet", nil))
		var st FleetStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("undecodable /debug/fleet response: %v\n%s", err, rec.Body.String())
		}
		if len(st.Workers) != 2 {
			t.Fatalf("health table has %d workers, want 2", len(st.Workers))
		}
	}
	wg.Wait()
}

// BenchmarkFleetTraceShipping measures the per-lease cost of the
// observability shipping path — open the worker.eval span, drain and
// attach it with a registry snapshot, encode/decode the reply frame,
// splice on the coordinator — against the same reply cycle with
// shipping off (the off side is the frame codec floor every lease pays
// regardless).
func BenchmarkFleetTraceShipping(b *testing.B) {
	for _, mode := range []string{"on", "off"} {
		b.Run(mode, func(b *testing.B) {
			c, err := New(Config{Workers: 1, Spawn: stubSpawn(b)})
			if err != nil {
				b.Fatal(err)
			}
			var octx *ObsCtx
			if mode == "on" {
				c.rt = Runtime{Trace: obs.NewTracer("bench"), Metrics: obs.NewRegistry()}
				parent := c.rt.Trace.Root("tune")
				defer parent.End()
				octx = &ObsCtx{SpanID: parent.ID().String(), Fingerprint: "bench", Metrics: true}
			}
			s := &slot{id: 0}
			wo := &workerObs{}
			wo.enable(octx, stubEval{})
			if reg := wo.registry(); reg != nil {
				reg.Histogram(obs.HistEvalRunNS).Observe(1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp := wo.leaseSpan(Msg{Obs: octx, Lease: int64(i + 1), Key: "k", Attempt: 1})
				sp.End()
				reply := Msg{Type: MsgResult, Lease: int64(i + 1)}
				wo.attach(&reply)
				buf, err := json.Marshal(reply)
				if err != nil {
					b.Fatal(err)
				}
				var m Msg
				if err := json.Unmarshal(buf, &m); err != nil {
					b.Fatal(err)
				}
				c.spliceObs(s, m)
			}
			b.StopTimer()
			if mode == "on" {
				// Keep the splice honest: every iteration's span arrived.
				if n := len(c.rt.Trace.Drain()); n != b.N {
					b.Fatalf("spliced %d spans, want %d", n, b.N)
				}
			}
		})
	}
}
