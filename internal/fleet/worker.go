package fleet

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/transform"
)

// MetricsAttacher is optionally implemented by evaluators that can
// adopt a metrics registry after construction. A fleet worker's
// evaluator starts uninstrumented; when the first lease arrives with
// trace context asking for metrics, the worker creates a registry and
// attaches it here so interpreter counters (interp_runs, numeric_*, …)
// start flowing. core.Tuner implements it.
type MetricsAttacher interface {
	AttachMetrics(*obs.Registry)
}

// workerObs is a worker process's observability state: a local tracer
// and registry brought up lazily by the first lease that carries an
// ObsCtx (until then the worker allocates nothing on obs's account),
// plus the pending span buffer and the monotonic obs sequence the
// coordinator uses to drop stale or duplicated shipments. The mutex
// covers the heartbeat goroutine attaching to frames while the main
// loop evaluates.
type workerObs struct {
	mu      sync.Mutex
	tracer  *obs.Tracer
	reg     *obs.Registry
	pending []obs.SpanRecord
	seq     int64
}

// enable brings up the tracer (and registry, when asked for) on the
// first instrumented lease. The registry is handed to the evaluator via
// MetricsAttacher so interpreter counters flow into it; worker leases
// run sequentially, so attaching between leases is safe.
func (wo *workerObs) enable(ctx *ObsCtx, eval search.Evaluator) {
	if ctx == nil {
		return
	}
	var attach *obs.Registry
	wo.mu.Lock()
	if wo.tracer == nil {
		wo.tracer = obs.NewTracer(ctx.Fingerprint)
	}
	if ctx.Metrics && wo.reg == nil {
		wo.reg = obs.NewRegistry()
		attach = wo.reg
	}
	wo.mu.Unlock()
	if attach != nil {
		if ma, ok := eval.(MetricsAttacher); ok {
			ma.AttachMetrics(attach)
		}
	}
}

// registry returns the worker registry (nil while metrics are off).
func (wo *workerObs) registry() *obs.Registry {
	wo.mu.Lock()
	defer wo.mu.Unlock()
	return wo.reg
}

// leaseSpan opens the worker.eval span for one lease, parented under
// the coordinator's propagated fleet.lease span so the two processes'
// traces splice into one tree. Nil (no-op) while tracing is off.
func (wo *workerObs) leaseSpan(m Msg) *obs.Span {
	wo.mu.Lock()
	tracer := wo.tracer
	wo.mu.Unlock()
	if tracer == nil || m.Obs == nil || m.Obs.SpanID == "" {
		// Metrics-only leases (coordinator has a registry but no tracer)
		// carry no parent span; opening one here would only ship spans
		// the coordinator has no tracer to splice.
		return nil
	}
	parent, _ := strconv.ParseUint(m.Obs.SpanID, 16, 64)
	sp := tracer.ChildOf(obs.SpanID(parent), obs.SpanWorkerEval)
	sp.Attr("key", m.Key)
	sp.AttrInt("attempt", int64(m.Attempt))
	sp.AttrInt("lease", m.Lease)
	return sp
}

// attach piggybacks the worker's observability payload on an outgoing
// frame: up to MaxSpanBatch drained spans (with the tracer-epoch
// timestamp the coordinator rebases against), the current registry
// snapshot, and the next obs sequence number. No-op while obs is off,
// so uninstrumented frames are byte-for-byte what they always were.
func (wo *workerObs) attach(m *Msg) {
	wo.mu.Lock()
	defer wo.mu.Unlock()
	if wo.tracer == nil {
		return
	}
	wo.pending = append(wo.pending, wo.tracer.Drain()...)
	n := len(wo.pending)
	if n > MaxSpanBatch {
		n = MaxSpanBatch
	}
	if n > 0 {
		m.Spans = append([]obs.SpanRecord(nil), wo.pending[:n]...)
		wo.pending = wo.pending[n:]
		m.TraceNow = int64(wo.tracer.Now())
	}
	if wo.reg != nil {
		snap := wo.reg.Snapshot()
		m.MetricsSnap = &snap
	}
	if m.Spans == nil && m.MetricsSnap == nil {
		return
	}
	wo.seq++
	m.ObsSeq = wo.seq
}

// shipOverflow flushes span batches beyond what the next reply frame
// can carry as extra heartbeat frames, keeping every frame under
// MaxFrame no matter how many spans one evaluation produced.
func (wo *workerObs) shipOverflow(send func(Msg) error, lease int64) error {
	for {
		wo.mu.Lock()
		if wo.tracer != nil {
			wo.pending = append(wo.pending, wo.tracer.Drain()...)
		}
		over := len(wo.pending) > MaxSpanBatch
		wo.mu.Unlock()
		if !over {
			return nil
		}
		hb := Msg{Type: MsgHeartbeat, Lease: lease}
		wo.attach(&hb)
		if err := send(hb); err != nil {
			return err
		}
	}
}

// runEval evaluates one lease, converting a panic into a fault reply.
// The Transient contract of the panic value survives the wire via the
// persistent flag, so the coordinator's WorkerFault re-classifies
// identically to an in-process run. When the lease carried trace
// context, sp is the worker.eval span (the evaluator hangs interp.run
// under it) and reg the worker registry feeding eval_run_ns.
func runEval(eval search.Evaluator, asn map[string]int, sp *obs.Span, reg *obs.Registry) (ev *search.Evaluation, fault string, faulted, persistent bool) {
	a := transform.Assignment(asn)
	if a == nil {
		a = transform.Assignment{}
	}
	defer func() {
		if r := recover(); r != nil {
			faulted = true
			if err, ok := r.(error); ok {
				fault = err.Error()
			} else {
				fault = fmt.Sprint(r)
			}
			if t, ok := r.(interface{ Transient() bool }); ok && !t.Transient() {
				persistent = true
			}
		}
	}()
	defer sp.End()
	start := time.Now()
	ev = search.Evaluate(eval, sp, a)
	reg.Histogram(obs.HistEvalRunNS).Observe(float64(time.Since(start)))
	return
}
