// Package obs is the tuner's observability layer: a hierarchical span
// tracer with deterministic IDs, a counters/gauges/histograms registry,
// a live progress reporter, and a debug HTTP server. Every entry point
// is nil-safe — a nil *Tracer, *Span, or *Registry is the no-op
// implementation, so instrumented code carries no conditionals and the
// disabled path performs no allocations (enforced by
// TestDisabledPathAllocFree).
//
// Observability never participates in run identity: tracer and registry
// options are not fingerprinted, and instrumentation must not perturb
// the byte-deterministic evaluation journal (enforced by
// core.TestTracingDoesNotPerturbJournal).
package obs

// Span names emitted by the tuning pipeline, outermost first.
const (
	SpanTune              = "tune"               // core.Tuner.Run root
	SpanSearchRound       = "search.round"       // one ddmin candidate round
	SpanBatch             = "batch"              // one deterministic evaluation batch
	SpanEval              = "eval"               // one variant evaluation (per worker)
	SpanRetry             = "retry"              // one resilience retry (backoff + re-attempt)
	SpanInterpRun         = "interp.run"         // one interpreter execution
	SpanJournalAppend     = "journal.append"     // one fsync'd journal record
	SpanJournalCheckpoint = "journal.checkpoint" // one checkpoint rewrite after a journal record
	SpanFleetLease        = "fleet.lease"        // one lease round trip to a fleet worker
	SpanWorkerEval        = "worker.eval"        // one evaluation on a fleet worker, under the propagated lease span
)

// WorkerPIDBase is the Chrome-trace process lane of worker slot 0: a
// worker slot's spans render under pid WorkerPIDBase+slot, keeping them
// visually distinct from the coordinator's pid 1.
const WorkerPIDBase = 100

// Metric names. Counters unless noted; the *Prefix constants are
// families keyed by a dynamic suffix (status, fault kind, event type).
const (
	MetricEvals          = "evals"           // evaluations recorded in the search log
	MetricEvalsPrefix    = "evals_"          // evals_<status>: pass/fail/error/infra
	MetricCacheHits      = "cache_hits"      // batch slots served from the log cache
	MetricWarmHits       = "warm_hits"       // batch slots served from warm (replayed) records
	MetricJournalAppends = "journal_appends" // fresh records appended to the journal
	MetricRetries        = "retries"         // resilience retries, all kinds
	MetricRetriesPrefix  = "retries_"        // retries_<kind>: scheduler-kill/oom/hang/…
	MetricQuarantined    = "quarantined"     // variants quarantined this run
	MetricSalvaged       = "salvaged"        // completed evaluations salvaged from aborted batches
	MetricEventsPrefix   = "events_"         // events_<type>: every resilience event by type
	MetricInterpRuns     = "interp_runs"     // interpreter executions
	MetricInterpSteps    = "interp_steps"    // interpreter statements executed, summed
	MetricInterpCalls    = "interp_calls"    // procedure calls (GPTL region calls, wrappers included), summed

	// Numeric-diagnostics counters, populated only when shadow
	// execution is on (core Options.Numerics / interp Config.Numerics).
	MetricNumericOps             = "numeric_ops"                // shadow-checked FP operations
	MetricNumericCancellations   = "numeric_cancellations"      // cancellations >= the bit threshold
	MetricNumericCatastrophic    = "numeric_catastrophic"       // cancellations of already-inexact operands
	MetricNumericBranchDiverg    = "numeric_branch_divergences" // comparisons deciding differently in shadow
	MetricNumericDiscretizations = "numeric_discretizations"    // int/nint/floor results flipped vs shadow
	MetricNumericNonFinite       = "numeric_nonfinite"          // non-finite values born in the primary lane

	// Fleet counters, populated only when evaluations are sharded
	// across worker subprocesses (core Options.Fleet / prose tune
	// -workers).
	MetricFleetLeases             = "fleet_leases"          // leases granted to workers
	MetricFleetLeaseExpired       = "fleet_lease_expired"   // leases past their deadline, reassigned
	MetricFleetWorkerExits        = "fleet_worker_exits"    // worker process deaths (exit or heartbeat loss)
	MetricFleetRestarts           = "fleet_worker_restarts" // worker processes respawned
	MetricFleetHeartbeats         = "fleet_heartbeats"      // worker heartbeats received
	MetricFleetLocalEvals         = "fleet_local_evals"     // evaluations run in-process after a degrade
	MetricFleetWorkerLeasesPrefix = "fleet_worker_leases_"  // fleet_worker_leases_<id>: leases completed per worker

	// Fleet connection counters. Every worker, spawned or dial-in,
	// connects over TCP; reconnects and partition expiries happen only
	// to dial-in workers (prose tune -listen / prose worker -connect).
	MetricFleetNetSessions         = "fleet_net_sessions"          // worker connections admitted (first contact + reconnects)
	MetricFleetNetReconnects       = "fleet_net_reconnects"        // sessions resumed after a connection loss
	MetricFleetNetPartitionExpired = "fleet_net_partition_expired" // parked leases expired before their worker returned
	MetricFleetNetDupRefused       = "fleet_net_dup_refused"       // duplicate or stale replies refused by the exactly-once dedup
	MetricFleetNetFrameErrors      = "fleet_net_frame_errors"      // malformed/oversized frames that retired a connection

	// Distributed-observability counters, populated only when worker
	// metric/span shipping is on (tracing or metrics enabled on a fleet
	// run). Aggregated worker instruments land under MetricFleetWorkersPrefix
	// ("fleet.workers.<name>"); the dot namespace keeps them visually
	// apart from the coordinator's own fleet_* counters.
	MetricFleetWorkersPrefix = "fleet.workers."         // merged worker registry namespace
	MetricFleetObsSpans      = "fleet_obs_spans"        // worker spans spliced into the coordinator trace
	MetricFleetObsSnapshots  = "fleet_obs_snapshots"    // worker metric snapshots merged
	MetricFleetObsStale      = "fleet_obs_stale_frames" // out-of-order/duplicate obs frames dropped

	// Ledger counters, populated when a run streams decision telemetry
	// (core Options.DecisionPath / prose tune -ledger).
	MetricDecisionRounds = "ledger_decision_rounds" // search rounds recorded in the decision log
	MetricDecisionEvents = "ledger_decision_events" // decision-log events written

	GaugeBestSpeedup = "best_speedup" // best passing speedup so far
	GaugeBreakerOpen = "breaker_open" // 1 while the circuit breaker is open

	GaugeFleetWorkersAlive = "fleet_workers_alive" // live worker processes
	GaugeFleetDegraded     = "fleet_degraded"      // 1 after the fleet degraded to in-process evaluation
	// Per-worker gauges keyed by slot ID.
	GaugeFleetWorkerStatePrefix    = "fleet_worker_state_"    // numeric fleet.WorkerState
	GaugeFleetWorkerRestartsPrefix = "fleet_worker_restarts_" // respawns per worker slot

	HistQueueWaitNS       = "queue_wait_ns"      // batch job wait for a worker slot
	HistEvalRunNS         = "eval_run_ns"        // evaluation wall time once running
	HistNumericDivergence = "numeric_divergence" // per-eval worst primary-vs-shadow relative divergence
)
