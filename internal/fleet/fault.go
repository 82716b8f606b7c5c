package fleet

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"syscall"
	"time"

	"repro/internal/resilience"
	"repro/internal/search"
)

// WorkerFault is the panic value the coordinator raises when a lease
// cannot be answered: the worker process exited mid-evaluation, stopped
// heartbeating, let the lease expire, or reported an evaluation panic
// of its own. It flows into the resilience supervisor, whose per-kind
// retry budgets turn the fault into a lease reassignment (or, past the
// budget, a quarantine).
//
// Error renders deterministically — no worker IDs, PIDs, or attempt
// counts — because a quarantine detail built from this message lands in
// the journal proper (StatusInfra records) and must be identical across
// runs, resumes, and pool sizes. Worker identity travels in the events
// sidecar instead.
type WorkerFault struct {
	// Key is the canonical assignment key of the failed lease.
	Key string
	// Kind is the resilience fault class (KindSchedulerKill for a dead
	// process, KindHang for a silent or expired one; empty lets
	// FaultKindOf classify from the message, as for worker-reported
	// evaluation faults).
	Kind string
	// Msg is the rendered fault. For worker-reported faults it is the
	// worker's own rendering, verbatim, so in-process and fleet runs
	// quarantine with identical details.
	Msg string
	// Persistent marks a fault retrying cannot cure (a worker-reported
	// persistent evaluation fault, e.g. an injected crash-on-key).
	Persistent bool
}

func (f *WorkerFault) Error() string { return f.Msg }

// FaultKind labels the fault for per-kind retry budgets; an empty Kind
// defers to FaultKindOf's message vocabulary.
func (f *WorkerFault) FaultKind() string { return f.Kind }

// Transient reports whether a retry (a lease reassignment) could
// succeed.
func (f *WorkerFault) Transient() bool { return !f.Persistent }

var _ interface {
	error
	FaultKind() string
	Transient() bool
} = (*WorkerFault)(nil)

// kindOrClassify resolves an explicit kind or falls back to the
// resilience message vocabulary, for sidecar events (the supervisor
// does its own classification independently).
func kindOrClassify(f *WorkerFault) string {
	if f.Kind != "" {
		return f.Kind
	}
	return resilience.FaultKindOf(f)
}

// Faults is the fleet's fault injection, for its own tests and smoke
// runs: process faults (kill, wedge, slow) that the coordinator marks on
// lease grants for the worker to fire, and network faults (drop, dup,
// reorder, delay, partition) it injects on every connection it
// accepts. Spawned children and dial-in workers connect the same way,
// so one Faults means the same in both fleet modes, and a worker needs
// no fault configuration at all.
//
// Every decision is a pure function of Seed and a deterministic stream
// position via search.FaultFrac: process faults hash (key, attempt), so
// a death does not depend on which worker drew the lease; network
// faults hash "chaos."+op and the frame sequence. A fault run is
// reproducible, and its journal is byte-identical to a fault-free one.
//
// A kill or wedge mark kills or freezes the worker's whole process. An
// in-process ServeNet worker (a test goroutine) may therefore be given
// network faults only.
type Faults struct {
	// Seed drives every roll, process and network.
	Seed int64

	// KillRate SIGKILLs the worker before it evaluates a lease, with
	// this probability per (key, attempt).
	KillRate float64
	// WedgeKey freezes the worker — heartbeats and all — on the first
	// attempt of this key, exercising the heartbeat-loss detector.
	WedgeKey string
	// SlowKey holds the result of this key's first attempt for Slow
	// after evaluating, exercising lease expiry and the dedup of a reply
	// that outlived its lease.
	SlowKey string
	// Slow is the SlowKey delay.
	Slow time.Duration

	// Drop is the per-frame probability a frame silently vanishes.
	Drop float64
	// Dup is the per-frame probability a frame is delivered twice.
	Dup float64
	// Reorder is the per-frame probability a frame is held back and
	// delivered after its successor.
	Reorder float64
	// Delay is a fixed latency added to every frame.
	Delay time.Duration
	// Partition is the per-frame probability a hard partition window
	// opens: the connection is severed and dials are hung up on until
	// PartitionFor elapses.
	Partition float64
	// PartitionFor is the length of a partition window.
	PartitionFor time.Duration
}

// ParseFaults parses a `prose tune -fleet-faults` spec, key=value pairs
// separated by commas: seed (default 1), kill, wedge, drop, dup,
// reorder, delay, partition and partition-for (default 150ms). An
// empty spec means no faults (nil).
func ParseFaults(spec string) (*Faults, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	f := &Faults{}
	fs := flag.NewFlagSet("fleet-faults", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int64Var(&f.Seed, "seed", 1, "")
	fs.Float64Var(&f.KillRate, "kill", 0, "")
	fs.StringVar(&f.WedgeKey, "wedge", "", "")
	fs.Float64Var(&f.Drop, "drop", 0, "")
	fs.Float64Var(&f.Dup, "dup", 0, "")
	fs.Float64Var(&f.Reorder, "reorder", 0, "")
	fs.DurationVar(&f.Delay, "delay", 0, "")
	fs.Float64Var(&f.Partition, "partition", 0, "")
	fs.DurationVar(&f.PartitionFor, "partition-for", 150*time.Millisecond, "")
	// Every element must be key=value with a plain key, so each becomes
	// one "-key=value" flag: "-" or "--" would end the parse and drop
	// the keys after it, and a bare key would take the next element as
	// its value.
	var args []string
	for _, kv := range strings.Split(spec, ",") {
		if kv = strings.TrimSpace(kv); kv == "" {
			continue
		}
		if k, _, ok := strings.Cut(kv, "="); !ok || k == "" || strings.HasPrefix(k, "-") {
			return nil, fmt.Errorf("fleet faults %q: %q is not key=value", spec, kv)
		}
		args = append(args, "-"+kv)
	}
	if err := fs.Parse(args); err != nil {
		return nil, fmt.Errorf("fleet faults %q: %w", spec, err)
	}
	return f, nil
}

// network reports whether any network fault is configured.
func (f *Faults) network() bool {
	return f != nil && (f.Drop > 0 || f.Dup > 0 || f.Reorder > 0 || f.Delay > 0 || f.Partition > 0)
}

// Process-fault marks a lease grant can carry (Inject.Kind).
const (
	// InjectKill: the worker SIGKILLs itself before evaluating, so the
	// coordinator sees EOF, exactly as after a scheduler or OOM kill.
	InjectKill = "kill"
	// InjectWedge: the worker freezes before evaluating; heartbeats never
	// start, and the coordinator's silence detector must act.
	InjectWedge = "wedge"
	// InjectSlow: the worker evaluates, keeps heartbeating, and holds its
	// result for Inject.Delay before replying.
	InjectSlow = "slow"
)

// Inject is the process fault a lease grant marks for its worker.
type Inject struct {
	Kind  string        `json:"kind"`
	Delay time.Duration `json:"delay,omitempty"`
}

// inject decides the process fault for one lease (nil = none).
func (f *Faults) inject(key string, attempt int) *Inject {
	switch {
	case f == nil:
		return nil
	case f.KillRate > 0 && search.FaultFrac(f.Seed, key, int64(attempt)) < f.KillRate:
		return &Inject{Kind: InjectKill}
	case f.WedgeKey != "" && key == f.WedgeKey && attempt == 1:
		return &Inject{Kind: InjectWedge}
	case f.SlowKey != "" && key == f.SlowKey && attempt == 1 && f.Slow > 0:
		return &Inject{Kind: InjectSlow, Delay: f.Slow}
	}
	return nil
}

// preEval fires a kill or wedge mark before the worker evaluates.
func (in *Inject) preEval() {
	switch {
	case in == nil:
	case in.Kind == InjectKill:
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // unreachable; SIGKILL cannot be handled
	case in.Kind == InjectWedge:
		select {} // wedge forever; the coordinator kills us
	}
}

// preReply fires a slow mark: the evaluation is done and heartbeats
// still flow, but the reply waits past the lease deadline.
func (in *Inject) preReply() {
	if in != nil && in.Kind == InjectSlow {
		time.Sleep(in.Delay)
	}
}
