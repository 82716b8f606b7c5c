package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/search"
	"repro/internal/transform"
)

// Defaults for Config's zero values.
const (
	DefaultLeaseTTL        = time.Minute
	DefaultHeartbeat       = 250 * time.Millisecond
	DefaultHeartbeatMisses = 4
	DefaultMaxRestarts     = 3
	DefaultRestartBackoff  = 200 * time.Millisecond
	DefaultReadyTimeout    = 30 * time.Second
)

// Fleet event types, recorded in the journal's events sidecar (with
// the coordinator's worker ID) and counted by `prose journal`. Like
// resilience events they are strictly out-of-band telemetry: the
// evaluation journal of a tune that survived worker deaths is
// byte-identical to a fault-free run's.
const (
	// EventLeaseGrant: one evaluation was leased to a worker.
	EventLeaseGrant = "lease_grant"
	// EventLeaseExpired: a lease passed its deadline and was failed for
	// reassignment (the supervisor's retry resubmits it).
	EventLeaseExpired = "lease_expired"
	// EventWorkerExit: a worker process died (EOF on its connection) —
	// a SIGKILL, OOM kill, or crash.
	EventWorkerExit = "worker_exit"
	// EventWorkerLost: a worker went silent (missed heartbeats) and was
	// killed.
	EventWorkerLost = "worker_lost"
	// EventWorkerRestart: a dead worker slot respawned its process.
	EventWorkerRestart = "worker_restart"
	// EventWorkerDead: a worker slot was retired permanently (restart
	// budget exhausted, spawn failure, or fingerprint mismatch).
	EventWorkerDead = "worker_dead"
	// EventDegraded: live capacity fell below MinWorkers; the
	// coordinator switched — stickily, and never silently — to
	// in-process evaluation.
	EventDegraded = "degraded_to_local"
	// EventFingerprintMismatch: a worker's handshake fingerprint did not
	// match the coordinator's; it was retired before receiving any
	// lease, because its evaluations would not reproduce the journal.
	EventFingerprintMismatch = "fingerprint_mismatch"
	// EventWorkerReconnect: a network worker re-established its session
	// after a connection loss, resuming into the same slot.
	EventWorkerReconnect = "worker_reconnect"
	// EventPartitionExpired: a lease parked across a network partition
	// reached its deadline before its worker returned; it was failed
	// for supervised reassignment.
	EventPartitionExpired = "partition_expired"
	// EventDupRefused: a duplicate or stale frame — a network
	// duplication, or a reply that outlived its lease (expired and
	// reassigned, or superseded across a reconnect) — was refused by the
	// exactly-once dedup, keeping journal appends exactly-once.
	EventDupRefused = "dup_refused"
)

// Event is one observable fleet decision, bridged by the tuner into the
// journal's events sidecar and surfaced through obs metrics.
type Event struct {
	Type string
	// Worker is the coordinator's worker slot ID.
	Worker int
	// Key is the canonical assignment key the event concerns, if any.
	Key string
	// Attempt is the per-key attempt number of the lease, if any.
	Attempt int
	// Kind is the resilience fault class attributed to the event.
	Kind string
	// Detail is the human-readable cause.
	Detail string
}

// Process is the coordinator's handle on one worker subprocess.
type Process interface {
	// Kill terminates the process immediately (SIGKILL). It is called
	// while Wait blocks in another goroutine.
	Kill() error
	// Wait reaps the process after it exits.
	Wait() error
	// Pid identifies the process for health reporting.
	Pid() int
}

// SpawnFunc launches worker number id as a child process that dials
// the coordinator's listener at addr and handshakes with session.
type SpawnFunc func(id int, addr, session string) (Process, error)

// Command returns a SpawnFunc that launches `name args... -connect ADDR
// -session ID -max-dials 1` with stderr passed through and
// PROSE_FLEET_WORKER=1 / PROSE_FLEET_WORKER_ID in its environment. The
// single dial is what ends a child whose coordinator died: its redial
// is refused, so it exits instead of outliving the tune.
func Command(name string, args ...string) SpawnFunc {
	return func(id int, addr, session string) (Process, error) {
		cmd := exec.Command(name, slices.Concat(args,
			[]string{"-connect", addr, "-session", session, "-max-dials", "1"})...)
		cmd.Stderr = os.Stderr
		cmd.Env = append(os.Environ(),
			"PROSE_FLEET_WORKER=1",
			fmt.Sprintf("PROSE_FLEET_WORKER_ID=%d", id))
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return (*procHandle)(cmd), nil
	}
}

type procHandle exec.Cmd

func (p *procHandle) Kill() error {
	if p.Process == nil {
		return nil
	}
	return p.Process.Kill()
}

func (p *procHandle) Wait() error { return (*exec.Cmd)(p).Wait() }

func (p *procHandle) Pid() int {
	if p.Process == nil {
		return 0
	}
	return p.Process.Pid
}

// Config shapes a worker fleet.
type Config struct {
	// Workers is the pool size (required, >= 1).
	Workers int
	// Spawn launches one worker. Exactly one of Spawn and Listener must
	// be set: Spawn for child processes that dial the coordinator's own
	// loopback listener, Listener for off-host workers that dial in
	// (`prose worker -connect`). Both kinds run the same accept,
	// handshake and lease loops; a dial-in worker's session may also
	// reconnect and re-adopt its in-flight lease.
	Spawn SpawnFunc
	// Listener accepts dial-in workers. The coordinator owns it: it is
	// closed when the fleet shuts down.
	Listener net.Listener
	// Faults injects deterministic process and network faults into
	// every worker, spawned or dial-in (nil = none; see Faults).
	Faults *Faults
	// LeaseTTL bounds one evaluation's wall-clock time on a worker; an
	// expired lease is failed as a hang fault and reassigned by the
	// supervisor's retry.
	LeaseTTL time.Duration
	// Heartbeat is the interval every lease tells its worker to beat at
	// (the coordinator checks for silence at HeartbeatMisses times
	// this). Leases carry it in whole milliseconds, so it must be at
	// least 1ms.
	Heartbeat time.Duration
	// HeartbeatMisses is how many consecutive silent intervals mark a
	// worker lost.
	HeartbeatMisses int
	// MaxRestarts bounds respawns per worker slot; past it the slot is
	// retired.
	MaxRestarts int
	// MinWorkers is the live-capacity floor: when fewer slots remain
	// serviceable the coordinator degrades — stickily — to in-process
	// evaluation (default 1).
	MinWorkers int
	// RestartBackoff is slept before each respawn.
	RestartBackoff time.Duration
	// ReadyTimeout bounds the spawn-to-handshake window and a dialed
	// connection's wait for its ready frame (workers load the model and
	// measure a baseline before dialing).
	ReadyTimeout time.Duration
	// OnEvent observes fleet events, in addition to Runtime.OnEvent.
	OnEvent func(Event)
}

func (c *Config) withDefaults() {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = DefaultHeartbeat
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = DefaultHeartbeatMisses
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = DefaultMaxRestarts
	}
	if c.MinWorkers <= 0 {
		c.MinWorkers = 1
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = DefaultRestartBackoff
	}
	if c.ReadyTimeout <= 0 {
		c.ReadyTimeout = DefaultReadyTimeout
	}
}

// Runtime is what the tuner provides when the fleet starts: the
// in-process fallback evaluator, the evaluation fingerprint workers
// must reproduce, and the observability sinks.
type Runtime struct {
	// Local evaluates in-process after a degrade (required).
	Local search.Evaluator
	// Fingerprint is the evaluation fingerprint (required); a worker
	// whose handshake disagrees is retired before its first lease.
	Fingerprint string
	// OnEvent bridges fleet events to the journal's events sidecar.
	OnEvent func(Event)
	// Metrics receives fleet counters and gauges (nil-safe). When set,
	// lease grants ask workers to snapshot their own registries into
	// heartbeats, and the coordinator merges them into the
	// fleet.workers.* namespace of this registry.
	Metrics *obs.Registry
	// Trace, when set, turns on cross-process trace propagation: lease
	// grants carry the fleet.lease span ID, workers run their own
	// tracer under it, and their shipped spans are spliced into this
	// tracer on per-worker pid lanes.
	Trace *obs.Tracer
}

// WorkerState is a worker slot's lifecycle position.
type WorkerState int

const (
	StateSpawning WorkerState = iota
	StateHandshake
	StateIdle
	StateBusy
	StateBackoff // between death and respawn
	StateStopped // orderly shutdown
	StateDead    // retired permanently
)

func (s WorkerState) String() string {
	switch s {
	case StateSpawning:
		return "spawning"
	case StateHandshake:
		return "handshake"
	case StateIdle:
		return "idle"
	case StateBusy:
		return "busy"
	case StateBackoff:
		return "backoff"
	case StateStopped:
		return "stopped"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("WorkerState(%d)", int(s))
	}
}

// WorkerHealth is one worker slot's health snapshot, served by
// DebugHandler on the -debug-addr server.
type WorkerHealth struct {
	ID         int    `json:"id"`
	Pid        int    `json:"pid,omitempty"`
	State      string `json:"state"`
	Restarts   int    `json:"restarts"`
	LeasesDone int64  `json:"leases_done"`
	CurrentKey string `json:"current_key,omitempty"`
	// HeartbeatAgeMS is milliseconds since the last heartbeat (or lease
	// grant) while busy; -1 otherwise.
	HeartbeatAgeMS int64  `json:"heartbeat_age_ms"`
	LastFault      string `json:"last_fault,omitempty"`
	// Session is the network worker session bound to this slot, if any.
	Session string `json:"session,omitempty"`
	// MetricsSeq is the newest obs sequence number accepted from this
	// worker (0 until metric/span shipping delivers something).
	MetricsSeq int64 `json:"metrics_seq,omitempty"`
}

// Stats is a snapshot of fleet counters for the run report.
type Stats struct {
	// Workers is the configured pool size.
	Workers int
	// Alive is the number of serviceable (non-retired) slots.
	Alive int
	// Leases is the number of leases granted.
	Leases int64
	// Expired is the number of leases that passed their deadline.
	Expired int64
	// Exits is the number of worker process deaths (exit + lost).
	Exits int64
	// Restarts is the number of worker respawns.
	Restarts int64
	// LocalEvals is the number of evaluations answered in-process after
	// a degrade.
	LocalEvals int64
	// Degraded reports whether the fleet fell below MinWorkers and
	// switched to in-process evaluation.
	Degraded bool
	// DegradeDetail is the cause of the degrade.
	DegradeDetail string
	// Reconnects is the number of network-worker session resumes.
	Reconnects int64
	// PartitionExpired is the number of leases parked across a network
	// partition that expired before their worker reconnected.
	PartitionExpired int64
	// DupRefused is the number of duplicate or stale replies refused by
	// the exactly-once dedup: network duplicates, and replies that
	// outlived their lease.
	DupRefused int64
	// FrameErrors is the number of malformed or oversized frames that
	// retired a connection.
	FrameErrors int64
}

// slot is one worker slot's bookkeeping, guarded by Coordinator.mu.
type slot struct {
	id         int
	pid        int
	state      WorkerState
	restarts   int
	leasesDone int64
	currentKey string
	lastBeat   time.Time
	lastFault  string

	// Distributed-observability state (guarded by Coordinator.mu):
	// obsSeq is the newest accepted obs sequence number — frames with
	// an equal or lower sequence are chaos-delayed duplicates or
	// reorders and are dropped — and obsSnap is the worker's latest
	// accepted registry snapshot, kept so each acceptance can merge the
	// delta (not the cumulative total) into the run registry.
	obsSeq  int64
	obsSnap obs.Snapshot

	// The bound worker session, the channel admit hands its
	// connections through, and the live connection (closed by admit
	// when the session redials). Dial-in slots only: the in-flight
	// lease parked across a disconnect, with the timer that expires it.
	session     string
	netCh       chan *netConn
	netLive     net.Conn
	orphan      *lease
	orphanTimer *time.Timer
}

// Coordinator shards evaluations across a pool of worker processes.
// It implements search.Evaluator/SpanEvaluator: construct it with New,
// hand it to core.Options.Fleet (which calls Start and Close around the
// tune), and every Evaluate becomes a lease on the queue.
type Coordinator struct {
	cfg Config
	rt  Runtime
	q   *queue

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// degradedCh closes once, when the fleet degrades to local.
	degradedCh chan struct{}

	mu       sync.Mutex
	started  bool
	slots    []*slot
	attempts map[string]int
	dead     int
	procsUp  int
	degraded bool
	detail   string
	st       Stats

	// Guarded by mu: session → bound slot routing, the set of sessions
	// ever admitted (a re-admission of a known session is a reconnect),
	// and the shared chaos state for accepted connections.
	sessions     map[string]*slot
	seenSessions map[string]bool
	nchaos       *chaos
}

// New validates the configuration and returns an unstarted Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("fleet: Workers must be >= 1 (got %d)", cfg.Workers)
	}
	if (cfg.Spawn == nil) == (cfg.Listener == nil) {
		return nil, fmt.Errorf("fleet: exactly one of Spawn and Listener is required")
	}
	cfg.withDefaults()
	if cfg.Heartbeat < time.Millisecond {
		return nil, fmt.Errorf("fleet: Heartbeat must be at least 1ms (got %v)", cfg.Heartbeat)
	}
	if cfg.MinWorkers > cfg.Workers {
		return nil, fmt.Errorf("fleet: MinWorkers (%d) exceeds Workers (%d)", cfg.MinWorkers, cfg.Workers)
	}
	return &Coordinator{
		cfg:        cfg,
		q:          newQueue(),
		degradedCh: make(chan struct{}),
		attempts:   make(map[string]int),
	}, nil
}

// Start opens the listener and starts the worker slots. ctx bounds the
// fleet's lifetime (the tuner passes its hard-cancellation context);
// Close stops it too.
func (c *Coordinator) Start(ctx context.Context, rt Runtime) error {
	if rt.Local == nil {
		return fmt.Errorf("fleet: Runtime.Local is required")
	}
	if rt.Fingerprint == "" {
		return fmt.Errorf("fleet: Runtime.Fingerprint is required")
	}
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return fmt.Errorf("fleet: already started")
	}
	if c.cfg.Spawn != nil {
		// A spawning fleet is a network fleet on a loopback listener of
		// its own, which its children dial. Code that must tell the two
		// kinds apart tests Spawn.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.mu.Unlock()
			return fmt.Errorf("fleet: loopback listener: %w", err)
		}
		c.cfg.Listener = ln
	}
	c.nchaos = newChaos(c.cfg.Faults)
	c.started = true
	c.rt = rt
	c.st.Workers = c.cfg.Workers
	if ctx == nil {
		ctx = context.Background()
	}
	c.ctx, c.cancel = context.WithCancel(ctx)
	c.sessions = make(map[string]*slot)
	c.seenSessions = make(map[string]bool)
	for i := 0; i < c.cfg.Workers; i++ {
		c.slots = append(c.slots, &slot{id: i, state: StateSpawning, netCh: make(chan *netConn, 1)})
	}
	slots := c.slots
	c.mu.Unlock()
	// The listener dies with the context; closing it is what unblocks
	// the accept loop.
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		<-c.ctx.Done()
		c.cfg.Listener.Close()
	}()
	go c.acceptLoop()
	for _, s := range slots {
		c.wg.Add(1)
		go c.slotLoop(s)
	}
	return nil
}

// Close shuts the fleet down: workers receive a shutdown message (or
// are killed if mid-lease) and are reaped. Idempotent.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	cancel := c.cancel
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	c.wg.Wait()
	// Release anything still parked or queued — orphan timers must not
	// fire after Close, and admitted-but-unclaimed connections must not
	// leak.
	c.mu.Lock()
	for _, s := range c.slots {
		if s.orphanTimer != nil {
			s.orphanTimer.Stop()
			s.orphanTimer = nil
			s.orphan = nil
		}
		select {
		case nc := <-s.netCh:
			nc.tr.Close()
		default:
		}
	}
	c.mu.Unlock()
	return nil
}

// Stats returns a snapshot of the fleet counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Alive = c.cfg.Workers - c.dead
	st.Degraded = c.degraded
	st.DegradeDetail = c.detail
	return st
}

// Health snapshots every worker slot, sorted by ID.
func (c *Coordinator) Health() []WorkerHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	out := make([]WorkerHealth, 0, len(c.slots))
	for _, s := range c.slots {
		h := WorkerHealth{
			ID:         s.id,
			Pid:        s.pid,
			State:      s.state.String(),
			Restarts:   s.restarts,
			LeasesDone: s.leasesDone,
			CurrentKey: s.currentKey,
			LastFault:  s.lastFault,
			Session:    s.session,
			MetricsSeq: s.obsSeq,
		}
		h.HeartbeatAgeMS = -1
		if s.state == StateBusy && !s.lastBeat.IsZero() {
			h.HeartbeatAgeMS = now.Sub(s.lastBeat).Milliseconds()
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DebugHandler serves the fleet health snapshot as JSON, mounted at
// /debug/fleet on the -debug-addr server and polled by `prose
// fleet-status`. All worker state is copied under the coordinator's
// lock (Stats/Health) or read from atomic registry instruments
// (WorkerMetrics), so the handler is safe against concurrent heartbeat
// and obs-merge updates (raced in TestDebugFleetHandlerRace).
func (c *Coordinator) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(FleetStatus{
			Stats:         c.Stats(),
			Workers:       c.Health(),
			WorkerMetrics: c.WorkerMetrics(),
		})
	})
}

// FleetStatus is the /debug/fleet JSON document: fleet counters, the
// per-worker health table, and the merged fleet.workers.* metrics view.
// `prose fleet-status` decodes exactly this.
type FleetStatus struct {
	Stats         Stats          `json:"stats"`
	Workers       []WorkerHealth `json:"workers"`
	WorkerMetrics obs.Snapshot   `json:"worker_metrics,omitempty"`
}

// event fans one fleet event out to the configured observers.
func (c *Coordinator) event(e Event) {
	if fn := c.cfg.OnEvent; fn != nil {
		fn(e)
	}
	if fn := c.rt.OnEvent; fn != nil {
		fn(e)
	}
}

func (c *Coordinator) counter(name string) *obs.Counter { return c.rt.Metrics.Counter(name) }

// setState updates a slot's state and its per-worker obs gauge.
func (c *Coordinator) setState(s *slot, st WorkerState) {
	c.mu.Lock()
	s.state = st
	if st != StateBusy {
		s.currentKey = ""
	}
	c.mu.Unlock()
	c.rt.Metrics.Gauge(fmt.Sprintf("%s%d", obs.GaugeFleetWorkerStatePrefix, s.id)).Set(float64(st))
}

// degrade flips the fleet — once, stickily, and loudly — to in-process
// evaluation.
func (c *Coordinator) degrade(detail string) {
	c.mu.Lock()
	if c.degraded {
		c.mu.Unlock()
		return
	}
	c.degraded = true
	c.detail = detail
	close(c.degradedCh)
	c.mu.Unlock()
	c.rt.Metrics.Gauge(obs.GaugeFleetDegraded).Set(1)
	c.event(Event{Type: EventDegraded, Worker: -1, Detail: detail})
}

func (c *Coordinator) isDegraded() bool {
	select {
	case <-c.degradedCh:
		return true
	default:
		return false
	}
}

// retire permanently removes a slot from the pool, degrading the fleet
// if live capacity fell below the floor.
func (c *Coordinator) retire(s *slot, why string) {
	c.mu.Lock()
	s.state = StateDead
	s.lastFault = why
	c.dead++
	alive := c.cfg.Workers - c.dead
	c.mu.Unlock()
	c.rt.Metrics.Gauge(fmt.Sprintf("%s%d", obs.GaugeFleetWorkerStatePrefix, s.id)).Set(float64(StateDead))
	c.rt.Metrics.Gauge(obs.GaugeFleetWorkersAlive).Set(float64(alive))
	c.event(Event{Type: EventWorkerDead, Worker: s.id, Detail: why})
	if alive < c.cfg.MinWorkers {
		c.degrade(fmt.Sprintf("%d of %d worker(s) remain (floor %d); last: %s",
			alive, c.cfg.Workers, c.cfg.MinWorkers, why))
	}
}

// exitReason says how one worker session ended.
type exitReason int

const (
	exitShutdown  exitReason = iota // orderly: ctx done
	exitMismatch                    // fingerprint handshake failed (no respawn)
	exitCrash                       // process died or misbehaved (respawn)
	exitLost                        // heartbeats stopped (killed; respawn)
	exitExpired                     // lease expired, kill-on-expiry (respawn)
	exitPartition                   // dial-in connection lost (await redial, no restart charge)
)

// slotLoop owns one worker slot, one runWorker pass at a time, until
// the fleet shuts down, the fingerprint mismatches, or the restart
// budget is spent. A spawning slot charges the budget for every other
// exit and backs off before respawning. A dial-in slot charges it only
// for protocol breaches (exitCrash): partitions and expiries are the
// network's fault, not the peer's, and a session may ride out any
// number of them.
func (c *Coordinator) slotLoop(s *slot) {
	defer c.wg.Done()
	spawns := c.cfg.Spawn != nil
	for {
		if c.ctx.Err() != nil {
			c.setState(s, StateStopped)
			return
		}
		c.setState(s, StateSpawning)
		reason, detail := c.runWorker(s)
		switch reason {
		case exitShutdown:
			c.setState(s, StateStopped)
			return
		case exitMismatch:
			c.retire(s, detail)
			return
		}
		c.mu.Lock()
		s.lastFault = detail
		restarts := s.restarts
		c.mu.Unlock()
		if !spawns && reason != exitCrash {
			continue
		}
		if restarts >= c.cfg.MaxRestarts {
			c.retire(s, fmt.Sprintf("restart budget (%d) spent; last: %s", c.cfg.MaxRestarts, detail))
			return
		}
		c.mu.Lock()
		s.restarts++
		c.mu.Unlock()
		c.rt.Metrics.Gauge(fmt.Sprintf("%s%d", obs.GaugeFleetWorkerRestartsPrefix, s.id)).Set(float64(restarts + 1))
		if !spawns {
			continue
		}
		c.counter(obs.MetricFleetRestarts).Add(1)
		c.statAdd(func(st *Stats) { st.Restarts++ })
		c.event(Event{Type: EventWorkerRestart, Worker: s.id, Detail: detail})
		c.setState(s, StateBackoff)
		select {
		case <-time.After(c.cfg.RestartBackoff):
		case <-c.ctx.Done():
			c.setState(s, StateStopped)
			return
		}
	}
}

// runWorker is one pass of a slot: spawn a child if the fleet spawns,
// wait for the slot's connection, serve it, then kill and reap the
// child. A child's session ends with the pass; a dial-in session stays
// bound while a parked lease or a queued reconnect needs it.
func (c *Coordinator) runWorker(s *slot) (exitReason, string) {
	var ch *child
	if c.cfg.Spawn != nil {
		var err error
		if ch, err = c.spawn(s); err != nil {
			detail := fmt.Sprintf("spawn failed: %v", err)
			c.event(Event{Type: EventWorkerExit, Worker: s.id, Kind: resilience.KindGeneric, Detail: detail})
			return exitCrash, detail
		}
		c.setState(s, StateHandshake)
	}
	nc, reason, detail := c.awaitConn(s, ch)
	if nc != nil {
		c.mu.Lock()
		s.netLive = nc.raw
		c.mu.Unlock()
		c.rt.Metrics.Gauge(obs.GaugeFleetWorkersAlive).Set(float64(c.aliveProcs(+1)))
		reason, detail = c.serveWorker(s, nc)
		c.rt.Metrics.Gauge(obs.GaugeFleetWorkersAlive).Set(float64(c.aliveProcs(-1)))
	}
	if ch != nil {
		// Reap before closing the connection, so the child cannot
		// redial into a session that is about to end.
		ch.proc.Kill()
		<-ch.exited
	}
	if nc != nil {
		nc.tr.Close()
	}
	c.mu.Lock()
	if nc != nil && s.netLive == nc.raw {
		s.netLive = nil
	}
	s.pid = 0
	if ch != nil || (s.orphan == nil && len(s.netCh) == 0) {
		c.unbindLocked(s)
	}
	c.mu.Unlock()
	return reason, detail
}

// child is a spawned worker process; exited closes once it is reaped.
type child struct {
	proc   Process
	exited chan struct{}
}

// spawn binds a fresh session to the slot and launches a child that
// dials the listener with it. The session is bound first, so admit
// knows it by the time the child dials.
func (c *Coordinator) spawn(s *slot) (*child, error) {
	session := newSession()
	c.mu.Lock()
	c.bindLocked(s, session)
	c.mu.Unlock()
	proc, err := c.cfg.Spawn(s.id, c.cfg.Listener.Addr().String(), session)
	if err != nil {
		c.mu.Lock()
		c.unbindLocked(s)
		c.mu.Unlock()
		return nil, err
	}
	ch := &child{proc: proc, exited: make(chan struct{})}
	go func() {
		proc.Wait()
		close(ch.exited)
	}()
	c.mu.Lock()
	s.pid = proc.Pid()
	c.mu.Unlock()
	return ch, nil
}

// aliveProcs tracks the live-process count for the workers_alive gauge.
func (c *Coordinator) aliveProcs(delta int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.procsUp += delta
	return c.procsUp
}

func (c *Coordinator) statAdd(fn func(*Stats)) {
	c.mu.Lock()
	fn(&c.st)
	c.mu.Unlock()
}

// workerReader pumps a transport's frames into a channel. err (set
// before msgs closes; the close is the synchronization point) lets the
// consumer distinguish a malformed frame from a plain disconnect.
type workerReader struct {
	msgs chan Msg
	err  error
}

// serveWorker drives one admitted worker connection through its
// leases. Every exit path resolves or parks the in-flight lease (if
// any) before returning, so no Evaluate caller is ever stranded.
func (c *Coordinator) serveWorker(s *slot, nc *netConn) (exitReason, string) {
	tr := nc.tr
	// The reader goroutine exits when Recv fails; runWorker's tr.Close
	// guarantees that on every return path.
	rd := &workerReader{msgs: make(chan Msg, 16)}
	go func() {
		defer close(rd.msgs)
		for {
			m, err := tr.Recv()
			if err != nil {
				rd.err = err
				return
			}
			rd.msgs <- m
		}
	}()

	// A reconnecting dial-in session may still hold a parked lease:
	// re-adopt it and resume driving — without a second grant, because
	// the worker is mid-evaluation (or re-offering its reply) already.
	if l := c.adoptOrphan(s, nc); l != nil {
		reason, detail, next := c.driveLease(s, tr, l, rd)
		if !next {
			return reason, detail
		}
	}

	for {
		c.setState(s, StateIdle)
		l := c.q.acquire(c.ctx, s.id, c.cfg.LeaseTTL)
		if l == nil {
			tr.Send(Msg{Type: MsgShutdown})
			return exitShutdown, ""
		}
		lm := Msg{Type: MsgLease, Lease: l.id, Key: l.job.key, Attempt: l.job.attempt,
			Assignment: l.job.a, DeadlineMS: c.cfg.LeaseTTL.Milliseconds(),
			HeartbeatMS: c.cfg.Heartbeat.Milliseconds(),
			Inject:      c.cfg.Faults.inject(l.job.key, l.job.attempt)}
		if c.rt.Trace != nil || c.rt.Metrics != nil {
			oc := &ObsCtx{Metrics: c.rt.Metrics != nil}
			if c.rt.Trace != nil && l.job.span != 0 {
				oc.SpanID = l.job.span.String()
				oc.Fingerprint = c.rt.Trace.Fingerprint()
			}
			lm.Obs = oc
		}
		if err := tr.Send(lm); err != nil {
			detail := fmt.Sprintf("lease send failed: %v", err)
			c.q.fail(l.id, &WorkerFault{Key: l.job.key, Kind: resilience.KindSchedulerKill,
				Msg: fmt.Sprintf("fleet: worker died before receiving the lease on %q", l.job.key)})
			c.workerDied(s, l.job.key, l.job.attempt, detail)
			if c.cfg.Spawn != nil {
				return exitCrash, detail
			}
			return exitPartition, detail
		}
		c.mu.Lock()
		s.state = StateBusy
		s.currentKey = l.job.key
		s.lastBeat = time.Now()
		c.mu.Unlock()
		c.counter(obs.MetricFleetLeases).Add(1)
		c.statAdd(func(st *Stats) { st.Leases++ })
		c.event(Event{Type: EventLeaseGrant, Worker: s.id, Key: l.job.key, Attempt: l.job.attempt})

		reason, detail, next := c.driveLease(s, tr, l, rd)
		if !next {
			return reason, detail
		}
	}
}

// workerDied records a worker process death (event + counters).
func (c *Coordinator) workerDied(s *slot, key string, attempt int, detail string) {
	c.counter(obs.MetricFleetWorkerExits).Add(1)
	c.statAdd(func(st *Stats) { st.Exits++ })
	c.event(Event{Type: EventWorkerExit, Worker: s.id, Key: key, Attempt: attempt,
		Kind: resilience.KindSchedulerKill, Detail: detail})
}

// driveLease runs one granted lease to its end: a result/fault frame, a
// deadline expiry, heartbeat silence, connection loss, process death,
// or shutdown. It returns next=true when the worker survives to take
// another lease. A child that loses its connection or goes silent is
// killed and its lease failed at once; a dial-in worker's lease is
// parked for the session's reconnect instead. An expired lease ends the
// session too, and a reply the worker still sends for it is refused.
func (c *Coordinator) driveLease(s *slot, tr Transport, l *lease, rd *workerReader) (reason exitReason, detail string, next bool) {
	key, attempt := l.job.key, l.job.attempt
	tick := time.NewTicker(c.cfg.Heartbeat / 2)
	defer tick.Stop()
	lastBeat := time.Now()
	// leaseDone resets the slot's restart budget: a session that
	// completes leases is healthy, so transient faults spread over a
	// long run never add up to a spurious retirement.
	leaseDone := func() {
		c.mu.Lock()
		s.leasesDone++
		s.restarts = 0
		c.mu.Unlock()
	}
	for {
		select {
		case m, ok := <-rd.msgs:
			if !ok {
				var fe *FrameError
				if errors.As(rd.err, &fe) {
					// A malformed or oversized frame is a protocol breach,
					// not a partition: fail the lease and retire the
					// connection (the slot's restart budget bounds a
					// garbage-sending peer).
					det := fe.Error()
					c.counter(obs.MetricFleetNetFrameErrors).Add(1)
					c.statAdd(func(st *Stats) { st.FrameErrors++ })
					c.q.fail(l.id, &WorkerFault{Key: key, Kind: resilience.KindSchedulerKill,
						Msg: fmt.Sprintf("fleet: worker evaluating %q sent a malformed frame; retiring the connection", key)})
					c.workerDied(s, key, attempt, det)
					return exitCrash, det, false
				}
				if c.cfg.Spawn == nil {
					// Connection lost: park the lease so the session's
					// reconnect can re-adopt it; the orphan timer expires
					// it at the original deadline if the worker never
					// returns.
					det := fmt.Sprintf("connection lost during evaluation of %q (attempt %d)", key, attempt)
					c.parkOrphan(s, l)
					c.workerDied(s, key, attempt, det)
					return exitPartition, det, false
				}
				det := fmt.Sprintf("worker exited during evaluation of %q (attempt %d)", key, attempt)
				c.q.fail(l.id, &WorkerFault{Key: key, Kind: resilience.KindSchedulerKill,
					Msg: fmt.Sprintf("fleet: worker evaluating %q was killed before returning a result", key)})
				c.workerDied(s, key, attempt, det)
				return exitCrash, det, false
			}
			c.spliceObs(s, m)
			switch m.Type {
			case MsgHeartbeat:
				lastBeat = time.Now()
				c.mu.Lock()
				s.lastBeat = lastBeat
				c.mu.Unlock()
				c.counter(obs.MetricFleetHeartbeats).Add(1)
			case MsgResult:
				if m.Lease != l.id {
					// A frame for another lease entirely — a network
					// duplicate, or a reply that outlived its lease across
					// a reconnect. The monotonic lease ID refuses it.
					c.dupRefused(s, key, attempt)
					continue
				}
				rec, err := decodeResult(c.rt.Fingerprint, key, m)
				if err != nil {
					// A corrupt result is a protocol breach: fail the lease
					// and replace the process.
					det := err.Error()
					c.q.fail(l.id, &WorkerFault{Key: key, Msg: det})
					c.workerDied(s, key, attempt, det)
					return exitCrash, det, false
				}
				ev, err := rec.Evaluation()
				if err != nil {
					det := err.Error()
					c.q.fail(l.id, &WorkerFault{Key: key, Msg: det})
					c.workerDied(s, key, attempt, det)
					return exitCrash, det, false
				}
				if !c.q.complete(l.id, ev) {
					c.dupRefused(s, key, attempt)
					continue
				}
				leaseDone()
				c.rt.Metrics.Counter(fmt.Sprintf("%s%d", obs.MetricFleetWorkerLeasesPrefix, s.id)).Add(1)
				return 0, "", true
			case MsgFault:
				if m.Lease != l.id {
					c.dupRefused(s, key, attempt)
					continue
				}
				f := &WorkerFault{Key: key, Msg: m.Fault, Persistent: m.Persistent}
				if !c.q.fail(l.id, f) {
					c.dupRefused(s, key, attempt)
					continue
				}
				leaseDone()
				c.mu.Lock()
				s.lastFault = m.Fault
				c.mu.Unlock()
				return 0, "", true
			}
		case <-tick.C:
			now := time.Now()
			if now.After(l.deadline) {
				c.q.fail(l.id, &WorkerFault{Key: key, Kind: resilience.KindHang,
					Msg: fmt.Sprintf("fleet: lease on %q expired after %v; reassigning", key, c.cfg.LeaseTTL)})
				c.counter(obs.MetricFleetLeaseExpired).Add(1)
				c.statAdd(func(st *Stats) { st.Expired++ })
				c.event(Event{Type: EventLeaseExpired, Worker: s.id, Key: key, Attempt: attempt,
					Kind: resilience.KindHang, Detail: fmt.Sprintf("deadline %v passed", c.cfg.LeaseTTL)})
				return exitExpired, fmt.Sprintf("lease on %q expired", key), false
			}
			if now.Sub(lastBeat) > time.Duration(c.cfg.HeartbeatMisses)*c.cfg.Heartbeat {
				det := fmt.Sprintf("no heartbeat for %v (%d misses) during %q; killing worker",
					now.Sub(lastBeat).Round(time.Millisecond), c.cfg.HeartbeatMisses, key)
				if c.cfg.Spawn == nil {
					// Silence over the network is indistinguishable from a
					// partition: sever the connection and park the lease —
					// if the worker is alive behind a partition it will
					// redial and resume; if it is truly wedged the orphan
					// timer expires the lease at its original deadline.
					c.parkOrphan(s, l)
					c.counter(obs.MetricFleetWorkerExits).Add(1)
					c.statAdd(func(st *Stats) { st.Exits++ })
					c.event(Event{Type: EventWorkerLost, Worker: s.id, Key: key, Attempt: attempt,
						Kind: resilience.KindHang, Detail: det})
					return exitPartition, det, false
				}
				c.q.fail(l.id, &WorkerFault{Key: key, Kind: resilience.KindHang,
					Msg: fmt.Sprintf("fleet: worker evaluating %q went silent; killed", key)})
				c.counter(obs.MetricFleetWorkerExits).Add(1)
				c.statAdd(func(st *Stats) { st.Exits++ })
				c.event(Event{Type: EventWorkerLost, Worker: s.id, Key: key, Attempt: attempt,
					Kind: resilience.KindHang, Detail: det})
				return exitLost, det, false
			}
		case <-c.ctx.Done():
			c.q.fail(l.id, &WorkerFault{Key: key,
				Msg: fmt.Sprintf("fleet: shutdown during evaluation of %q", key)})
			return exitShutdown, "", false
		}
	}
}

// spliceObs absorbs one frame's piggybacked observability payload:
// worker spans are rebased onto the coordinator's tracer epoch and
// spliced into this slot's Chrome-trace pid lane, and the worker's
// registry snapshot is delta-merged into the run registry's
// fleet.workers.* namespace. A chaos transport can delay, duplicate,
// or reorder frames, so the worker tags every shipment with a
// monotonic sequence number; anything at or below the newest accepted
// sequence is dropped — a stale snapshot can never overwrite a newer
// one, and a duplicated span batch splices at most once.
func (c *Coordinator) spliceObs(s *slot, m Msg) {
	if m.ObsSeq == 0 {
		return
	}
	c.mu.Lock()
	if m.ObsSeq <= s.obsSeq {
		c.mu.Unlock()
		c.counter(obs.MetricFleetObsStale).Add(1)
		return
	}
	s.obsSeq = m.ObsSeq
	var prev obs.Snapshot
	if m.MetricsSnap != nil {
		prev, s.obsSnap = s.obsSnap, *m.MetricsSnap
	}
	c.mu.Unlock()
	if m.MetricsSnap != nil {
		c.mergeWorkerSnap(s.id, prev, *m.MetricsSnap)
		c.counter(obs.MetricFleetObsSnapshots).Add(1)
	}
	if len(m.Spans) > 0 && c.rt.Trace != nil {
		// Rebase: the worker stamped the frame with its own epoch
		// offset at send time; the difference against our clock now is
		// the epoch skew (plus frame latency, which only shifts the
		// lane slightly and never reorders spans within it).
		offset := c.rt.Trace.Now() - time.Duration(m.TraceNow)
		recs := make([]obs.SpanRecord, len(m.Spans))
		for i, r := range m.Spans {
			r.Start += offset
			if r.Start < 0 {
				r.Start = 0
			}
			r.PID = obs.WorkerPIDBase + s.id
			r.Worker = s.id
			recs[i] = r
		}
		c.rt.Trace.Ingest(recs)
		c.counter(obs.MetricFleetObsSpans).Add(int64(len(recs)))
	}
}

// mergeWorkerSnap folds one accepted worker snapshot into the run
// registry's fleet.workers.* namespace. Counters and histograms are
// cumulative on the worker, so only the delta against the previously
// accepted snapshot is added — the merged view is exact and live (it
// reaches /debug/vars and /debug/fleet mid-run, and the final registry
// snapshot lands in the run report and core.Result.Metrics). A counter
// or histogram that shrank means a restarted worker with a fresh
// registry; its new totals are added whole, since the dead process's
// contributions already landed. Gauges are last-write-wins per slot,
// published as fleet.workers.<name>.w<slot>.
func (c *Coordinator) mergeWorkerSnap(slotID int, prev, cur obs.Snapshot) {
	reg := c.rt.Metrics
	if reg == nil {
		return
	}
	for name, v := range cur.Counters {
		d := v - prev.Counters[name]
		if d < 0 {
			d = v
		}
		if d != 0 {
			reg.Counter(obs.MetricFleetWorkersPrefix + name).Add(d)
		}
	}
	for name, v := range cur.Gauges {
		reg.Gauge(fmt.Sprintf("%s%s.w%d", obs.MetricFleetWorkersPrefix, name, slotID)).Set(v)
	}
	for name, h := range cur.Histograms {
		if d := histDelta(prev.Histograms[name], h); d.Count != 0 {
			reg.Histogram(obs.MetricFleetWorkersPrefix + name).Merge(d)
		}
	}
}

// histDelta computes what a worker histogram gained since the
// previously accepted snapshot. Count, sum, and power-of-two buckets
// are monotonic within one worker process, so they subtract exactly;
// min/max are lifetime values, which widen correctly under Merge. A
// count regression means a restarted worker: the whole new histogram
// is the delta.
func histDelta(prev, cur obs.HistogramSnapshot) obs.HistogramSnapshot {
	if prev.Count == 0 || cur.Count < prev.Count {
		return cur
	}
	d := obs.HistogramSnapshot{
		Count: cur.Count - prev.Count,
		Sum:   cur.Sum - prev.Sum,
		Min:   cur.Min,
		Max:   cur.Max,
	}
	if len(cur.Buckets) > 0 {
		d.Buckets = make(map[int]int64, len(cur.Buckets))
		for e, n := range cur.Buckets {
			if dn := n - prev.Buckets[e]; dn > 0 {
				d.Buckets[e] = dn
			}
		}
	}
	return d
}

// WorkerMetrics returns the merged fleet.workers.* view of every
// worker registry snapshot aggregated so far — the names keep their
// prefix. Empty when metric shipping is off or nothing has arrived.
func (c *Coordinator) WorkerMetrics() obs.Snapshot {
	full := c.rt.Metrics.Snapshot()
	var out obs.Snapshot
	for k, v := range full.Counters {
		if strings.HasPrefix(k, obs.MetricFleetWorkersPrefix) {
			if out.Counters == nil {
				out.Counters = make(map[string]int64)
			}
			out.Counters[k] = v
		}
	}
	for k, v := range full.Gauges {
		if strings.HasPrefix(k, obs.MetricFleetWorkersPrefix) {
			if out.Gauges == nil {
				out.Gauges = make(map[string]float64)
			}
			out.Gauges[k] = v
		}
	}
	for k, v := range full.Histograms {
		if strings.HasPrefix(k, obs.MetricFleetWorkersPrefix) {
			if out.Histograms == nil {
				out.Histograms = make(map[string]obs.HistogramSnapshot)
			}
			out.Histograms[k] = v
		}
	}
	return out
}

// dupRefused records a duplicate or stale reply refused by the
// exactly-once dedup (a network duplicate, or a reply that outlived its
// lease: expired and reassigned, or superseded across a reconnect).
func (c *Coordinator) dupRefused(s *slot, key string, attempt int) {
	c.counter(obs.MetricFleetNetDupRefused).Add(1)
	c.statAdd(func(st *Stats) { st.DupRefused++ })
	c.event(Event{Type: EventDupRefused, Worker: s.id, Key: key, Attempt: attempt,
		Detail: "duplicate or stale frame refused by the exactly-once dedup"})
}

// Evaluate implements search.Evaluator.
func (c *Coordinator) Evaluate(a transform.Assignment) *search.Evaluation {
	return c.EvaluateSpan(nil, a)
}

// EvaluateSpan implements search.SpanEvaluator: one fleet.lease child
// span covers the queue wait and the worker round trip (including
// reassignments of this submission's lease are separate Evaluate calls
// made by the supervisor's retry). A worker failure panics with a
// *WorkerFault for the supervisor; after a degrade the evaluation runs
// in-process on Runtime.Local.
func (c *Coordinator) EvaluateSpan(sp *obs.Span, a transform.Assignment) *search.Evaluation {
	if c.isDegraded() {
		return c.localEval(sp, a)
	}
	key := a.Key()
	c.mu.Lock()
	c.attempts[key]++
	attempt := c.attempts[key]
	c.mu.Unlock()

	fsp := sp.Child(obs.SpanFleetLease)
	fsp.Attr("key", key)
	fsp.AttrInt("attempt", int64(attempt))
	defer fsp.End()

	j := c.q.submit(a, key, attempt, fsp.ID())
	for {
		select {
		case o := <-j.done:
			return c.settle(fsp, a, o)
		case <-c.degradedCh:
			if c.q.withdraw(j) {
				fsp.Attr("outcome", "degraded")
				return c.localEval(sp, a)
			}
			// Already leased: the failing worker path resolves it.
			select {
			case o := <-j.done:
				return c.settle(fsp, a, o)
			case <-c.ctx.Done():
				fsp.Attr("outcome", "cancelled")
				panic(search.NewCancelled(context.Cause(c.ctx)))
			}
		case <-c.ctx.Done():
			fsp.Attr("outcome", "cancelled")
			panic(search.NewCancelled(context.Cause(c.ctx)))
		}
	}
}

// settle turns a job outcome into a return or a supervisor-bound panic.
func (c *Coordinator) settle(fsp *obs.Span, a transform.Assignment, o outcome) *search.Evaluation {
	if o.fault != nil {
		fsp.Attr("outcome", "fault")
		fsp.Attr("kind", kindOrClassify(o.fault))
		panic(o.fault)
	}
	o.ev.Assignment = a
	fsp.Attr("outcome", o.ev.Status.String())
	return o.ev
}

// localEval answers one evaluation in-process (degraded mode).
func (c *Coordinator) localEval(sp *obs.Span, a transform.Assignment) *search.Evaluation {
	c.counter(obs.MetricFleetLocalEvals).Add(1)
	c.statAdd(func(st *Stats) { st.LocalEvals++ })
	return search.Evaluate(c.rt.Local, sp, a)
}
