package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/search"
)

// TestMain doubles as the fleet worker executable: the fleet tests
// spawn this test binary through fleet.Command with
// FLEET_TUNER_WORKER=1 in the environment, and the worker runs a real
// funarc tuner behind the production fleet.ServeNet loop — so the
// byte-identity test below exercises the exact stack `prose tune
// -workers` ships: child spawn, loopback TCP, fingerprint handshake,
// heartbeats, SIGKILLed workers, lease reassignment.
func TestMain(m *testing.M) {
	if os.Getenv("FLEET_TUNER_WORKER") == "1" {
		if err := runTunerWorker(); err != nil {
			fmt.Fprintln(os.Stderr, "tuner worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runTunerWorker() error {
	fs := flag.NewFlagSet("tuner-worker", flag.ContinueOnError)
	addr := fs.String("connect", "", "coordinator address")
	session := fs.String("session", "", "session ID")
	maxDials := fs.Int("max-dials", 0, "dial attempts per reconnect")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	t, err := New(models.Funarc(), Options{Seed: 1})
	if err != nil {
		return err
	}
	return fleet.ServeNet(fleet.NetServeConfig{
		Addr:        *addr,
		Session:     *session,
		MaxDials:    *maxDials,
		Eval:        t,
		Fingerprint: t.Fingerprint(),
	})
}

// tunerSpawn spawns the test binary as a real-tuner worker through
// fleet.Command.
func tunerSpawn(t *testing.T) fleet.SpawnFunc {
	t.Setenv("FLEET_TUNER_WORKER", "1")
	return fleet.Command(os.Args[0])
}

// newFleet builds a spawning fleet of real-tuner workers that injects
// faults (nil = none).
func newFleet(t *testing.T, workers int, faults *fleet.Faults) *fleet.Coordinator {
	t.Helper()
	coord, err := fleet.New(fleet.Config{
		Workers:   workers,
		Spawn:     tunerSpawn(t),
		Faults:    faults,
		Heartbeat: 50 * time.Millisecond,
		// With one worker, every injected death lands on the same slot;
		// give it headroom so routine kills never retire the pool.
		MaxRestarts:    100,
		RestartBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// TestFleetJournalByteIdentity is the fleet's acceptance test and the
// ISSUE's headline invariant: a tune whose worker subprocesses are
// SIGKILLed at random produces an evaluation journal byte-identical to
// the fault-free in-process run's — at pool size 1 and 8 — with the
// deaths visible only in the events sidecar and the fleet stats.
//
// The fleet runs enable the full distributed observability plane
// (coordinator tracer + registry, so lease grants propagate trace
// context and workers ship spans and metric snapshots back) while the
// reference run enables none of it: byte identity against the
// uninstrumented journal proves trace and metric shipping are strictly
// out-of-band.
func TestFleetJournalByteIdentity(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	refRes, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: refPath})
	if err != nil || fault != nil {
		t.Fatalf("reference run: err=%v fault=%v", err, fault)
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	refMin := fmt.Sprint(refRes.Outcome.Minimal)

	// Kill-rate/seed chosen to produce several worker deaths on funarc's
	// evaluation stream without exhausting any per-key retry budget
	// (verified by the zero-quarantine assertion below).
	faults := &fleet.Faults{KillRate: 0.15, Seed: 7}

	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("fleet%d.jsonl", workers))
			coord := newFleet(t, workers, faults)
			tracer := obs.NewTracer("fleet-byte-identity")
			reg := obs.NewRegistry()
			res, err, fault := runJournaled(t, Options{
				Seed: 1, JournalPath: path,
				Parallelism: workers, Fleet: coord,
				Trace: tracer, Metrics: reg,
			})
			if err != nil || fault != nil {
				t.Fatalf("fleet run: err=%v fault=%v", err, fault)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, refBytes) {
				t.Errorf("fleet journal differs from the fault-free in-process journal")
			}
			if min := fmt.Sprint(res.Outcome.Minimal); min != refMin {
				t.Errorf("minimal set %s, want %s", min, refMin)
			}
			if res.Fleet == nil {
				t.Fatal("Result.Fleet not populated")
			}
			if res.Fleet.Exits == 0 {
				t.Errorf("no worker deaths recorded; the fault injection did not fire")
			}
			if res.Fleet.Degraded {
				t.Errorf("fleet degraded: %s", res.Fleet.DegradeDetail)
			}
			// Worker deaths must cost only retries, never outcomes: a
			// quarantine would surface as a StatusInfra journal record and
			// break byte identity.
			if n := res.Outcome.Log.InfraCount(); n != 0 {
				t.Errorf("%d quarantined assignment(s); want 0", n)
			}
			// The deaths are visible in the sidecar — and only there.
			_, evs, err := journal.InspectEvents(journal.EventsPath(path))
			if err != nil {
				t.Fatal(err)
			}
			var exits, grants int
			for _, e := range evs {
				switch e.Type {
				case fleet.EventWorkerExit, fleet.EventWorkerLost:
					exits++
					if e.Worker < 1 || e.Worker > workers { // 1-based on the wire
						t.Errorf("exit event names worker slot %d of %d", e.Worker, workers)
					}
				case fleet.EventLeaseGrant:
					grants++
				}
			}
			if exits == 0 || grants == 0 {
				t.Errorf("sidecar: %d worker_exit, %d lease_grant; want both > 0", exits, grants)
			}
			// And in the report.
			if rep := res.Render(); !strings.Contains(rep, "fleet:") {
				t.Errorf("report lacks the fleet line:\n%s", rep)
			}
			// Worker spans were shipped back, rebased, and spliced into
			// the coordinator's trace in their own pid lanes.
			var workerSpans int
			for _, r := range tracer.Drain() {
				if r.Name == obs.SpanWorkerEval {
					if r.PID < obs.WorkerPIDBase || r.PID >= obs.WorkerPIDBase+workers {
						t.Errorf("worker.eval span in pid lane %d; want [%d,%d)",
							r.PID, obs.WorkerPIDBase, obs.WorkerPIDBase+workers)
					}
					workerSpans++
				}
			}
			if workerSpans == 0 {
				t.Error("no worker.eval spans spliced into the coordinator trace")
			}
			// Worker registries were merged under fleet.workers.*.
			snap := reg.Snapshot()
			if n := snap.Counters[obs.MetricFleetObsSpans]; n == 0 {
				t.Error("fleet_obs_spans counter is zero; span shipping never counted")
			}
			h, ok := snap.Histograms[obs.MetricFleetWorkersPrefix+obs.HistEvalRunNS]
			if !ok || h.Count == 0 {
				t.Errorf("merged worker histogram %s%s missing or empty",
					obs.MetricFleetWorkersPrefix, obs.HistEvalRunNS)
			}
			if res.Metrics == nil || res.Metrics.Counters[obs.MetricFleetObsSnapshots] == 0 {
				t.Error("Result.Metrics lacks the merged fleet_obs_snapshots counter")
			}
		})
	}
}

// TestFleetDegradeFallsBackInProcess: when every spawn fails, the
// coordinator degrades to in-process evaluation — loudly (sidecar event,
// stats) but harmlessly: the journal still matches the fault-free run.
func TestFleetDegradeFallsBackInProcess(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	if _, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: refPath}); err != nil || fault != nil {
		t.Fatalf("reference run: err=%v fault=%v", err, fault)
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	coord, err := fleet.New(fleet.Config{
		Workers: 2,
		Spawn: func(id int, addr, session string) (fleet.Process, error) {
			return nil, fmt.Errorf("cluster full")
		},
		MaxRestarts:    1,
		RestartBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "degraded.jsonl")
	res, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: path, Fleet: coord})
	if err != nil || fault != nil {
		t.Fatalf("degraded run: err=%v fault=%v", err, fault)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refBytes) {
		t.Error("degraded-run journal differs from the fault-free journal")
	}
	if res.Fleet == nil || !res.Fleet.Degraded {
		t.Fatalf("Result.Fleet = %+v; want Degraded", res.Fleet)
	}
	if res.Fleet.LocalEvals == 0 {
		t.Error("no local evaluations counted after the degrade")
	}
	if rep := res.Render(); !strings.Contains(rep, "DEGRADED") {
		t.Errorf("report does not surface the degrade:\n%s", rep)
	}
	// The degrade left its mark in the sidecar: never silent.
	_, evs, err := journal.InspectEvents(journal.EventsPath(path))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range evs {
		if e.Type == fleet.EventDegraded {
			found = true
		}
	}
	if !found {
		t.Error("no degraded_to_local event in the sidecar")
	}
}

// TestFleetWedgedWorkerJournalIdentity drives the heartbeat-loss path
// through the full tuner: one evaluation wedges its worker (heartbeats
// stop), the coordinator kills and replaces it, and the journal still
// matches the fault-free run.
func TestFleetWedgedWorkerJournalIdentity(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	refRes, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: refPath})
	if err != nil || fault != nil {
		t.Fatalf("reference run: err=%v fault=%v", err, fault)
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	// Wedge the third evaluation of the reference stream (any journaled
	// key works; a mid-stream one exercises reassignment under load).
	recs := refRes.Outcome.Log.Evals
	if len(recs) < 3 {
		t.Fatal("reference run too short")
	}
	wedgeKey := recs[2].Assignment.Key()

	path := filepath.Join(dir, "wedge.jsonl")
	coord := newFleet(t, 2, &fleet.Faults{WedgeKey: wedgeKey})
	res, err, fault := runJournaled(t, Options{
		Seed: 1, JournalPath: path, Parallelism: 2, Fleet: coord,
	})
	if err != nil || fault != nil {
		t.Fatalf("wedge run: err=%v fault=%v", err, fault)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refBytes) {
		t.Error("wedge-run journal differs from the fault-free journal")
	}
	if res.Fleet.Exits == 0 {
		t.Error("wedged worker was never declared lost")
	}
}

// TestProgressFollowsJournalOrder: Options.Progress reports every
// journaled variant once, in the journal's record order, whoever
// evaluated it: in-process at par 1 and 8, or on a spawned fleet.
func TestProgressFollowsJournalOrder(t *testing.T) {
	dir := t.TempDir()
	run := func(name string, opts Options) []string {
		t.Helper()
		var keys []string
		opts.Seed, opts.JournalPath = 1, filepath.Join(dir, name+".jsonl")
		opts.Progress = func(ev *search.Evaluation) { keys = append(keys, ev.Assignment.Key()) }
		if _, err, fault := runJournaled(t, opts); err != nil || fault != nil {
			t.Fatalf("%s: err=%v fault=%v", name, err, fault)
		}
		return keys
	}
	par1 := run("par1", Options{Parallelism: 1})
	_, recs, err := journal.Inspect(filepath.Join(dir, "par1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(recs))
	for i, r := range recs {
		want[i] = r.AKey
	}
	if !reflect.DeepEqual(par1, want) {
		t.Errorf("par 1 Progress keys differ from the journal's record order:\n  got  %q\n  want %q", par1, want)
	}
	if got := run("par8", Options{Parallelism: 8}); !reflect.DeepEqual(got, want) {
		t.Errorf("par 8 Progress keys differ from the journal's:\n  got  %q\n  want %q", got, want)
	}
	if got := run("fleet", Options{Parallelism: 2, Fleet: newFleet(t, 2, nil)}); !reflect.DeepEqual(got, want) {
		t.Errorf("fleet Progress keys differ from the journal's:\n  got  %q\n  want %q", got, want)
	}
}
