package core

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// TestFleetNetChaosJournalByteIdentity is PR 8's headline invariant,
// the network edition of TestFleetJournalByteIdentity: a tune whose
// workers dial in over TCP — through a deterministically seeded chaos
// layer injecting latency, drops, duplicates, reorders, and hard
// partition windows — produces an evaluation journal byte-identical to
// the fault-free in-process run's, at pool size 1 and 8. The chaos is
// visible only in the events sidecar (worker_reconnect,
// partition_expired, dup_refused) and the fleet stats; it never
// reaches an outcome.
//
// Like the spawned-fleet edition, the chaos runs enable the distributed
// observability plane (trace context in lease grants, spans and metric
// snapshots shipped back through the chaos layer) while the reference
// run does not: byte identity proves the shipping survives drops,
// duplicates, reorders and partitions without touching the journal.
// Span delivery itself is best-effort under chaos — a dropped
// heartbeat loses its batch — so the assertion is at-least-one, while
// the ObsSeq dedup guarantees duplicated frames never splice twice.
func TestFleetNetChaosJournalByteIdentity(t *testing.T) {
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

	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			// Chaos rates tuned so every failure mode fires on funarc's
			// evaluation stream while supervised retries (budget 10)
			// absorb the partition-expired leases without a quarantine
			// (pinned by the zero-infra assertion below).
			coord, err := fleet.New(fleet.Config{
				Workers:   workers,
				Heartbeat: 50 * time.Millisecond,
				LeaseTTL:  2 * time.Second,
				// Network incidents never charge the restart budget, but
				// garbled in-flight frames during a severed write can;
				// give the chaos run the same headroom as the kill test.
				MaxRestarts:    100,
				RestartBackoff: 20 * time.Millisecond,
				Listener:       ln,
				Faults: &fleet.Faults{
					Seed:         7,
					Drop:         0.05,
					Dup:          0.05,
					Reorder:      0.03,
					Partition:    0.04,
					PartitionFor: 150 * time.Millisecond,
					Delay:        time.Millisecond,
				},
			})
			if err != nil {
				t.Fatal(err)
			}

			// Real tuner workers, dialing in like `prose worker -connect`
			// — in-process goroutines so the test stays hermetic, but on
			// the production ServeNet loop over real TCP connections.
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				tuner, err := New(models.Funarc(), Options{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					fleet.ServeNet(fleet.NetServeConfig{
						Addr:               ln.Addr().String(),
						Eval:               tuner,
						Fingerprint:        tuner.Fingerprint(),
						Session:            fmt.Sprintf("w%d", i),
						HeartbeatMissLimit: 3,
						SendTimeout:        2 * time.Second,
						DialTimeout:        2 * time.Second,
						ReconnectBackoff:   20 * time.Millisecond,
						MaxDials:           50,
					})
				}(i)
			}

			path := filepath.Join(dir, fmt.Sprintf("net%d.jsonl", workers))
			tracer := obs.NewTracer("fleet-net-byte-identity")
			reg := obs.NewRegistry()
			res, err, fault := runJournaled(t, Options{
				Seed: 1, JournalPath: path,
				Parallelism: workers, Fleet: coord,
				Resilience: resilience.Policy{Retries: 10},
				Trace:      tracer, Metrics: reg,
			})
			if err != nil || fault != nil {
				t.Fatalf("network fleet run: err=%v fault=%v", err, fault)
			}
			wg.Wait()

			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, refBytes) {
				t.Errorf("network-chaos journal differs from the fault-free in-process journal")
			}
			if min := fmt.Sprint(res.Outcome.Minimal); min != refMin {
				t.Errorf("minimal set %s, want %s", min, refMin)
			}
			if res.Fleet == nil {
				t.Fatal("Result.Fleet not populated")
			}
			if res.Fleet.Degraded {
				t.Errorf("fleet degraded under chaos: %s", res.Fleet.DegradeDetail)
			}
			// Chaos must cost only retries and reconnects, never
			// outcomes: a quarantine would surface as a StatusInfra
			// record and break byte identity.
			if n := res.Outcome.Log.InfraCount(); n != 0 {
				t.Errorf("%d quarantined assignment(s); want 0", n)
			}
			// The chaos left a trace: at least one network incident in
			// the stats and its event in the sidecar. (Which kinds fire
			// depends on where the seeded windows land relative to the
			// lease stream, so the assertion is on the sum.)
			incidents := res.Fleet.Reconnects + res.Fleet.PartitionExpired + res.Fleet.DupRefused
			if incidents == 0 {
				t.Errorf("no network incidents recorded; the chaos injection did not fire: %+v", res.Fleet)
			}
			_, evs, err := journal.InspectEvents(journal.EventsPath(path))
			if err != nil {
				t.Fatal(err)
			}
			var netEvents int
			for _, e := range evs {
				switch e.Type {
				case fleet.EventWorkerReconnect, fleet.EventPartitionExpired, fleet.EventDupRefused:
					netEvents++
				}
			}
			if netEvents == 0 {
				t.Error("no network events in the sidecar")
			}
			// And in the report.
			if rep := res.Render(); !strings.Contains(rep, "fleet network:") {
				t.Errorf("report lacks the fleet network line:\n%s", rep)
			}
			// Worker spans made it through the chaos layer into their pid
			// lanes (best-effort: at least one survives the drop rate).
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
			// Worker metric snapshots merged despite duplicated and
			// reordered frames; the cumulative-snapshot + ObsSeq design
			// makes the final merged counts exact, not best-effort.
			snap := reg.Snapshot()
			h, ok := snap.Histograms[obs.MetricFleetWorkersPrefix+obs.HistEvalRunNS]
			if !ok || h.Count == 0 {
				t.Errorf("merged worker histogram %s%s missing or empty",
					obs.MetricFleetWorkersPrefix, obs.HistEvalRunNS)
			}
		})
	}
}

// TestFleetSpawnedPartitionJournalByteIdentity pins what network faults
// do to spawned children, whose connections pass through the same
// fault layer as dial-in workers'. A partition (or a dropped lease or
// reply) costs a child its connection, which the coordinator treats as
// a crash: it fails the lease for reassignment, kills and reaps the
// child, and respawns the slot against its restart budget. The journal
// stays byte-identical, and the faults show as restarts.
func TestFleetSpawnedPartitionJournalByteIdentity(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	if _, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: refPath}); err != nil || fault != nil {
		t.Fatalf("reference run: err=%v fault=%v", err, fault)
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spawned.jsonl")
	coord := newFleet(t, 2, &fleet.Faults{Seed: 7, Drop: 0.02, Dup: 0.05, Reorder: 0.02,
		Partition: 0.03, PartitionFor: 150 * time.Millisecond})
	res, err, fault := runJournaled(t, Options{
		Seed: 1, JournalPath: path, Parallelism: 2, Fleet: coord,
		Resilience: resilience.Policy{Retries: 10},
	})
	if err != nil || fault != nil {
		t.Fatalf("fleet run: err=%v fault=%v", err, fault)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refBytes) {
		t.Error("journal of spawned children under network faults differs from the fault-free journal")
	}
	if n := res.Outcome.Log.InfraCount(); n != 0 {
		t.Errorf("%d quarantined assignment(s); want 0", n)
	}
	if st := res.Fleet; st.Restarts == 0 || st.Degraded {
		t.Errorf("fleet stats %+v; want restarts > 0 and no degrade", st)
	}
}
