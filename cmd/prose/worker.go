package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/fleet"
)

// cmdWorker serves evaluations to a `prose tune` coordinator over TCP,
// reconnecting with session resume on connection loss. `prose tune
// -workers N` spawns it with -connect, -session and -max-dials 1
// against the tune's own loopback listener; under `prose tune -listen`
// it is started by hand, on any host, and dials that address.
//
// The flags that shape the evaluation stream (model, seed, whole-model,
// budget) must match the coordinator's; the fingerprint
// handshake on every connection rejects any drift. The coordinator
// sends everything else a lease needs: its heartbeat interval, and
// under `prose tune -fleet-faults` the fault to inject.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	name := modelFlag(fs)
	whole := fs.Bool("whole-model", false, "guide the search by whole-model time (must match the coordinator)")
	seed := fs.Int64("seed", 1, "seed for the Eq. (1) runtime-noise model (must match the coordinator)")
	budget := fs.Int("budget", 0, "max distinct variant evaluations (must match the coordinator)")
	connect := fs.String("connect", "", "the coordinator's address, as printed by 'prose tune -listen' (required)")
	session := fs.String("session", "", "stable session ID for lease resume across reconnects (default: random)")
	missLimit := fs.Int("heartbeat-miss-limit", fleet.DefaultHeartbeatMissLimit, "consecutive failed heartbeat sends before the worker reconnects")
	reconnectBackoff := fs.Duration("reconnect-backoff", fleet.DefaultReconnectBackoff, "base backoff between dial attempts (doubles, capped)")
	maxDials := fs.Int("max-dials", fleet.DefaultMaxDials, "dial attempts per reconnect before giving up")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" {
		return fmt.Errorf("worker: -connect is required")
	}
	m, err := getModel(*name)
	if err != nil {
		return err
	}
	if os.Getenv("PROSE_FLEET_WORKER") == "1" {
		// fleet.Command spawned us, so the coordinator owns this
		// process's lifetime: a ^C at the terminal reaches the whole
		// process group, but the orderly path is the coordinator's
		// shutdown frame (or it killing us), not the worker racing it to
		// exit mid-lease. A worker started by hand keeps default signal
		// handling.
		signal.Ignore(os.Interrupt, syscall.SIGTERM)
	}
	t, err := core.New(m, core.Options{
		Seed: *seed, WholeModel: *whole, MaxEvaluations: *budget,
	})
	if err != nil {
		return err
	}
	return fleet.ServeNet(fleet.NetServeConfig{
		Addr:               *connect,
		Eval:               t,
		Fingerprint:        t.Fingerprint(),
		Session:            *session,
		HeartbeatMissLimit: *missLimit,
		ReconnectBackoff:   *reconnectBackoff,
		MaxDials:           *maxDials,
	})
}
