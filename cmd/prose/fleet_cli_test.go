package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets this test binary stand in for the prose executable when
// `cmdTune -workers` spawns workers: the coordinator re-execs
// os.Executable() — the test binary — with "worker" argv and
// PROSE_FLEET_WORKER=1 in the environment, and this hook routes that
// invocation into the real cmdWorker.
func TestMain(m *testing.M) {
	if os.Getenv("PROSE_FLEET_WORKER") == "1" && len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := cmdWorker(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "prose worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTuneWorkersJournalMatchesInProcess runs the full CLI path: `tune
// -workers 2` with injected worker kills must write the same journal
// bytes as the plain in-process tune.
func TestTuneWorkersJournalMatchesInProcess(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.jsonl")
	if err := cmdTune([]string{"-model", "funarc", "-journal", ref}); err != nil {
		t.Fatalf("in-process tune: %v", err)
	}
	fleetPath := filepath.Join(dir, "fleet.jsonl")
	if err := cmdTune([]string{"-model", "funarc", "-journal", fleetPath,
		"-workers", "2", "-fleet-faults", "kill=0.15,seed=7"}); err != nil {
		t.Fatalf("fleet tune: %v", err)
	}
	a, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(fleetPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("fleet journal differs from in-process journal")
	}
	// The fleet trail must be inspectable after the fact.
	if err := cmdJournal([]string{fleetPath}); err != nil {
		t.Fatalf("journal summary: %v", err)
	}
}

// TestTuneFleetFaultsUsageErrors: a -fleet-faults spec with an unknown
// key or an unparsable value, or one given without -workers, is a usage
// error before any tune starts.
func TestTuneFleetFaultsUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "2", "-fleet-faults", "kill=0.1,crash=k"}, "crash"},
		{[]string{"-workers", "2", "-fleet-faults", "drop=often"}, "drop"},
		{[]string{"-fleet-faults", "kill=0.1"}, "-workers"},
	} {
		err := cmdTune(append([]string{"-model", "funarc"}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("tune %v: err = %v, want a usage error naming %s", tc.args, err, tc.want)
		}
	}
}

// pickPort reserves a free loopback port and releases it for the CLI
// under test to bind. (The small race with another process is
// acceptable in a test.)
func pickPort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestTuneListenJournalMatchesInProcess runs the full network CLI path:
// `tune -listen` with network faults, plus two `worker -connect`
// subprocesses (this test binary re-execed, exactly as a remote host
// would run them), must write the same journal bytes as the plain
// in-process tune.
func TestTuneListenJournalMatchesInProcess(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.jsonl")
	if err := cmdTune([]string{"-model", "funarc", "-journal", ref}); err != nil {
		t.Fatalf("in-process tune: %v", err)
	}

	addr := pickPort(t)
	netPath := filepath.Join(dir, "net.jsonl")
	tuneDone := make(chan error, 1)
	go func() {
		tuneDone <- cmdTune([]string{"-model", "funarc", "-journal", netPath,
			"-workers", "2", "-listen", addr,
			"-lease-ttl", "2s", "-worker-heartbeat", "50ms",
			"-fleet-faults", "drop=0.02,dup=0.05,reorder=0.02,seed=7"})
	}()

	var workers []*exec.Cmd
	for i := 1; i <= 2; i++ {
		cmd := exec.Command(os.Args[0], "worker",
			"-connect", addr, "-model", "funarc", "-seed", "1",
			"-session", fmt.Sprintf("w%d", i),
			"-reconnect-backoff", "20ms", "-max-dials", "50")
		cmd.Stderr = os.Stderr
		cmd.Env = append(os.Environ(), "PROSE_FLEET_WORKER=1")
		if err := cmd.Start(); err != nil {
			t.Fatalf("start worker %d: %v", i, err)
		}
		workers = append(workers, cmd)
	}

	select {
	case err := <-tuneDone:
		if err != nil {
			t.Fatalf("network tune: %v", err)
		}
	case <-time.After(5 * time.Minute):
		t.Fatal("network tune did not finish")
	}
	for i, cmd := range workers {
		if err := cmd.Wait(); err != nil {
			t.Errorf("worker %d exit: %v", i+1, err)
		}
	}

	a, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(netPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("network-fleet journal differs from in-process journal")
	}
	if err := cmdJournal([]string{netPath}); err != nil {
		t.Fatalf("journal summary: %v", err)
	}
}
