// Command bench is the tuner's benchmark. It runs four workloads, each
// stressing different layers of a tune, prints every end-to-end metric
// with its unit, and checks every tune's journal and result against a
// reference. With -trace it adds a traced rep per workload, replays it
// layer by layer from outside the tuner, and prints the per-layer
// metrics. Metric names, units and regression bounds are declared in the
// repository's BENCHMARK.json.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1|DIR] [-results FILE]
//	bash bench/run.sh -calibrate K [-workload NAME] [-seed N]
//	bash bench/run.sh -update-golden
//	bash bench/run.sh compare A.jsonl B.jsonl
//
// -seconds defaults to run_seconds in BENCHMARK.json. The last line of
// standard output is the result as one JSON object.
// See bench/README.md.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/models"
)

//go:embed golden.json
var goldenJSON []byte

// Exit codes.
const (
	exitFailed     = 1 // a tune failed its check, or the run could not finish
	exitUsage      = 2
	exitRegression = 6 // compare found a regression (as `prose compare`)
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(cmdCompare(os.Args[2:]))
	}
	os.Exit(cmdRun(os.Args[1:]))
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default: all)")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs: the tuner's noise seed(s)")
	secs := fs.Float64("seconds", 0, "least time spent measuring each workload; reps repeat until it has passed (default: run_seconds in BENCHMARK.json)")
	trace := fs.String("trace", "", `traced rep and layer replay: "1" writes traces to .bench_build/trace, a directory writes them there; "" or "0" is off`)
	prose := fs.String("prose", "", "prose CLI for fleet workers (default: build cmd/prose into .bench_build)")
	results := fs.String("results", "", "append each workload's result to this JSONL file (input to compare)")
	calibrate := fs.Int("calibrate", 0, "run each workload K times, seeds seed..seed+K-1, and print each end-to-end metric's relative IQR (K >= 5)")
	update := fs.Bool("update-golden", false, "rewrite bench/golden.json from uninterrupted seed-1 reference tunes")
	child := fs.Bool("child", false, "run one workload in this process and print its raw result (the parent starts one such process per workload)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", fs.Args())
		return exitUsage
	}
	selected := workloads
	if *name != "" {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return exitUsage
		}
		selected = []workload{w}
	}
	if *calibrate != 0 && *calibrate < 5 {
		fmt.Fprintln(os.Stderr, "bench: -calibrate needs K >= 5")
		return exitUsage
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitFailed
	}
	build := filepath.Join(root, ".bench_build")

	if *child {
		return runChild(selected[0], root, runConfig{Seed: *seed, Seconds: *secs, TraceDir: *trace, Prose: *prose})
	}
	if *update {
		if err := updateGolden(root); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return exitFailed
		}
		return 0
	}

	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitFailed
	}
	if *secs == 0 {
		*secs = sp.RunSeconds
	}
	traceDir := ""
	switch *trace {
	case "", "0":
	case "1":
		traceDir = filepath.Join(build, "trace")
	default:
		traceDir = *trace
	}
	if traceDir != "" {
		if traceDir, err = filepath.Abs(traceDir); err == nil {
			err = os.MkdirAll(traceDir, 0o755)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: -trace:", err)
			return exitFailed
		}
	}
	for _, w := range selected {
		if w.Workers > 0 && *prose == "" {
			if *prose, err = buildProse(root, build); err != nil {
				fmt.Fprintln(os.Stderr, "bench: building cmd/prose:", err)
				return exitFailed
			}
		}
	}
	p := parent{spec: sp, seconds: *secs, traceDir: traceDir, prose: *prose, results: *results}
	if *calibrate > 0 {
		return p.calibrate(selected, *seed, *calibrate)
	}
	return p.run(selected, *seed)
}

// findRoot walks up from the working directory to the go.mod of module
// repro.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && modulePath(raw) == "repro" {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("no go.mod of module repro at or above the working directory: run inside the repository")
		}
		dir = up
	}
}

func modulePath(gomod []byte) string {
	sc := bufio.NewScanner(bytes.NewReader(gomod))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	return ""
}

func buildProse(root, build string) (string, error) {
	out := filepath.Join(build, "prose")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/prose")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return out, cmd.Run()
}

// runChild measures one workload in this process and prints its raw
// outcome as JSON.
func runChild(w workload, root string, cfg runConfig) int {
	golden, err := parseGolden(goldenJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitFailed
	}
	cfg.Golden = golden
	cfg.Work = filepath.Join(root, ".bench_build", fmt.Sprintf("work-%s-%d", w.Name, os.Getpid()))
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitFailed
	}
	defer os.RemoveAll(cfg.Work)
	out, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return exitFailed
	}
	out.Values["peak_rss_mb"] = peakRSSMB()
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitFailed
	}
	return 0
}

// peakRSSMB is the larger of this process's peak resident set and that of
// its largest reaped child (fleet workers), in MB.
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return float64(max(self.Maxrss, kids.Maxrss)) * 1024 / 1e6 // Maxrss is in KiB
}

// updateGolden rewrites bench/golden.json from uninterrupted in-process
// par-1 tunes at seed 1: the references every workload's tunes must match.
func updateGolden(root string) error {
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(build, "golden-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	golden := make(map[string]digest)
	for _, w := range workloads {
		m, err := models.ByName(w.Model)
		if err != nil {
			return err
		}
		for i := 0; i < w.Tunes; i++ {
			seed := int64(1 + i)
			d, err := referenceTune(m, w.Budget, seed, work)
			if err != nil {
				return err
			}
			golden[goldenKey(w.Name, seed)] = d
			fmt.Fprintf(os.Stderr, "golden %s seed %d: %d evaluations, journal %.12s\n", w.Name, seed, d.Evals, d.Journal)
		}
	}
	raw, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "bench", "golden.json"), append(raw, '\n'), 0o644)
}
