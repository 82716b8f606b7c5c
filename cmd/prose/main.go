// Command prose is the PROSE-Go precision tuner CLI: it applies the
// paper's automated, performance-guided FPPT cycle to the bundled
// weather/climate model surrogates (or funarc).
//
// Usage:
//
//	prose models                       list the bundled tuning targets
//	prose baseline -model NAME         profile the baseline (Table I data)
//	prose atoms    -model NAME         list the search atoms
//	prose tune     -model NAME [...]   run the delta-debugging search
//	prose variant  -model NAME [...]   generate and print one variant
//	prose reduce   -model NAME -targets a,b  taint-based program reduction
//	prose profile  [MODEL]             shadow-execution numeric error profile
//	prose journal  <path>              inspect a journal + events sidecar
//	prose trace    <path>              analyze a span trace from tune -trace
//	prose fleet-status <addr>          live fleet view from a tune -debug-addr
//	prose runs     -ledger DIR [RUN]   list a run ledger / show one run's manifest
//	prose compare  -ledger DIR A B     diff two archived runs, gate on regression
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/blame"
	"repro/internal/core"
	"repro/internal/fleet"
	ft "repro/internal/fortran"
	"repro/internal/gptl"
	"repro/internal/journal"
	"repro/internal/ledger"
	"repro/internal/models"
	"repro/internal/numerics"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/search"
	"repro/internal/transform"
	"repro/internal/viz"
)

// Exit codes. A supervised search that failed fast still prints its
// partial report before exiting; scripts distinguish the abort kinds. A
// cancelled run (signal or wall-clock budget) exits 5 after flushing a
// resumable journal, so a scheduler can chain a -resume job on it.
const (
	exitErr        = 1 // generic failure
	exitUsage      = 2 // bad invocation
	exitBreaker    = 3 // resilience circuit breaker tripped
	exitQuarantine = 4 // resilience quarantine budget exhausted
	exitCancelled  = 5 // orderly shutdown: signal or wall-clock budget
	exitRegression = 6 // prose compare found a regression beyond thresholds
)

// exitCodeFor maps a command error to the process exit code.
func exitCodeFor(err error) int {
	if err == nil {
		return 0
	}
	var abort *resilience.AbortError
	if errors.As(err, &abort) {
		if abort.Reason == resilience.AbortQuarantine {
			return exitQuarantine
		}
		return exitBreaker
	}
	var cancelled *search.Cancelled
	if errors.As(err, &cancelled) {
		return exitCancelled
	}
	var reg *regressionError
	if errors.As(err, &reg) {
		return exitRegression
	}
	return exitErr
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(exitUsage)
	}
	var err error
	switch os.Args[1] {
	case "models":
		err = cmdModels()
	case "baseline":
		err = cmdBaseline(os.Args[2:])
	case "atoms":
		err = cmdAtoms(os.Args[2:])
	case "tune":
		err = cmdTune(os.Args[2:])
	case "worker":
		err = cmdWorker(os.Args[2:])
	case "variant":
		err = cmdVariant(os.Args[2:])
	case "reduce":
		err = cmdReduce(os.Args[2:])
	case "blame":
		err = cmdBlame(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "journal":
		err = cmdJournal(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "fleet-status":
		err = cmdFleetStatus(os.Args[2:])
	case "runs":
		err = cmdRuns(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "prose: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(exitUsage)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "prose:", err)
		os.Exit(exitCodeFor(err))
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: prose <command> [flags]

commands:
  models     list the bundled tuning targets
  baseline   profile a model baseline (hotspot share, per-procedure times)
  atoms      list a model's search atoms (tunable FP declarations)
  tune       run the delta-debugging precision-tuning search
  worker     serve evaluations to a tune coordinator over TCP (spawned by
             tune -workers, or dialing a tune -listen address with -connect)
  variant    apply a precision assignment and print the generated source
  reduce     taint-based program reduction for target variables (paper III-C)
  blame      one-at-a-time precision sensitivity ranking (ADAPT-style)
  profile    shadow-execution numeric diagnosis: per-statement FP error,
             cancellation sites, and a one-run atom ranking
  journal    inspect a crash-safe journal and its resilience events sidecar
  trace      analyze a span trace written by tune -trace (critical path, phases)
  fleet-status
             poll a running tune -debug-addr for live fleet health: per-worker
             state, leases, reconnects, and the merged worker metrics
  runs       list a tune -ledger run archive, or show one run's manifest and
             its per-round search funnel
  compare    judge one archived run against a baseline run with regression
             thresholds (exit code 6 on regression)

run 'prose <command> -h' for flags.
`)
}

func modelFlag(fs *flag.FlagSet) *string {
	return fs.String("model", "funarc", "tuning target: funarc, mpas-a, adcirc, mom6")
}

func getModel(name string) (*models.Model, error) { return models.ByName(name) }

func cmdModels() error {
	for _, m := range models.All() {
		fmt.Printf("%-8s  hotspot %-22s  %s\n", m.Name, m.Hotspot, m.Description)
		fmt.Printf("          paper workload: %s\n", m.Paper)
	}
	return nil
}

func cmdBaseline(args []string) error {
	fs := flag.NewFlagSet("baseline", flag.ExitOnError)
	name := modelFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := getModel(*name)
	if err != nil {
		return err
	}
	t, err := core.New(m, core.Options{Seed: 1})
	if err != nil {
		return err
	}
	bl := t.BaselineInfo()
	fmt.Printf("model %s: %d search atoms in %s\n", m.Name, bl.AtomCount, m.Hotspot)
	fmt.Printf("baseline: %.0f simulated cycles, hotspot %.0f (%.1f%%)\n",
		bl.TotalCycles, bl.HotspotCycles, 100*bl.HotspotShare)
	fmt.Printf("correctness metric: %s (threshold %.3e)\n", m.MetricName, bl.Threshold)
	fmt.Printf("%-52s %10s %14s %12s\n", "region", "calls", "self", "self/call")
	for _, r := range bl.Regions {
		fmt.Printf("%-52s %10d %14.0f %12.1f\n", r.Name, r.Calls, r.Self, r.PerCall())
	}
	return nil
}

func cmdAtoms(args []string) error {
	fs := flag.NewFlagSet("atoms", flag.ExitOnError)
	name := modelFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := getModel(*name)
	if err != nil {
		return err
	}
	prog, err := m.Parse()
	if err != nil {
		return err
	}
	atoms := transform.Atoms(prog, m.Hotspot)
	for _, a := range atoms {
		kind := fmt.Sprintf("real(kind=%d)", a.Decl.Kind)
		shape := "scalar"
		if a.Decl.IsArray() {
			shape = fmt.Sprintf("rank-%d array", len(a.Decl.Dims))
		}
		fmt.Printf("%-60s %-14s %s\n", a.QName, kind, shape)
	}
	fmt.Printf("%d atoms\n", len(atoms))
	return nil
}

func cmdTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	name := modelFlag(fs)
	whole := fs.Bool("whole-model", false, "guide the search by whole-model time (paper IV-C)")
	seed := fs.Int64("seed", 1, "seed for the Eq. (1) runtime-noise model")
	budget := fs.Int("budget", 0, "max distinct variant evaluations (0 = model default)")
	par := fs.Int("par", 1, "concurrent variant evaluations (results are identical at any level)")
	journalPath := fs.String("journal", "", "crash-safe evaluation journal (append-only JSONL; checkpoint at <path>.ckpt, resilience events at <path>.events)")
	resume := fs.Bool("resume", false, "replay an existing -journal to where it stopped, then continue")
	policy := resilience.Flags(fs)
	wallBudget := fs.Duration("wall-budget", 0, "stop the whole run in an orderly fashion after this wall-clock time (exit code 5, journal stays resumable; 0 = unlimited)")
	tracePath := fs.String("trace", "", "write a span trace to this file (Chrome trace_event JSON; analyze with 'prose trace' or chrome://tracing)")
	debugAddr := fs.String("debug-addr", "", "serve /debug/vars, /debug/metrics and /debug/pprof on this address for the duration of the run (e.g. localhost:6060)")
	progressEvery := fs.Duration("progress", 0, "print a live progress heartbeat to stderr at this interval (0 = off)")
	numericsOn := fs.Bool("numerics", false, "shadow-execute every variant and attach numeric_* diagnostics to spans and metrics (diagnostic only: journal bytes unchanged)")
	ledgerDir := fs.String("ledger", "", "archive this run's manifest into the run ledger at DIR (inspect with 'prose runs' / 'prose compare'); with -journal, also streams decision telemetry to <journal>.decisions")
	decisionsPath := fs.String("decisions", "", "stream per-round search-decision telemetry to this file (byte-stable across -par and -resume; journal bytes unchanged)")
	workers := fs.Int("workers", 0, "shard variant evaluation across N 'prose worker' processes (0 = in-process); worker crashes become supervised retries and the journal stays byte-identical")
	leaseTTL := fs.Duration("lease-ttl", fleet.DefaultLeaseTTL, "fleet: wall-clock budget per leased evaluation; an expired lease is failed as a hang fault and reassigned")
	workerHeartbeat := fs.Duration("worker-heartbeat", fleet.DefaultHeartbeat, "fleet: worker heartbeat interval (at least 1ms), sent to every worker with its lease (a silent worker is declared lost and replaced)")
	workerRestarts := fs.Int("worker-restarts", fleet.DefaultMaxRestarts, "fleet: respawns per worker slot before it is retired")
	minWorkers := fs.Int("min-workers", 1, "fleet: live-worker floor; below it the coordinator degrades to in-process evaluation (surfaced in the events sidecar, never silent)")
	listen := fs.String("listen", "", "fleet: accept -workers N off-host workers over TCP on this address instead of spawning them; workers dial in with 'prose worker -connect'")
	fleetFaults := fs.String("fleet-faults", "", "fleet fault injection for tests and smoke runs (needs -workers), as key=value,...: seed=N (default 1) drives every decision; kill=P SIGKILLs a worker before it evaluates, per key and attempt; wedge=KEY freezes the worker leased KEY on its first attempt; drop=P, dup=P, reorder=P and partition=P act per frame, delay=D on every frame; a partition severs the connection and hangs up on dials for partition-for=D (default 150ms)")
	verbose := fs.Bool("v", false, "print each variant as it joins the evaluation log, in journal order (the same lines at any -par or -workers)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *journalPath == "" {
		return fmt.Errorf("tune: -resume requires -journal")
	}
	pol, err := policy()
	if err != nil {
		return fmt.Errorf("tune: %w", err)
	}
	faults, err := fleet.ParseFaults(*fleetFaults)
	if err != nil {
		return fmt.Errorf("tune: -fleet-faults: %w", err)
	}
	if faults != nil && *workers == 0 {
		return fmt.Errorf("tune: -fleet-faults needs -workers N")
	}
	m, err := getModel(*name)
	if err != nil {
		return err
	}
	opts := core.Options{
		Seed: *seed, WholeModel: *whole, MaxEvaluations: *budget,
		Parallelism: *par, JournalPath: *journalPath, Resume: *resume,
		Resilience: pol, Numerics: *numericsOn,
		LedgerDir: *ledgerDir, DecisionPath: *decisionsPath,
	}
	if opts.LedgerDir != "" && opts.DecisionPath == "" && *journalPath != "" {
		opts.DecisionPath = ledger.DecisionPath(*journalPath)
	}
	// Observability is strictly out-of-band: neither the tracer nor the
	// registry is part of the run fingerprint, and enabling them must
	// not change a single journal byte (test-enforced).
	if *tracePath != "" || *debugAddr != "" || *progressEvery > 0 || *numericsOn || *ledgerDir != "" {
		opts.Metrics = obs.NewRegistry()
	}
	if *tracePath != "" {
		opts.Trace = obs.NewTracer(fmt.Sprintf("model=%s seed=%d", m.Name, *seed))
	}
	if *verbose {
		opts.Progress = func(ev *search.Evaluation) {
			fmt.Printf("  variant %5.1f%% 32-bit: %-7s speedup %6.3f  err %9.3e  %s\n",
				ev.Pct32(), ev.Status, ev.Speedup, ev.RelError, ev.Detail)
		}
	}

	// Deadline layers: SIGINT/SIGTERM cancel the run's context for a
	// graceful shutdown (the batch scheduler's pre-kill warning lands
	// here), and -wall-budget arms a self-imposed deadline below the
	// scheduler's hard job limit. Both trigger the same orderly stop:
	// drain (bounded by -drain-grace), flush the journal and a final
	// checkpoint, print the partial report, exit 5.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *wallBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *wallBudget)
		defer cancel()
	}
	// Once the orderly stop has begun, restore default signal handling
	// so a second ^C (or a follow-up SIGTERM) kills the process hard
	// instead of being swallowed by the drain.
	go func() {
		<-ctx.Done()
		stopSignals()
	}()

	// -workers: build the worker fleet. The children are this very
	// binary running `prose worker` with the flags that shape the
	// evaluation stream (model, seed, whole-model, budget); a
	// fingerprint handshake on every connection rejects any drift. Fleet
	// knobs, like parallelism, are not fingerprinted — the journal is
	// byte-identical at any pool size.
	var coord *fleet.Coordinator
	if *listen != "" && *workers == 0 {
		return fmt.Errorf("tune: -listen needs -workers N (the expected pool size)")
	}
	if *workers > 0 {
		if opts.Parallelism < *workers {
			// Fewer search slots than workers would leave workers idle.
			opts.Parallelism = *workers
		}
		fcfg := fleet.Config{
			Workers:     *workers,
			LeaseTTL:    *leaseTTL,
			Heartbeat:   *workerHeartbeat,
			MaxRestarts: *workerRestarts,
			MinWorkers:  *minWorkers,
			Faults:      faults,
			OnEvent: func(e fleet.Event) {
				if e.Type == fleet.EventDegraded {
					fmt.Fprintf(os.Stderr, "prose: fleet degraded to in-process evaluation: %s\n", e.Detail)
				}
			},
		}
		if *listen != "" {
			// -listen: off-host workers dial in over TCP instead of
			// being spawned. The fingerprint handshake still rejects
			// drift.
			ln, lerr := net.Listen("tcp", *listen)
			if lerr != nil {
				return fmt.Errorf("tune: -listen: %w", lerr)
			}
			fcfg.Listener = ln
			fmt.Fprintf(os.Stderr, "prose: fleet listening on %s for %d worker(s); connect with: prose worker -connect %s -model %s -seed %d\n",
				ln.Addr(), *workers, ln.Addr(), m.Name, *seed)
		} else {
			exe, xerr := os.Executable()
			if xerr != nil {
				return fmt.Errorf("tune: -workers: %w", xerr)
			}
			wargs := []string{"worker",
				"-model", m.Name,
				fmt.Sprintf("-seed=%d", *seed),
				fmt.Sprintf("-budget=%d", *budget),
			}
			if *whole {
				wargs = append(wargs, "-whole-model")
			}
			fcfg.Spawn = fleet.Command(exe, wargs...)
		}
		coord, err = fleet.New(fcfg)
		if err != nil {
			return fmt.Errorf("tune: %w", err)
		}
		opts.Fleet = coord
	}

	t, err := core.New(m, opts)
	if err != nil {
		return err
	}

	if *debugAddr != "" {
		var extras []obs.DebugHandler
		if coord != nil {
			extras = append(extras, obs.DebugHandler{Pattern: "/debug/fleet", Handler: coord.DebugHandler()})
		}
		dbg, derr := obs.ServeDebug(*debugAddr, opts.Metrics, extras...)
		if derr != nil {
			return fmt.Errorf("tune: -debug-addr: %w", derr)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug: serving metrics and pprof on http://%s/debug/metrics\n", dbg.Addr())
	}
	var heartbeat *obs.Progress
	if *progressEvery > 0 {
		heartbeat = obs.NewProgress(os.Stderr, *progressEvery, opts.Metrics, int64(t.EvaluationBudget()))
		heartbeat.Start()
	}

	res, err := t.Run(ctx)

	// Stop the heartbeat before the report so the final progress line
	// cannot interleave with it; flush the trace even on a cancelled or
	// aborted run — a partial trace of a failed run is the useful one.
	heartbeat.Stop()
	if opts.Trace != nil {
		if werr := opts.Trace.WriteFile(*tracePath); werr != nil {
			if err == nil {
				err = fmt.Errorf("tune: writing trace: %w", werr)
			} else {
				fmt.Fprintf(os.Stderr, "prose: writing trace: %v\n", werr)
			}
		} else {
			fmt.Fprintf(os.Stderr, "trace: %d span(s) written to %s\n", opts.Trace.Len(), *tracePath)
		}
	}
	if res == nil {
		return err
	}
	// Graceful degradation: a supervised abort (tripped breaker,
	// exhausted quarantine budget) still returns the partial result —
	// print the report and best-so-far, then surface the abort as the
	// exit status so scripts notice the search did not finish.
	if res.Resumed > 0 {
		fmt.Printf("resumed: %d evaluation(s) replayed from %s, %d run fresh\n",
			res.Resumed, *journalPath, len(res.Outcome.Log.Evals)-res.Resumed)
	}
	fmt.Print(res.Render())
	return err
}

func cmdVariant(args []string) error {
	fs := flag.NewFlagSet("variant", flag.ExitOnError)
	name := modelFlag(fs)
	lower := fs.String("lower", "", "comma-separated atoms to lower to 32-bit, or 'all'")
	keep := fs.String("keep", "", "comma-separated atoms kept at 64-bit (with -lower all)")
	diff := fs.Bool("diff", false, "print only changed declarations instead of full source")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := getModel(*name)
	if err != nil {
		return err
	}
	prog, err := m.Parse()
	if err != nil {
		return err
	}
	atoms := transform.Atoms(prog, m.Hotspot)
	var a transform.Assignment
	if *lower == "all" {
		a = transform.Uniform(atoms, 4)
	} else {
		a = transform.Assignment{}
		for _, q := range splitList(*lower) {
			a[q] = 4
		}
	}
	for _, q := range splitList(*keep) {
		a[q] = 8
	}
	v, err := transform.Apply(prog, a)
	if err != nil {
		return err
	}
	if *diff {
		printDeclDiff(prog, v.Prog)
	} else {
		fmt.Print(ft.Print(v.Prog))
	}
	fmt.Fprintf(os.Stderr, "(%d wrapper(s) inserted)\n", v.Wrappers)
	return nil
}

// printDeclDiff prints declaration changes in the paper's Fig. 3 style.
func printDeclDiff(base, variant *ft.Program) {
	baseKinds := map[string]int{}
	for _, d := range ft.RealDecls(base) {
		baseKinds[d.QName()] = d.Kind
	}
	var lines []string
	for _, d := range ft.RealDecls(variant) {
		if old, ok := baseKinds[d.QName()]; ok && old != d.Kind {
			lines = append(lines, fmt.Sprintf("- real(kind=%d) :: %s\n+ %s", old, d.QName(), ft.DeclString(d)))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	for _, w := range transform.WrapperNames(variant) {
		fmt.Printf("+ wrapper %s\n", w)
	}
}

func cmdReduce(args []string) error {
	fs := flag.NewFlagSet("reduce", flag.ExitOnError)
	name := modelFlag(fs)
	targets := fs.String("targets", "", "comma-separated target variable qualified names")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *targets == "" {
		return fmt.Errorf("reduce: -targets is required")
	}
	m, err := getModel(*name)
	if err != nil {
		return err
	}
	prog, err := m.Parse()
	if err != nil {
		return err
	}
	red, stats, err := transform.Reduce(prog, splitList(*targets))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s\n", stats)
	fmt.Print(ft.Print(red))
	return nil
}

func cmdBlame(args []string) error {
	fs := flag.NewFlagSet("blame", flag.ExitOnError)
	name := modelFlag(fs)
	seed := fs.Int64("seed", 1, "noise seed")
	limit := fs.Int("top", 15, "show the top N atoms (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := getModel(*name)
	if err != nil {
		return err
	}
	rep, err := blame.Analyze(m, core.Options{Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Print(rep.Render(*limit))
	return nil
}

// cmdProfile runs the shadow-execution numeric diagnosis: ONE
// instrumented run of the (default all-float32) variant with a float64
// shadow lane, reporting per-statement error introduction, cancellation
// sites, non-finite provenance, and the one-run atom ranking.
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	name := modelFlag(fs)
	lower := fs.String("lower", "all", "comma-separated atoms to lower to 32-bit, or 'all'")
	top := fs.Int("top", 10, "show the top N statements/atoms (0 = all)")
	cancelBits := fs.Float64("cancel-bits", numerics.DefaultCancelBits,
		"bits of magnitude collapse that count as a cancellation")
	format := fs.String("format", "text", "output format: text (human-readable) or json (machine-readable dump)")
	htmlPath := fs.String("html", "", "also write a per-procedure error heatmap to this HTML file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 1 {
		*name = fs.Arg(0)
	}
	m, err := getModel(*name)
	if err != nil {
		return err
	}
	sopts := blame.ShadowOptions{Numerics: numerics.Options{CancelBits: *cancelBits}}
	if *lower != "all" {
		a := transform.Assignment{}
		for _, q := range splitList(*lower) {
			a[q] = 4
		}
		sopts.Assignment = a
	}
	rep, err := blame.ShadowAnalyze(m, sopts)
	if err != nil {
		return err
	}

	switch *format {
	case "text":
		fmt.Print(rep.Profile.Render(*top))
		fmt.Println()
		fmt.Print(rep.Render(*top))
	case "json":
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	default:
		return fmt.Errorf("profile: unknown -format %q (want text or json)", *format)
	}

	if *htmlPath != "" {
		h := rep.Profile.Heatmap()
		page := viz.Page(fmt.Sprintf("numeric error heatmap: %s", m.Name), h.HTML())
		if err := os.WriteFile(*htmlPath, []byte(page), 0o644); err != nil {
			return fmt.Errorf("profile: writing heatmap: %w", err)
		}
		fmt.Fprintf(os.Stderr, "heatmap: written to %s\n", *htmlPath)
	}
	return nil
}

// cmdJournal inspects a crash-safe journal plus its checkpoint and
// resilience events sidecar, read-only: record/status counts, resume
// state, and the retry/backoff/quarantine/watchdog telemetry that the
// byte-deterministic journal proper deliberately excludes.
func cmdJournal(args []string) error {
	fs := flag.NewFlagSet("journal", flag.ExitOnError)
	path := fs.String("journal", "", "journal path to inspect (or pass it as the positional argument)")
	records := fs.Bool("records", false, "also list every journaled evaluation")
	format := fs.String("format", "text", "output format: text (human-readable) or json (machine-readable dump)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" && fs.NArg() == 1 {
		*path = fs.Arg(0)
	}
	if *path == "" {
		return fmt.Errorf("journal: usage: prose journal <path>")
	}
	switch *format {
	case "text":
		// fall through to the plain-text path below, which stays
		// byte-identical to what it printed before -format existed
	case "json":
		return journalJSON(*path, *records)
	default:
		return fmt.Errorf("journal: unknown -format %q (want text or json)", *format)
	}

	h, recs, err := journal.Inspect(*path)
	if err != nil {
		return err
	}
	fmt.Printf("journal %s\n", *path)
	fmt.Printf("  model: %s  fingerprint: %.12s...\n", h.Model, h.Fingerprint)
	counts := map[string]int{}
	for _, r := range recs {
		counts[r.Status]++
	}
	fmt.Printf("  evaluations: %d  (%s)\n", len(recs), formatCounts(counts))
	if *records {
		for _, r := range recs {
			fmt.Printf("  %4d  %-7s  speedup %6.3f  err %9.3e  lowered %d/%d  %s\n",
				r.Index, r.Status, r.Speedup, r.RelError, r.Lowered, r.TotalAtoms, r.Detail)
		}
	}

	if ck, ok, err := journal.LoadCheckpoint(journal.CheckpointPath(*path)); err != nil {
		fmt.Printf("  checkpoint: unreadable (%v)\n", err)
	} else if !ok {
		fmt.Printf("  checkpoint: none\n")
	} else if ck.Done {
		fmt.Printf("  checkpoint: done after %d evaluation(s), converged=%v, minimal set %d atom(s)\n",
			ck.Evaluations, ck.Converged, len(ck.Minimal))
	} else {
		fmt.Printf("  checkpoint: in progress at %d evaluation(s) — resumable with -resume\n", ck.Evaluations)
	}

	epath := journal.EventsPath(*path)
	_, evs, err := journal.InspectEvents(epath)
	if os.IsNotExist(err) {
		fmt.Printf("  events: no sidecar (run was not supervised)\n")
		return nil
	}
	if err != nil {
		return err
	}
	byType := map[string]int{}
	byKind := map[string]int{}
	var totalBackoff time.Duration
	for _, e := range evs {
		byType[eventType(e)]++
		if e.Kind != "" {
			byKind[e.Kind]++
		}
		totalBackoff += time.Duration(e.BackoffNS)
	}
	fmt.Printf("events %s\n", epath)
	fmt.Printf("  total: %d  (%s)\n", len(evs), formatCounts(byType))
	if len(byKind) > 0 {
		fmt.Printf("  fault kinds: %s\n", formatCounts(byKind))
	}
	if byType[journal.EventRetry] > 0 {
		fmt.Printf("  backoff: %v slept across %d retry(ies)\n", totalBackoff, byType[journal.EventRetry])
	}
	if n := byType[journal.EventWatchdog]; n > 0 {
		fmt.Printf("  watchdog: %d hung attempt(s) abandoned\n", n)
	}
	if n := byType[journal.EventSalvaged]; n > 0 {
		fmt.Printf("  salvaged: %d evaluation(s) rescued from aborted batches\n", n)
	}
	if n := byType[journal.EventCancelled]; n > 0 {
		fmt.Printf("  cancelled: %d orderly shutdown(s) recorded\n", n)
	}
	if n := byType[fleet.EventLeaseGrant]; n > 0 {
		fmt.Printf("  fleet: %d lease(s) granted, %d expired\n", n, byType[fleet.EventLeaseExpired])
		deaths := byType[fleet.EventWorkerExit] + byType[fleet.EventWorkerLost]
		if deaths+byType[fleet.EventWorkerRestart]+byType[fleet.EventWorkerDead] > 0 {
			fmt.Printf("  fleet workers: %d death(s), %d restart(s), %d retired\n",
				deaths, byType[fleet.EventWorkerRestart], byType[fleet.EventWorkerDead])
		}
		if n := byType[fleet.EventWorkerReconnect] + byType[fleet.EventPartitionExpired] + byType[fleet.EventDupRefused]; n > 0 {
			fmt.Printf("  fleet network: %d reconnect(s), %d partition-expired lease(s), %d duplicate or stale reply(ies) refused\n",
				byType[fleet.EventWorkerReconnect], byType[fleet.EventPartitionExpired], byType[fleet.EventDupRefused])
		}
		if n := byType[fleet.EventDegraded]; n > 0 {
			fmt.Printf("  fleet DEGRADED to in-process evaluation (%d transition(s))\n", n)
		}
	}
	return nil
}

// lateResultEvent is the event type older sidecars gave a reply that
// outlived its lease. The dedup refusing it is now one event,
// fleet.EventDupRefused, and older sidecars are counted that way.
const lateResultEvent = "late_result"

// eventType is a sidecar event's type, with lateResultEvent read as
// fleet.EventDupRefused.
func eventType(e journal.EventRecord) string {
	if e.Type == lateResultEvent {
		return fleet.EventDupRefused
	}
	return e.Type
}

// journalDump is the machine-readable shape of 'prose journal -format
// json': the same facts the text report prints, plus a metrics map
// keyed by the internal/obs counter names so a journal inspected after
// the fact and a live run's metrics snapshot aggregate the same way.
type journalDump struct {
	Path        string                `json:"path"`
	Model       string                `json:"model,omitempty"`
	Fingerprint string                `json:"fingerprint"`
	Evaluations int                   `json:"evaluations"`
	Statuses    map[string]int        `json:"statuses"`
	Metrics     map[string]int64      `json:"metrics"`
	Checkpoint  *journal.Checkpoint   `json:"checkpoint,omitempty"`
	Records     []journal.Record      `json:"records,omitempty"`
	Events      []journal.EventRecord `json:"events,omitempty"`
}

// journalJSON implements 'prose journal -format json'. It is a
// separate function from the text path so the default text output
// cannot drift: that path is untouched.
func journalJSON(path string, records bool) error {
	h, recs, err := journal.Inspect(path)
	if err != nil {
		return err
	}
	dump := journalDump{
		Path:        path,
		Model:       h.Model,
		Fingerprint: h.Fingerprint,
		Evaluations: len(recs),
		Statuses:    map[string]int{},
		Metrics:     map[string]int64{},
	}
	dump.Metrics[obs.MetricEvals] = int64(len(recs))
	for _, r := range recs {
		dump.Statuses[r.Status]++
		dump.Metrics[obs.MetricEvalsPrefix+r.Status]++
	}
	if records {
		dump.Records = recs
	}
	if ck, ok, err := journal.LoadCheckpoint(journal.CheckpointPath(path)); err == nil && ok {
		dump.Checkpoint = &ck
	}
	if _, evs, err := journal.InspectEvents(journal.EventsPath(path)); err == nil {
		dump.Events = evs
		for _, e := range evs {
			typ := eventType(e)
			dump.Metrics[obs.MetricEventsPrefix+typ]++
			switch typ {
			case journal.EventRetry:
				dump.Metrics[obs.MetricRetries]++
				if e.Kind != "" {
					dump.Metrics[obs.MetricRetriesPrefix+e.Kind]++
				}
			case journal.EventQuarantine:
				dump.Metrics[obs.MetricQuarantined]++
			case journal.EventSalvaged:
				dump.Metrics[obs.MetricSalvaged]++
			case fleet.EventLeaseGrant:
				dump.Metrics[obs.MetricFleetLeases]++
			case fleet.EventLeaseExpired:
				dump.Metrics[obs.MetricFleetLeaseExpired]++
			case fleet.EventWorkerExit, fleet.EventWorkerLost:
				dump.Metrics[obs.MetricFleetWorkerExits]++
			case fleet.EventWorkerRestart:
				dump.Metrics[obs.MetricFleetRestarts]++
			case fleet.EventWorkerReconnect:
				dump.Metrics[obs.MetricFleetNetReconnects]++
			case fleet.EventPartitionExpired:
				dump.Metrics[obs.MetricFleetNetPartitionExpired]++
			case fleet.EventDupRefused:
				dump.Metrics[obs.MetricFleetNetDupRefused]++
			}
		}
	}
	b, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// cmdTrace analyzes a span trace written by 'prose tune -trace': span
// counts, the critical path through each root, and a per-phase
// self/inclusive time table in the gptl timing-report format. The
// telescoping self-time definition (self = duration minus the sum of
// direct children) guarantees the self column sums exactly to the root
// span's duration.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	path := fs.String("trace", "", "trace path to analyze (or pass it as the positional argument)")
	top := fs.Int("top", 0, "limit the per-phase table to the top N phases by self time (0 = all)")
	tree := fs.Bool("tree", false, "also print the span tree")
	depth := fs.Int("depth", 4, "span tree depth limit (with -tree)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" && fs.NArg() == 1 {
		*path = fs.Arg(0)
	}
	if *path == "" {
		return fmt.Errorf("trace: usage: prose trace <path>")
	}

	recs, meta, err := obs.LoadTrace(*path)
	if err != nil {
		return err
	}
	fmt.Printf("trace %s\n", *path)
	if fp := meta["fingerprint"]; fp != "" {
		fmt.Printf("  run: %s\n", fp)
	}
	roots := obs.BuildTree(recs)
	fmt.Printf("  spans: %d in %d tree(s)  (%s)\n", len(recs), len(roots), formatCounts(obs.CountByName(recs)))

	// A distributed run's trace carries worker-side spans in their own
	// pid lanes (obs.WorkerPIDBase+slot); summarize the processes so a
	// cross-process trace is legible before opening chrome://tracing.
	byPID := map[int]int{}
	for _, r := range recs {
		byPID[r.PID]++
	}
	if len(byPID) > 1 {
		pids := make([]int, 0, len(byPID))
		for pid := range byPID {
			pids = append(pids, pid)
		}
		sort.Ints(pids)
		parts := make([]string, 0, len(pids))
		for _, pid := range pids {
			label := "coordinator"
			if pid >= obs.WorkerPIDBase {
				label = fmt.Sprintf("worker pid %d (slot %d)", pid, pid-obs.WorkerPIDBase)
			}
			parts = append(parts, fmt.Sprintf("%s %d span(s)", label, byPID[pid]))
		}
		fmt.Printf("  processes: %s\n", strings.Join(parts, "; "))
	}

	for _, root := range roots {
		fmt.Printf("  root %s: %v\n", root.Rec.Name, root.Rec.Dur.Round(time.Microsecond))
		cp := obs.CriticalPath(root)
		parts := make([]string, len(cp))
		for i, n := range cp {
			parts[i] = fmt.Sprintf("%s %v", n.Rec.Name, n.Rec.Dur.Round(time.Microsecond))
		}
		fmt.Printf("  critical path: %s\n", strings.Join(parts, " -> "))
	}

	fmt.Printf("\nper-phase times (self telescopes to the root duration):\n")
	table := gptl.FormatRegions(obs.PhaseRegions(roots))
	if *top > 0 {
		lines := strings.SplitAfter(table, "\n")
		if len(lines) > *top+1 { // header + top rows
			table = strings.Join(lines[:*top+1], "")
		}
	}
	fmt.Print(table)

	if *tree {
		fmt.Printf("\nspan tree (depth <= %d):\n", *depth)
		for _, root := range roots {
			fmt.Print(obs.RenderTree(root, *depth))
		}
	}
	return nil
}

// cmdFleetStatus polls a running coordinator's /debug/fleet endpoint
// (served by tune -debug-addr) and renders a live fleet view: pool
// stats, per-worker health, and the merged fleet.workers.* metrics the
// workers ship piggybacked on their heartbeats. One sample by default;
// -watch re-polls and derives a leases/s throughput between samples.
func cmdFleetStatus(args []string) error {
	fs := flag.NewFlagSet("fleet-status", flag.ExitOnError)
	addr := fs.String("addr", "", "tune -debug-addr address to poll (or pass it as the positional argument)")
	format := fs.String("format", "text", "output format: text (human-readable) or json (raw /debug/fleet document)")
	watch := fs.Duration("watch", 0, "re-poll at this interval instead of sampling once (0 = once)")
	count := fs.Int("count", 0, "with -watch: stop after N samples (0 = until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" && fs.NArg() == 1 {
		*addr = fs.Arg(0)
	}
	if *addr == "" {
		return fmt.Errorf("fleet-status: usage: prose fleet-status <debug-addr>")
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("fleet-status: unknown -format %q (want text or json)", *format)
	}
	url := "http://" + *addr + "/debug/fleet"
	var (
		prevLeases int64
		prevAt     time.Time
	)
	for sample := 1; ; sample++ {
		st, err := fetchFleetStatus(url)
		if err != nil {
			return fmt.Errorf("fleet-status: %w", err)
		}
		now := time.Now()
		switch *format {
		case "json":
			b, merr := json.MarshalIndent(st, "", "  ")
			if merr != nil {
				return merr
			}
			fmt.Println(string(b))
		default:
			leasesPerSec := -1.0
			if sample > 1 {
				if dt := now.Sub(prevAt).Seconds(); dt > 0 {
					leasesPerSec = float64(st.Stats.Leases-prevLeases) / dt
				}
			}
			renderFleetStatus(*addr, st, leasesPerSec)
		}
		prevLeases, prevAt = st.Stats.Leases, now
		if *watch <= 0 || (*count > 0 && sample >= *count) {
			return nil
		}
		time.Sleep(*watch)
	}
}

// fetchFleetStatus GETs and decodes one /debug/fleet document.
func fetchFleetStatus(url string) (*fleet.FleetStatus, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var st fleet.FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", url, err)
	}
	return &st, nil
}

// renderFleetStatus prints the text view of one /debug/fleet sample.
// leasesPerSec < 0 means "no previous sample" and omits the line.
func renderFleetStatus(addr string, st *fleet.FleetStatus, leasesPerSec float64) {
	s := st.Stats
	fmt.Printf("fleet @ %s\n", addr)
	fmt.Printf("  workers: %d/%d alive   leases: %d granted, %d expired\n",
		s.Alive, s.Workers, s.Leases, s.Expired)
	if s.Exits+s.Restarts+s.Reconnects+s.PartitionExpired+s.DupRefused+s.FrameErrors > 0 {
		fmt.Printf("  faults: %d death(s), %d restart(s), %d reconnect(s), %d partition-expired, %d dup refused, %d frame error(s)\n",
			s.Exits, s.Restarts, s.Reconnects, s.PartitionExpired, s.DupRefused, s.FrameErrors)
	}
	if s.Degraded {
		fmt.Printf("  DEGRADED to in-process evaluation (%d local eval(s)): %s\n", s.LocalEvals, s.DegradeDetail)
	}
	if leasesPerSec >= 0 {
		fmt.Printf("  throughput: %.2f lease(s)/s since last sample\n", leasesPerSec)
	}
	fmt.Printf("  %3s %-9s %7s %-10s %7s %9s %9s %8s  %s\n",
		"id", "state", "pid", "session", "leases", "restarts", "hb-age", "obs-seq", "last fault")
	for _, w := range st.Workers {
		hb, pid, sess, fault := "-", "-", w.Session, w.LastFault
		if w.HeartbeatAgeMS >= 0 {
			hb = (time.Duration(w.HeartbeatAgeMS) * time.Millisecond).String()
		}
		if w.Pid != 0 {
			pid = strconv.Itoa(w.Pid)
		}
		if sess == "" {
			sess = "-"
		}
		if fault == "" {
			fault = "-"
		}
		fmt.Printf("  %3d %-9s %7s %-10s %7d %9d %9s %8d  %s\n",
			w.ID, w.State, pid, sess, w.LeasesDone, w.Restarts, hb, w.MetricsSeq, fault)
	}
	renderWorkerMetrics(st.WorkerMetrics)
}

// renderWorkerMetrics prints the merged worker-shipped registry slice
// (the coordinator already filtered it to the fleet.workers.* namespace).
func renderWorkerMetrics(s obs.Snapshot) {
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) == 0 {
		return
	}
	fmt.Printf("  worker metrics (merged):\n")
	ck := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		ck = append(ck, k)
	}
	sort.Strings(ck)
	for _, k := range ck {
		fmt.Printf("    %-52s %12d\n", k, s.Counters[k])
	}
	gk := make([]string, 0, len(s.Gauges))
	for k := range s.Gauges {
		gk = append(gk, k)
	}
	sort.Strings(gk)
	for _, k := range gk {
		fmt.Printf("    %-52s %12g\n", k, s.Gauges[k])
	}
	hk := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		hk = append(hk, k)
	}
	sort.Strings(hk)
	for _, k := range hk {
		h := s.Histograms[k]
		q := h.Quantiles()
		fmt.Printf("    %-52s n=%d mean=%.0f min=%.0f max=%.0f p50=%.0f p95=%.0f p99=%.0f\n",
			k, h.Count, h.Mean, h.Min, h.Max, q.P50, q.P95, q.P99)
	}
}

// formatCounts renders a count map as "k1 n1  k2 n2", keys sorted.
func formatCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s %d", k, m[k])
	}
	return strings.Join(parts, "  ")
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}
