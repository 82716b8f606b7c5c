// Command experiments regenerates every table and figure of the paper's
// evaluation from the bundled surrogates and substrates:
//
//	Table I    hotspot summary statistics
//	Table II   variants explored per search, outcome shares, best speedup
//	Figure 2   funarc brute-force sweep
//	Figure 5   per-model speedup-error scatter
//	Figure 6   per-procedure per-call performance
//	Figure 7   whole-model-guided MPAS-A search
//	+ the §V static-filter ablation and the Eq. (1) noise study
//
// With -html DIR it also writes standalone HTML visualizations, like the
// paper artifact's "interactive HTML visualizations reproducing
// Figures 5-7".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/resilience"
	"repro/internal/search"
)

func main() {
	seed := flag.Int64("seed", 1, "noise seed for all searches")
	htmlDir := flag.String("html", "", "directory to write HTML figures into (optional)")
	only := flag.String("only", "", "run only one experiment: table1, table2, fig2, fig5, fig6, fig7, ablation, noise, predictor, machine")
	journalDir := flag.String("journal-dir", "", "directory for per-search crash-safe journals + events sidecars (optional)")
	resume := flag.Bool("resume", false, "resume the journals in -journal-dir")
	policy := resilience.Flags(flag.CommandLine)
	wallBudget := flag.Duration("wall-budget", 0, "stop the whole sweep in an orderly fashion after this wall-clock time (exit code 5; 0 = unlimited)")
	flag.Parse()

	pol, err := policy()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if *resume && *journalDir == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume requires -journal-dir")
		os.Exit(2)
	}
	sopts := experiments.Options{JournalDir: *journalDir, Resume: *resume, Resilience: pol}

	// The same deadline layers as prose tune: SIGINT/SIGTERM and
	// -wall-budget cancel the context; searches stop in an orderly
	// fashion and journals (with -journal-dir) stay resumable.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *wallBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *wallBudget)
		defer cancel()
	}
	go func() {
		<-ctx.Done()
		stopSignals()
	}()

	if err := run(ctx, *seed, *htmlDir, *only, sopts); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		var cancelled *search.Cancelled
		if errors.As(err, &cancelled) {
			os.Exit(5)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, seed int64, htmlDir, only string, sopts experiments.Options) error {
	want := func(name string) bool { return only == "" || only == name }
	var pages = map[string]string{}

	if want("table1") {
		rows, err := experiments.Table1()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTable1(rows))
	}
	if want("fig2") {
		r, err := experiments.Fig2(ctx, seed)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig2(r))
		pages["fig2.html"] = experiments.HTMLFig2(r)
	}
	if want("noise") {
		fmt.Println(experiments.RenderNoise(experiments.NoiseStudy(seed)))
	}
	if want("machine") {
		rows, err := experiments.MachineStudy()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderMachine(rows))
	}

	needSuite := want("table2") || want("fig5") || want("fig6") || want("fig7") || want("predictor")
	if needSuite {
		fmt.Fprintln(os.Stderr, "running the four delta-debugging searches (MPAS-A, ADCIRC, MOM6, MPAS-A whole-model)...")
		s, err := experiments.RunSuiteOpts(ctx, seed, sopts)
		if err != nil {
			return err
		}
		if want("table2") {
			fmt.Println(experiments.RenderTable2(experiments.Table2(s)))
		}
		if want("fig5") {
			series := experiments.Fig5(s)
			fmt.Println(experiments.RenderFig5(series))
			pages["fig5.html"] = experiments.HTMLFig5(series)
		}
		if want("fig6") {
			series := experiments.Fig6(s)
			fmt.Println(experiments.RenderFig6(series))
			pages["fig6.html"] = experiments.HTMLFig6(series)
		}
		if want("fig7") {
			r := experiments.Fig7(s)
			fmt.Println(experiments.RenderFig7(r))
			pages["fig7.html"] = experiments.HTMLFig7(r)
		}
		if want("predictor") {
			r, err := experiments.PredictorStudy(s)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderPredictor(r))
		}
	}
	if want("ablation") {
		r, err := experiments.Ablation(ctx, seed)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderAblation(r))
	}

	if htmlDir != "" && len(pages) > 0 {
		if err := os.MkdirAll(htmlDir, 0o755); err != nil {
			return err
		}
		for name, content := range pages {
			path := filepath.Join(htmlDir, name)
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	return nil
}
