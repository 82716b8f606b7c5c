// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV) from this repository's substrates, plus two
// extensions: the §V static-filter ablation and an Eq. (1)
// noise-tolerance study. See DESIGN.md §3 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/resilience"
	"repro/internal/search"
)

// Suite holds the search results shared by Table II and Figures 5-6
// (one delta-debugging search per weather/climate model) plus the
// Fig. 7 whole-model-guided MPAS-A search.
type Suite struct {
	Seed       int64
	Hotspot    map[string]*core.Result // by model name (hotspot-guided)
	WholeModel *core.Result            // MPAS-A, whole-model-guided
}

// Options configures a suite run beyond its seed: the crash-safety and
// resilience protections of a single tuning run, applied to every
// search the suite executes. The zero value runs unprotected (fine for
// tests; long sweeps want journals and a supervisor).
type Options struct {
	// JournalDir, if non-empty, gives each search its own crash-safe
	// journal (plus checkpoint and resilience events sidecar) under this
	// directory, named <model>.journal / mpas-a-whole.journal.
	JournalDir string
	// Resume replays the existing journals in JournalDir.
	Resume bool
	// Resilience is the supervisor and drain policy of every search (see
	// core.Options.Resilience).
	Resilience resilience.Policy
}

// RunSuiteOpts executes the four searches of the case study (the
// artifact's four parallel experiment instances) with crash-safety and
// resilience options. Deterministic for a given seed. ctx cancels the
// suite between and within searches (nil never cancels).
func RunSuiteOpts(ctx context.Context, seed int64, sopts Options) (*Suite, error) {
	par := suiteParallelism()
	build := func(whole bool, journalName string) core.Options {
		o := core.Options{Seed: seed, Parallelism: par, WholeModel: whole, Resilience: sopts.Resilience}
		if sopts.JournalDir != "" {
			o.JournalPath = filepath.Join(sopts.JournalDir, journalName)
			o.Resume = sopts.Resume
		}
		return o
	}
	s := &Suite{Seed: seed, Hotspot: make(map[string]*core.Result)}
	for _, m := range models.WeatherClimate() {
		res, err := runSearch(ctx, m, build(false, m.Name+".journal"))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", m.Name, err)
		}
		s.Hotspot[m.Name] = res
	}
	mp := models.MPASA()
	whole, err := runSearch(ctx, mp, build(true, mp.Name+"-whole.journal"))
	if err != nil {
		return nil, fmt.Errorf("experiments: mpas-a whole-model: %w", err)
	}
	s.WholeModel = whole
	return s, nil
}

// suiteParallelism bounds in-process variant evaluation concurrency:
// enough workers to emulate the artifact's parallel nodes without
// oversubscribing test machines.
func suiteParallelism() int {
	if n := runtime.NumCPU(); n < 8 {
		return n
	}
	return 8
}

func runSearch(ctx context.Context, m *models.Model, opts core.Options) (*core.Result, error) {
	t, err := core.New(m, opts)
	if err != nil {
		return nil, err
	}
	return t.Run(ctx)
}

// Point is one variant in a speedup-error scatter (Figures 2, 5, 7).
type Point struct {
	Index   int
	Pct32   float64
	Speedup float64
	RelErr  float64
	Status  search.Status
}

// pointsFromLog converts an evaluation log into scatter points.
// Variants that errored or timed out carry no speedup-error coordinates
// and are reported with status only (as the paper's interactive plots
// bucket them separately).
func pointsFromLog(log *search.Log) []Point {
	pts := make([]Point, 0, len(log.Evals))
	for _, ev := range log.Evals {
		pts = append(pts, Point{
			Index:   ev.Index,
			Pct32:   ev.Pct32(),
			Speedup: ev.Speedup,
			RelErr:  ev.RelError,
			Status:  ev.Status,
		})
	}
	return pts
}
