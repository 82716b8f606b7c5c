// Package repro's benchmark harness regenerates every table and figure
// of the paper's evaluation (one benchmark per artifact; see DESIGN.md §3
// for the experiment index and EXPERIMENTS.md for paper-vs-measured):
//
//	BenchmarkTable1HotspotStats      Table I
//	BenchmarkTable2SearchSummary     Table II
//	BenchmarkFig2Funarc              Figure 2
//	BenchmarkFig5VariantScatter      Figure 5
//	BenchmarkFig6ProcedureVariants   Figure 6
//	BenchmarkFig7WholeModel          Figure 7
//	BenchmarkStaticFilterAblation    §V ablation (extension)
//	BenchmarkNoiseTolerantSpeedup    Eq. (1) study (extension)
//	BenchmarkFullTuningCycle         one end-to-end search (timing reference)
//
// The four delta-debugging searches behind Table II and Figures 5-7 are
// shared across benchmarks (built once per process). Key result values
// are attached as custom benchmark metrics.
package repro

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	ft "repro/internal/fortran"
	"repro/internal/interp"
	"repro/internal/models"
	"repro/internal/perfmodel"
	"repro/internal/transform"
)

// sharedSuite builds the seed-1 suite once per process.
var sharedSuite = sync.OnceValues(func() (*experiments.Suite, error) {
	return experiments.RunSuiteOpts(nil, 1, experiments.Options{})
})

func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	s, err := sharedSuite()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkTable1HotspotStats(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.CPUSharePct, r.Model+"-hotspot-%")
	}
	b.Log("\n" + experiments.RenderTable1(rows))
}

func BenchmarkTable2SearchSummary(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2(s)
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.BestSpeedup, r.Model+"-speedup-x")
		b.ReportMetric(float64(r.Total), r.Model+"-variants")
	}
	b.Log("\n" + experiments.RenderTable2(rows))
}

func BenchmarkFig2Funarc(b *testing.B) {
	var r *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig2(nil, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(r.Points)), "variants")
	b.ReportMetric(r.Uniform32.Speedup, "uniform32-speedup-x")
	b.ReportMetric(r.Best.Speedup, "frontier-speedup-x")
	b.Log("\n" + experiments.RenderFig2(r))
}

func BenchmarkFig5VariantScatter(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var series []experiments.Fig5Series
	for i := 0; i < b.N; i++ {
		series = experiments.Fig5(s)
	}
	b.StopTimer()
	for _, fs := range series {
		b.ReportMetric(fs.Clusters.Hi.MedianSpeedup, fs.Model+"-hi32-median-x")
	}
	var sb strings.Builder
	for _, fs := range series {
		sb.WriteString(experiments.RenderFig5([]experiments.Fig5Series{{
			Model: fs.Model, Threshold: fs.Threshold, Clusters: fs.Clusters,
		}}))
	}
	b.Log("\n" + sb.String())
}

func BenchmarkFig6ProcedureVariants(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var series []experiments.Fig6Series
	for i := 0; i < b.N; i++ {
		series = experiments.Fig6(s)
	}
	b.StopTimer()
	var fluxMin, adjMin = 1e9, 1e9
	for _, fs := range series {
		for _, p := range fs.Points {
			if p.Speedup <= 0 {
				continue
			}
			if strings.Contains(fs.Proc, "flux4") && p.Speedup < fluxMin {
				fluxMin = p.Speedup
			}
			if strings.Contains(fs.Proc, "flux_adjust") && p.Speedup < adjMin {
				adjMin = p.Speedup
			}
		}
	}
	b.ReportMetric(fluxMin, "mpas-flux4-min-x")
	b.ReportMetric(adjMin, "mom6-fluxadjust-min-x")
	b.Log("\n" + experiments.RenderFig6(series))
}

func BenchmarkFig7WholeModel(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var r *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig7(s)
	}
	b.StopTimer()
	if r.Best != nil {
		b.ReportMetric(r.Best.Speedup, "best-wholemodel-x")
	}
	b.ReportMetric(r.Clusters.Hi.MedianSpeedup, "hi32-median-x")
	b.Log("\n" + experiments.RenderFig7(r))
}

func BenchmarkStaticFilterAblation(b *testing.B) {
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Ablation(nil, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(r.StaticallySkipped), "statically-skipped")
	b.ReportMetric(float64(r.DynamicEvalsFilt), "dynamic-evals")
	b.Log("\n" + experiments.RenderAblation(r))
}

func BenchmarkNoiseTolerantSpeedup(b *testing.B) {
	var rows []experiments.NoiseRow
	for i := 0; i < b.N; i++ {
		rows = experiments.NoiseStudy(42)
	}
	b.StopTimer()
	for _, r := range rows {
		if r.N == 1 || r.N == 7 {
			b.ReportMetric(r.MisrankPct, strings.ReplaceAll(
				strings.TrimLeft(strings.TrimRight(
					"misrank-"+pct(r.RelStdDev)+"-n"+itoa(r.N), " "), " "), " ", ""))
		}
	}
	b.Log("\n" + experiments.RenderNoise(rows))
}

func pct(f float64) string {
	if f < 0.05 {
		return "1pct"
	}
	return "9pct"
}

func itoa(n int) string { return string(rune('0' + n)) }

// BenchmarkFullTuningCycle times one complete MPAS-A search (T0-T4),
// the paper's headline experiment, end to end.
func BenchmarkFullTuningCycle(b *testing.B) {
	var res *core.Result
	for i := 0; i < b.N; i++ {
		t, err := core.New(models.MPASA(), core.Options{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err = t.Run(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	row := res.TableIIRow()
	b.ReportMetric(row.BestSpeedup, "best-speedup-x")
	b.ReportMetric(float64(row.Total), "variants")
}

// Substrate micro-benchmarks: regressions in these directly slow every
// experiment above.

func BenchmarkSubstrateParseAnalyze(b *testing.B) {
	src := models.MPASA().Source
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := ft.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ft.Analyze(prog, ft.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateTransformApply(b *testing.B) {
	m := models.MPASA()
	prog, err := m.Parse()
	if err != nil {
		b.Fatal(err)
	}
	atoms := transform.Atoms(prog, m.Hotspot)
	a := transform.Uniform(atoms, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transform.Apply(prog, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstrateInterpModelRun compiles and runs each bundled
// model's baseline the way a tuner evaluation does (GPTL profiling and
// the non-finite trap on, through one interp.Pool, each run released
// after it), one sub-benchmark per model. Profile one:
// go test -run '^$' -bench SubstrateInterpModelRun/mom6 -cpuprofile cpu.out
func BenchmarkSubstrateInterpModelRun(b *testing.B) {
	machine := perfmodel.Default()
	for _, m := range models.All() {
		prog, err := m.Parse()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.Name, func(b *testing.B) {
			var pool interp.Pool
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in, err := pool.New(prog, interp.Config{Model: machine, TrapNonFinite: true, Profile: true})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := in.Run(); err != nil {
					b.Fatal(err)
				}
				in.Release()
			}
		})
	}
}

// BenchmarkPredictorStudy evaluates the [42]-style static predictor on
// the shared MPAS-A search data (extension experiment E9).
func BenchmarkPredictorStudy(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	var r *experiments.PredictorResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.PredictorStudy(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(r.RankCorrelation, "spearman-rho")
	b.Log("\n" + experiments.RenderPredictor(r))
}

// BenchmarkMachineSensitivity measures the MPAS-A knob variant under
// both bundled vector-ISA machine models (extension; paper §VI threat).
func BenchmarkMachineSensitivity(b *testing.B) {
	var rows []experiments.MachineRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.MachineStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.HotspotSpeedup, r.Machine+"-speedup-x")
	}
	b.Log("\n" + experiments.RenderMachine(rows))
}
