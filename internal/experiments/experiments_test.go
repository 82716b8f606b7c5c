package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/search"
)

// sharedSuite builds the seed-1 suite once per process, for the tests
// that need the same searches.
var sharedSuite = sync.OnceValues(func() (*Suite, error) { return RunSuiteOpts(nil, 1, Options{}) })

// TestTable1 checks the hotspot statistics against the paper's bands.
func TestTable1(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	t.Logf("\n%s", RenderTable1(rows))
	for _, r := range rows {
		if r.CPUSharePct < 5 || r.CPUSharePct > 25 {
			t.Errorf("%s: CPU share %.1f%% far from paper's %.0f%%", r.Model, r.CPUSharePct, r.PaperSharePct)
		}
		if r.FPVars < 20 {
			t.Errorf("%s: only %d FP vars", r.Model, r.FPVars)
		}
	}
	// Ordering matches the paper: MPAS-A > ADCIRC > MOM6 in CPU share.
	if !(rows[0].CPUSharePct > rows[2].CPUSharePct) {
		t.Errorf("share ordering differs from Table I: %v", rows)
	}
}

// TestSuiteReproducesPaperShapes is the main end-to-end check: it runs
// all four searches and validates the artifact appendix's qualitative
// properties.
func TestSuiteReproducesPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite is slow")
	}
	s, err := sharedSuite()
	if err != nil {
		t.Fatal(err)
	}

	rows := Table2(s)
	t.Logf("\n%s", RenderTable2(rows))
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Model] = r
	}

	// MPAS-A: best speedup ~1.9x.
	if r := byName["mpas-a"]; r.BestSpeedup < 1.7 || r.BestSpeedup > 2.2 {
		t.Errorf("MPAS-A best speedup %.2f, want ~1.9x", r.BestSpeedup)
	}
	// ADCIRC: best speedup ~1.1x.
	if r := byName["adcirc"]; r.BestSpeedup < 1.02 || r.BestSpeedup > 1.45 {
		t.Errorf("ADCIRC best speedup %.2f, want ~1.1x", r.BestSpeedup)
	}
	// MOM6: best speedup negligible — within the 9% noise floor of a
	// true ~1.0x (the paper's 1.04x is the same artifact).
	if r := byName["mom6"]; r.BestSpeedup > 1.25 {
		t.Errorf("MOM6 best speedup %.2f, want negligible (~1.0x +/- noise)", r.BestSpeedup)
	}
	if r := byName["mom6"]; r.ErrorPct < 10 {
		t.Errorf("MOM6 error rate %.1f%%, paper reports 51.7%%", r.ErrorPct)
	}

	// Fig. 5 cluster shapes.
	for _, fs := range Fig5(s) {
		switch fs.Model {
		case "mpas-a":
			if fs.Clusters.Hi.N > 0 && fs.Clusters.Hi.MedianSpeedup < 1.5 {
				t.Errorf("MPAS-A >=90%% 32-bit cluster median %.2f, want high speedup", fs.Clusters.Hi.MedianSpeedup)
			}
			if fs.Clusters.Lo.N > 0 && fs.Clusters.Lo.MedianSpeedup > 1.15 {
				t.Errorf("MPAS-A <30%% 32-bit cluster median %.2f, want <=1x", fs.Clusters.Lo.MedianSpeedup)
			}
		case "mom6":
			if fs.Clusters.Hi.N > 0 && fs.Clusters.Hi.MedianSpeedup > 1.0 {
				t.Errorf("MOM6 >=90%% cluster median %.2f, want slowdown", fs.Clusters.Hi.MedianSpeedup)
			}
		}
	}

	// Fig. 6: flux_adjust slowdown points and jcg bimodality.
	var adjMin float64 = 1e9
	var jcgHi, jcgLo bool
	for _, fs := range Fig6(s) {
		for _, p := range fs.Points {
			if strings.HasSuffix(fs.Proc, "zonal_flux_adjust") && p.Speedup > 0 && p.Speedup < adjMin {
				adjMin = p.Speedup
			}
			if strings.HasSuffix(fs.Proc, "jcg") {
				if p.Speedup >= 2 {
					jcgHi = true
				}
				if p.Speedup <= 1.3 && p.Speedup > 0 {
					jcgLo = true
				}
			}
		}
	}
	if adjMin > 0.5 {
		t.Errorf("no MOM6 flux_adjust slowdown observed (min speedup %.3f; paper: 0.01-0.1x)", adjMin)
	}
	if !jcgHi || !jcgLo {
		t.Errorf("ADCIRC jcg not bimodal (hi=%v lo=%v; paper: <=1x and 3-10x clusters)", jcgHi, jcgLo)
	}
	t.Logf("\n%s", RenderFig6(Fig6(s)))

	// Fig. 7: whole-model guidance strips the gains.
	f7 := Fig7(s)
	t.Logf("\n%s", RenderFig7(f7))
	if f7.Best != nil && f7.Best.Speedup > 1.2 {
		t.Errorf("whole-model best speedup %.2f, paper: no appreciable speedup", f7.Best.Speedup)
	}
	if f7.Clusters.Hi.N > 0 && f7.Clusters.Hi.MedianSpeedup > 1.05 {
		t.Errorf(">=90%% 32-bit whole-model cluster median %.2f, want ~<=1x", f7.Clusters.Hi.MedianSpeedup)
	}
}

func TestFig2Funarc(t *testing.T) {
	r, err := Fig2(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", RenderFig2(r))
	if len(r.Points) != 256 {
		t.Fatalf("funarc sweep explored %d variants, want 256", len(r.Points))
	}
	if len(r.Frontier) < 2 {
		t.Errorf("frontier has %d points", len(r.Frontier))
	}
	if r.Uniform32.Speedup < 1.3 {
		t.Errorf("uniform 32-bit speedup %.2f, want ~1.4-1.6x", r.Uniform32.Speedup)
	}
	if r.Best.RelErr >= r.Uniform32.RelErr {
		t.Errorf("frontier pick error %.2e not below uniform-32 error %.2e", r.Best.RelErr, r.Uniform32.RelErr)
	}
	// Paper: ~67% of variants are worse on both axes.
	worse := 0
	completed := 0
	for _, p := range r.Points {
		if p.Status != search.StatusPass && p.Status != search.StatusFail {
			continue
		}
		completed++
		if p.Speedup < 1 {
			worse++
		}
	}
	if frac := float64(worse) / float64(completed); frac < 0.3 || frac > 0.98 {
		t.Errorf("slower-than-baseline fraction %.0f%%, paper: ~67%%", 100*frac)
	}
}

func TestNoiseStudy(t *testing.T) {
	rows := NoiseStudy(42)
	t.Logf("\n%s", RenderNoise(rows))
	get := func(sd float64, n int) NoiseRow {
		for _, r := range rows {
			if r.RelStdDev == sd && r.N == n {
				return r
			}
		}
		t.Fatalf("row %v/%d missing", sd, n)
		return NoiseRow{}
	}
	// At 1% noise even n=1 rarely misranks a 5% speedup; at 9% noise
	// n=1 misranks often and n=7 fixes most of it (the paper's choices).
	if r := get(0.01, 1); r.MisrankPct > 10 {
		t.Errorf("1%% noise, n=1: misrank %.1f%%, expected small", r.MisrankPct)
	}
	r91, r97 := get(0.09, 1), get(0.09, 7)
	if r91.MisrankPct <= r97.MisrankPct {
		t.Errorf("9%% noise: n=7 (%.1f%%) should misrank less than n=1 (%.1f%%)", r97.MisrankPct, r91.MisrankPct)
	}
	if r97.SpreadPct >= r91.SpreadPct {
		t.Errorf("9%% noise: n=7 spread %.1f%% should be below n=1 spread %.1f%%", r97.SpreadPct, r91.SpreadPct)
	}
}

func TestAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation runs two searches")
	}
	r, err := Ablation(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", RenderAblation(r))
	if r.StaticallySkipped == 0 {
		t.Error("static filter rejected nothing")
	}
	if r.DynamicEvalsFilt >= r.DynamicEvalsSame+r.StaticallySkipped {
		t.Error("filter did not reduce dynamic evaluations")
	}
	if r.BestFiltered < r.BestUnfiltered*0.9 {
		t.Errorf("filter lost tuning quality: %.2fx vs %.2fx", r.BestFiltered, r.BestUnfiltered)
	}
}

func TestPredictorStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the shared suite")
	}
	s, err := sharedSuite()
	if err != nil {
		t.Fatal(err)
	}
	r, err := PredictorStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", RenderPredictor(r))
	if r.RankCorrelation < 0.3 {
		t.Errorf("rank correlation %.3f too weak", r.RankCorrelation)
	}
	if r.TrainN < 4 || r.TestN < 4 {
		t.Errorf("degenerate split: %d/%d", r.TrainN, r.TestN)
	}
}

func TestMachineStudy(t *testing.T) {
	rows, err := MachineStudy()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", RenderMachine(rows))
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.HotspotSpeedup < 1.6 || r.HotspotSpeedup > 2.4 {
			t.Errorf("%s: speedup %.2f outside the ~2x ISA-portable band", r.Machine, r.HotspotSpeedup)
		}
	}
	if rows[0].Machine == rows[1].Machine {
		t.Error("machines not distinct")
	}
}
