package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// minPairs is the least number of runs per side compare accepts.
const minPairs = 10

// readResults reads a -results file into each workload's runs, in order.
func readResults(path string) (map[string][]report, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	runs := make(map[string][]report)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l resultLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil || l.Workload == "" {
			return nil, nil, fmt.Errorf("%s:%d: not a bench result line", path, n)
		}
		if _, ok := runs[l.Workload]; !ok {
			order = append(order, l.Workload)
		}
		runs[l.Workload] = append(runs[l.Workload], l.report)
	}
	return runs, order, sc.Err()
}

// verdict judges change b against parent a for one metric, pairing runs by
// position. A gain needs b to win at least 9 of 10 pairs (ties count for
// neither) and the medians to differ by more than a's IQR. A metric with a
// bound regresses when b's median is worse than a's by more than the bound
// and by more than a's IQR; it is unchanged when both a's spread and the
// change of median stay within the bound. A metric without a bound
// regresses by the mirror of the gain rule and is unchanged when the
// medians differ by no more than a's IQR. Anything else is unresolved.
// It also returns the number of pairs b won.
func verdict(a, b []float64, lowerBetter bool, bound float64) (string, int) {
	ma, mb := median(a), median(b)
	gain := mb - ma
	if lowerBetter {
		gain = -gain
	}
	var winsA, winsB int
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		d := b[i] - a[i]
		if lowerBetter {
			d = -d
		}
		switch {
		case d > 0:
			winsB++
		case d < 0:
			winsA++
		}
	}
	resolved := math.Abs(mb-ma) > iqr(a)
	limit := bound * math.Abs(ma)
	switch {
	case gain > 0 && resolved && 10*winsB >= 9*n:
		return "better", winsB
	case bound > 0 && -gain > limit && resolved:
		return "worse", winsB
	case bound == 0 && gain < 0 && resolved && 10*winsA >= 9*n:
		return "worse", winsB
	case bound > 0 && iqr(a) <= limit && -gain <= limit:
		return "unchanged", winsB
	case bound == 0 && !resolved:
		return "unchanged", winsB
	}
	return "unresolved", winsB
}

// cmdCompare compares two -results files, A the parent and B the change,
// each with at least minPairs runs per workload taken in alternating
// order. It exits 6 when an end-to-end metric regresses or B fails more
// tunes than A.
func cmdCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.jsonl B.jsonl")
		return exitUsage
	}
	sp, runsA, runsB, order, err := loadCompare(args[0], args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return exitFailed
	}
	return compareRuns(sp, order, runsA, runsB)
}

func loadCompare(pathA, pathB string) (sp *spec, runsA, runsB map[string][]report, order []string, err error) {
	root, err := findRoot()
	if err != nil {
		return
	}
	if sp, err = loadSpec(filepath.Join(root, "BENCHMARK.json")); err != nil {
		return
	}
	if runsA, order, err = readResults(pathA); err != nil {
		return
	}
	runsB, _, err = readResults(pathB)
	return
}

func compareRuns(sp *spec, order []string, runsA, runsB map[string][]report) int {
	regressed := false
	fmt.Printf("%-13s %-32s %12s %12s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "B wins", "verdict")
	for _, w := range order {
		a, b := runsA[w], runsB[w]
		if len(a) < minPairs || len(b) < minPairs {
			fmt.Fprintf(os.Stderr, "bench compare: %s: need at least %d runs on each side, have %d and %d\n", w, minPairs, len(a), len(b))
			return exitUsage
		}
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]
		var failedA, failedB int
		for i := range a {
			failedA += a[i].Failed
			failedB += b[i].Failed
		}
		for i, group := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
			for _, m := range group {
				va, oka := column(a, m.Name)
				vb, okb := column(b, m.Name)
				if !oka || !okb {
					continue
				}
				v, winsB := verdict(va, vb, m.lowerBetter(), m.Bound)
				change := 0.0
				if ma := median(va); ma != 0 {
					change = 100 * (median(vb) - ma) / math.Abs(ma)
				}
				fmt.Printf("%-13s %-32s %12.6g %12.6g %7.2f%% %3d/%-3d  %s\n", w, m.Name, median(va), median(vb), change, winsB, n, v)
				if i == 0 && v == "worse" {
					regressed = true
				}
			}
		}
		if failedB > failedA {
			fmt.Printf("%-13s %-32s %12d %12d  worse\n", w, "failed", failedA, failedB)
			regressed = true
		}
	}
	if regressed {
		fmt.Println("REGRESSION")
		return exitRegression
	}
	fmt.Println("PASS")
	return 0
}

// column is one metric's values across runs, if every run has it.
func column(runs []report, name string) ([]float64, bool) {
	out := make([]float64, len(runs))
	for i, r := range runs {
		v, ok := r.Metrics[name]
		if !ok {
			return nil, false
		}
		out[i] = v.Value
	}
	return out, true
}
