package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func (m metricSpec) lowerBetter() bool { return m.Better == "lower" }

type spec struct {
	RunSeconds float64      `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func (s *spec) all() []metricSpec {
	return append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := make(map[string]bool)
	for _, m := range s.all() {
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			return nil, fmt.Errorf("%s: bad or repeated metric name %q", path, m.Name)
		}
		seen[m.Name] = true
	}
	return &s, nil
}

// value is one metric in a result.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a workload's result in the benchmark's output format.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// resultLine is one line of a -results file.
type resultLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	report
}

// parent runs each workload in a process of its own, so that its peak RSS
// and GC counters belong to that workload alone.
type parent struct {
	spec     *spec
	seconds  float64
	traceDir string
	prose    string
	results  string
}

func (p parent) measure(w workload, seed int64) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", "-workload", w.Name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64),
		"-trace", p.traceDir, "-prose", p.prose)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var o outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		return nil, fmt.Errorf("workload %s: bad result: %w", w.Name, err)
	}
	return &o, nil
}

// report checks that the outcome carries exactly the declared metrics (the
// per-layer ones only from a traced run) and attaches their units.
func (p parent) report(o *outcome) (report, error) {
	want := append([]metricSpec(nil), p.spec.EndToEnd...)
	if p.traceDir != "" {
		want = append(want, p.spec.PerLayer...)
	}
	r := report{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: make(map[string]value)}
	for _, m := range want {
		v, ok := o.Values[m.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", m.Name)
		}
		r.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	declared := make(map[string]bool)
	for _, m := range p.spec.all() {
		declared[m.Name] = true
	}
	for name := range o.Values {
		if !declared[name] {
			return r, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return r, nil
}

// only returns r restricted to the given metrics.
func only(r report, ms []metricSpec) report {
	out := r
	out.Metrics = make(map[string]value)
	for _, m := range ms {
		if v, ok := r.Metrics[m.Name]; ok {
			out.Metrics[m.Name] = v
		}
	}
	return out
}

func (p parent) print(w workload, r report, notes map[string]string) {
	for _, m := range p.spec.all() {
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-13s %-32s %14.6g %s", w.Name, m.Name, v.Value, v.Unit)
		if n := notes[m.Name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Println(line)
	}
	fmt.Printf("%-13s %-32s %14d of %d tunes failed\n", w.Name, "failed", r.Failed, r.Attempted)
}

func (p parent) record(w workload, seed int64, r report) error {
	if p.results == "" {
		return nil
	}
	raw, err := json.Marshal(resultLine{Workload: w.Name, Seed: seed, report: r})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(p.results, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// one measures one workload and prints and records its result.
func (p parent) one(w workload, seed int64) (report, error) {
	o, err := p.measure(w, seed)
	if err != nil {
		return report{}, err
	}
	r, err := p.report(o)
	if err != nil {
		return report{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	p.print(w, r, o.Notes)
	return r, p.record(w, seed, r)
}

// run measures the selected workloads. The last line it prints is the
// result: for one workload, its end-to-end metrics, or with tracing its
// per-layer metrics; for several, every workload's result.
func (p parent) run(selected []workload, seed int64) int {
	all := report{Correct: true, Metrics: make(map[string]value)}
	byName := make(map[string]report)
	for _, w := range selected {
		r, err := p.one(w, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return exitFailed
		}
		byName[w.Name] = r
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
	}
	var last any
	if len(selected) == 1 {
		r := byName[selected[0].Name]
		if p.traceDir != "" {
			last = only(r, p.spec.PerLayer)
		} else {
			last = only(r, p.spec.EndToEnd)
		}
	} else {
		last = struct {
			report
			Workloads map[string]report `json:"workloads"`
		}{all, byName}
	}
	raw, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitFailed
	}
	fmt.Println(string(raw))
	if !all.Correct {
		return exitFailed
	}
	return 0
}

// calibrate runs each workload k times on consecutive seeds and prints
// each end-to-end metric's median and relative IQR against its bound. A
// bound holds when the spread is below a third of it.
func (p parent) calibrate(selected []workload, seed int64, k int) int {
	type row struct {
		w    string
		m    metricSpec
		vals []float64
	}
	var rows []row
	for _, w := range selected {
		vals := make(map[string][]float64)
		for i := 0; i < k; i++ {
			r, err := p.one(w, seed+int64(i))
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return exitFailed
			}
			for _, m := range p.spec.EndToEnd {
				vals[m.Name] = append(vals[m.Name], r.Metrics[m.Name].Value)
			}
		}
		for _, m := range p.spec.EndToEnd {
			rows = append(rows, row{w.Name, m, vals[m.Name]})
		}
	}
	fmt.Printf("\ncalibration: %d runs per workload, seeds %d..%d\n", k, seed, seed+int64(k)-1)
	fmt.Println("| workload | metric | median | rel IQR | bound | IQR < bound/3 |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, r := range rows {
		rel := relIQR(r.vals)
		fmt.Printf("| %s | %s | %.4g %s | %.2f%% | %.0f%% | %v |\n",
			r.w, r.m.Name, median(r.vals), r.m.Unit, 100*rel, 100*r.m.Bound, rel < r.m.Bound/3)
	}
	return 0
}
