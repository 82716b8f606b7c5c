// Interpreter shadow-execution benchmarks: the overhead of the float64
// diagnostic lane (on vs off) and the funarc tune baseline it rides on.
// TestEmitInterpBench (env-gated) snapshots both into BENCH_interp.json
// so the perf trajectory is tracked in-repo.
package repro

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ledger"
	"repro/internal/models"
	"repro/internal/numerics"
	"repro/internal/perfmodel"
	"repro/internal/search"
)

// benchInterpRun runs funarc end to end, with or without a shadow
// recorder attached. The recorder (when on) is rebuilt
// per iteration — that is how the tuner uses it, one recorder per
// evaluation.
func benchInterpRun(b *testing.B, shadow bool) {
	m := models.Funarc()
	prog, err := m.Parse()
	if err != nil {
		b.Fatal(err)
	}
	machine := perfmodel.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := interp.Config{Model: machine, TrapNonFinite: true}
		if shadow {
			cfg.Numerics = numerics.NewRecorder(m.Name+".ft", numerics.Options{})
		}
		in, err := interp.New(prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := in.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpShadowOverhead measures the cost of the shadow lane.
// The off case is the uninstrumented hot path (the nil-recorder test
// TestShadowDisabledAllocFlat pins it allocation-flat); the on case is
// what every evaluation pays under tune -numerics.
func BenchmarkInterpShadowOverhead(b *testing.B) {
	b.Run("shadow=off", func(b *testing.B) { benchInterpRun(b, false) })
	b.Run("shadow=on", func(b *testing.B) { benchInterpRun(b, true) })
}

// BenchmarkTuneFunarcBaseline is the end-to-end funarc search the
// shadow overhead is judged against: diagnostics cost matters relative
// to a whole tuning run, not a single interpreter pass.
func BenchmarkTuneFunarcBaseline(b *testing.B) {
	m := models.Funarc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := core.New(m, core.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := t.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// interpBenchRow is one benchmark's snapshot in BENCH_interp.json.
type interpBenchRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// interpBenchFile is the BENCH_interp.json schema. It is written
// through ledger.CanonicalJSON so keys come out deterministically
// sorted and regeneration diffs stay stable.
type interpBenchFile struct {
	Rows          []interpBenchRow `json:"rows"`
	ShadowOnOffX  float64          `json:"shadow_on_off_ratio"`
	GoVersion     string           `json:"go_version,omitempty"`
	BenchmarkNote string           `json:"note"`
}

// TestEmitInterpBench writes BENCH_interp.json when PROSE_EMIT_BENCH=1
// (kept out of normal test runs: it re-runs the benchmarks). The file
// records the shadow on/off interpreter cost, the tune baseline, the
// on/off overhead ratio, and the decision-log append cost. Rows this
// test does not own (e.g. FleetTraceShipping, produced by
// internal/fleet's benchmark) are carried forward from the existing
// file rather than dropped; the merged row set is sorted by name.
func TestEmitInterpBench(t *testing.T) {
	if os.Getenv("PROSE_EMIT_BENCH") == "" {
		t.Skip("set PROSE_EMIT_BENCH=1 to regenerate BENCH_interp.json")
	}
	row := func(name string, fn func(b *testing.B)) interpBenchRow {
		r := testing.Benchmark(fn)
		return interpBenchRow{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}
	off := row("InterpShadowOverhead/shadow=off", func(b *testing.B) { benchInterpRun(b, false) })
	on := row("InterpShadowOverhead/shadow=on", func(b *testing.B) { benchInterpRun(b, true) })
	tune := row("TuneFunarcBaseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tn, err := core.New(models.Funarc(), core.Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tn.Run(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Per-event decision-log append cost — the telemetry price a tune
	// pays per candidate when -ledger is on. Mirrors internal/ledger's
	// BenchmarkLedgerAppend (test benchmarks are not importable across
	// packages): buffered write + digest, no syscall per event.
	ledgerAppend := row("LedgerAppend", func(b *testing.B) {
		dl, err := ledger.CreateDecisionLog(filepath.Join(b.TempDir(), "bench.decisions"), "fp-bench", "funarc")
		if err != nil {
			b.Fatal(err)
		}
		defer dl.Close()
		d := search.Decision{
			Round: 1, Seq: 1, AKey: "funarc.fun.t1=4;funarc.fun.d1=4;funarc.fun.s1=4",
			Outcome: search.DecisionEvaluated, Status: search.StatusPass,
			Speedup: 1.559, RelError: 2.04e-7, Lowered: 7, Accepted: true,
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Seq = i
			dl.Decide(d)
		}
	})

	rows := []interpBenchRow{off, on, tune, ledgerAppend}
	owned := make(map[string]bool, len(rows))
	for _, r := range rows {
		owned[r.Name] = true
	}
	if raw, err := os.ReadFile("BENCH_interp.json"); err == nil {
		var prev interpBenchFile
		if err := json.Unmarshal(raw, &prev); err != nil {
			t.Fatalf("existing BENCH_interp.json is unreadable: %v", err)
		}
		for _, r := range prev.Rows {
			if !owned[r.Name] {
				rows = append(rows, r)
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })

	out := interpBenchFile{
		Rows:         rows,
		ShadowOnOffX: on.NsPerOp / off.NsPerOp,
		BenchmarkNote: "funarc end-to-end interpreter run, shadow recorder rebuilt per iteration; " +
			"tune baseline is the full seed-1 delta-debugging search; " +
			"LedgerAppend is the per-event decision-telemetry cost (buffered write + digest, " +
			"no syscall per event) — a few microseconds against multi-ms evaluations; " +
			"FleetTraceShipping rows are carried forward from internal/fleet's benchmark",
	}
	b, err := ledger.CanonicalJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_interp.json", b, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("shadow on/off ratio: %.2fx (off %.0f ns/op, on %.0f ns/op); ledger append %.0f ns/op",
		out.ShadowOnOffX, off.NsPerOp, on.NsPerOp, ledgerAppend.NsPerOp)
}

// TestBenchFileCanonical pins the diff-stability contract: the checked
// in BENCH_interp.json must be byte-identical to its own
// ledger.CanonicalJSON round trip (sorted keys, two-space indent,
// trailing newline), so regeneration diffs show only value changes.
func TestBenchFileCanonical(t *testing.T) {
	raw, err := os.ReadFile("BENCH_interp.json")
	if err != nil {
		t.Skipf("BENCH_interp.json not present: %v", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("BENCH_interp.json is not valid JSON: %v", err)
	}
	canon, err := ledger.CanonicalJSON(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(canon) != string(raw) {
		t.Error("BENCH_interp.json is not in canonical form; regenerate with PROSE_EMIT_BENCH=1")
	}
}
