package search

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/transform"
)

// ddmin runs Precimonious over n atoms, of which those at the indices
// in core must stay 64-bit (fakeEval), and returns the indices of its
// minimal set, sorted, and how many variants it evaluated. Precimonious
// is Zeller & Hildebrandt's ddmin, batched, over the stay-high set.
func ddmin(t *testing.T, n int, core ...int) ([]int, int64) {
	t.Helper()
	atoms := mkAtoms(n)
	fe := &fakeEval{atoms: atoms, critical: map[string]bool{}}
	for _, i := range core {
		fe.critical[atoms[i].QName] = true
	}
	out := Precimonious(nil, fe, atoms, Options{Criteria: Criteria{MaxRelError: 1e-3, MinSpeedup: 1.0}})
	if !out.Converged {
		t.Fatalf("search over %d atoms did not converge", n)
	}
	got := []int{}
	for _, q := range out.Minimal {
		for i, at := range atoms {
			if at.QName == q {
				got = append(got, i)
			}
		}
	}
	sort.Ints(got)
	return got, fe.calls.Load()
}

// TestDDMinFindsExactSubset: a variant passes iff atoms 3 and 7 stay
// 64-bit.
func TestDDMinFindsExactSubset(t *testing.T) {
	got, calls := ddmin(t, 20, 3, 7)
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("minimal set = %v, want [3 7]", got)
	}
	if calls > 200 {
		t.Errorf("the search ran %d variants for n=20; expected far fewer than 2^20", calls)
	}
}

func TestDDMinSingleElement(t *testing.T) {
	if got, _ := ddmin(t, 16, 11); len(got) != 1 || got[0] != 11 {
		t.Fatalf("minimal set = %v, want [11]", got)
	}
}

// TestDDMinEmptyInteresting: when every variant passes, the all-32-bit
// one does too, and the search stops there with an empty set after two
// evaluations (all 32-bit and all 64-bit), before any ddmin round.
func TestDDMinEmptyInteresting(t *testing.T) {
	if got, calls := ddmin(t, 8); len(got) != 0 || calls != 2 {
		t.Fatalf("always-passing target: minimal set %v after %d evaluations, want [] after 2", got, calls)
	}
}

func TestDDMinFullSetNeeded(t *testing.T) {
	if got, _ := ddmin(t, 6, 0, 1, 2, 3, 4, 5); len(got) != 6 {
		t.Fatalf("minimal set = %v, want all 6 atoms", got)
	}
}

// Property: for a random monotone target (a variant passes iff a random
// core of k atoms stays 64-bit), the search finds exactly the core,
// which is interesting and 1-minimal.
func TestDDMinOneMinimalProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%20) + 2
		k := int(kRaw)%n + 1
		core := rng.Perm(n)[:k]
		got, _ := ddmin(t, n, core...)
		sort.Ints(core)
		return fmt.Sprint(got) == fmt.Sprint(core)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSplitAndComplement(t *testing.T) {
	items := seq(10)
	for n := 1; n <= 12; n++ {
		chunks := split(items, n)
		var joined []int
		for _, c := range chunks {
			joined = append(joined, c...)
		}
		if len(joined) != len(items) {
			t.Fatalf("split(%d) loses items: %v", n, chunks)
		}
		for i, v := range joined {
			if v != items[i] {
				t.Fatalf("split(%d) reorders items", n)
			}
		}
		for _, c := range chunks {
			comp := complement(items, c)
			if len(comp)+len(c) != len(items) {
				t.Fatalf("complement size wrong for n=%d", n)
			}
		}
	}
}

// fakeEval simulates a tuning target: the variant passes iff every atom
// in `critical` stays 64-bit; speedup grows with the number of lowered
// atoms; lowering a "fragile" atom yields a runtime error. Safe for
// concurrent use, as batched searches require.
type fakeEval struct {
	atoms    []transform.Atom
	critical map[string]bool
	fragile  map[string]bool
	calls    atomic.Int64
}

func (f *fakeEval) Evaluate(a transform.Assignment) *Evaluation {
	f.calls.Add(1)
	lowered := 0
	bad := false
	boom := false
	for _, at := range f.atoms {
		if a.KindOf(at.QName, 8) == 4 {
			lowered++
			if f.critical[at.QName] {
				bad = true
			}
			if f.fragile[at.QName] {
				boom = true
			}
		}
	}
	ev := &Evaluation{
		Lowered:    lowered,
		TotalAtoms: len(f.atoms),
		Speedup:    1 + float64(lowered)*0.05,
		RelError:   0,
	}
	switch {
	case boom:
		ev.Status = StatusError
	case bad:
		ev.Status = StatusFail
		ev.RelError = 10
	default:
		ev.Status = StatusPass
		ev.RelError = 1e-6 * float64(lowered)
	}
	return ev
}

func mkAtoms(n int) []transform.Atom {
	out := make([]transform.Atom, n)
	for i := range out {
		out[i] = transform.Atom{QName: fmt.Sprintf("m.p.v%02d", i)}
	}
	return out
}

func TestPrecimoniousFindsCriticalSet(t *testing.T) {
	atoms := mkAtoms(24)
	fe := &fakeEval{
		atoms: atoms,
		critical: map[string]bool{
			"m.p.v05": true,
			"m.p.v17": true,
		},
	}
	out := Precimonious(nil, fe, atoms, Options{
		Criteria: Criteria{MaxRelError: 1e-3, MinSpeedup: 1.0},
	})
	sort.Strings(out.Minimal)
	if len(out.Minimal) != 2 || out.Minimal[0] != "m.p.v05" || out.Minimal[1] != "m.p.v17" {
		t.Fatalf("Minimal = %v, want the two critical atoms", out.Minimal)
	}
	if !out.Converged {
		t.Error("search did not converge")
	}
	if out.Final == nil || out.Final.Lowered != 22 {
		t.Fatalf("Final = %+v, want 22 lowered", out.Final)
	}
	total, pass, fail, _, _ := out.Log.Counts()
	if total == 0 || pass == 0 || fail == 0 {
		t.Errorf("counts: total=%d pass=%d fail=%d", total, pass, fail)
	}
	// Distinct variants only: the log must not contain duplicates.
	seen := map[string]bool{}
	for _, ev := range out.Log.Evals {
		k := ev.Assignment.Key()
		if seen[k] {
			t.Fatal("duplicate variant recorded in log")
		}
		seen[k] = true
	}
}

func TestPrecimoniousAllLowerable(t *testing.T) {
	atoms := mkAtoms(10)
	fe := &fakeEval{atoms: atoms, critical: map[string]bool{}}
	out := Precimonious(nil, fe, atoms, Options{Criteria: Criteria{MaxRelError: 1, MinSpeedup: 1}})
	if len(out.Minimal) != 0 {
		t.Fatalf("Minimal = %v, want empty (uniform 32-bit passes)", out.Minimal)
	}
	if out.Final == nil || out.Final.Lowered != 10 {
		t.Fatalf("Final: %+v", out.Final)
	}
	// The opening batch evaluates the all-32 variant plus the all-64
	// reference.
	if len(out.Log.Evals) != 2 {
		t.Errorf("all-lowerable search should evaluate exactly 2 variants, got %d", len(out.Log.Evals))
	}
}

func TestPrecimoniousErrorStatusRejected(t *testing.T) {
	atoms := mkAtoms(12)
	fe := &fakeEval{
		atoms:   atoms,
		fragile: map[string]bool{"m.p.v03": true},
	}
	out := Precimonious(nil, fe, atoms, Options{Criteria: Criteria{MaxRelError: 1, MinSpeedup: 1}})
	if len(out.Minimal) != 1 || out.Minimal[0] != "m.p.v03" {
		t.Fatalf("Minimal = %v, want the fragile atom", out.Minimal)
	}
	_, _, _, _, errs := out.Log.Counts()
	if errs == 0 {
		t.Error("no error-status variants recorded")
	}
}

func TestPrecimoniousBudget(t *testing.T) {
	atoms := mkAtoms(40)
	fe := &fakeEval{atoms: atoms, critical: map[string]bool{"m.p.v09": true, "m.p.v23": true, "m.p.v31": true}}
	out := Precimonious(nil, fe, atoms, Options{
		Criteria:       Criteria{MaxRelError: 1e-3, MinSpeedup: 1},
		MaxEvaluations: 5,
	})
	if out.Converged {
		t.Error("budget-limited search reported convergence")
	}
	if len(out.Log.Evals) > 5 {
		t.Errorf("budget exceeded: %d evaluations", len(out.Log.Evals))
	}
}

func TestPrecimoniousEmptyAtoms(t *testing.T) {
	fe := &fakeEval{}
	out := Precimonious(nil, fe, nil, Options{})
	if out.Minimal != nil || out.Final != nil || !out.Converged {
		t.Errorf("empty atoms: %+v", out)
	}
}

func TestPrecimoniousRespectsMinSpeedup(t *testing.T) {
	// With MinSpeedup well above what any variant reaches, even passing
	// variants are rejected and everything stays 64-bit.
	atoms := mkAtoms(8)
	fe := &fakeEval{atoms: atoms}
	out := Precimonious(nil, fe, atoms, Options{Criteria: Criteria{MaxRelError: 1, MinSpeedup: 99}})
	if len(out.Minimal) != len(atoms) {
		t.Fatalf("Minimal = %d atoms, want all %d", len(out.Minimal), len(atoms))
	}
}

func TestBruteForceEnumerates(t *testing.T) {
	atoms := mkAtoms(5)
	fe := &fakeEval{atoms: atoms, critical: map[string]bool{"m.p.v02": true}}
	log, err := BruteForce(nil, fe, atoms, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Evals) != 32 {
		t.Fatalf("brute force explored %d variants, want 32", len(log.Evals))
	}
	total, pass, fail, _, _ := log.Counts()
	if total != 32 || pass != 16 || fail != 16 {
		t.Errorf("counts: total=%d pass=%d fail=%d, want 32/16/16", total, pass, fail)
	}
	best := log.Best(Criteria{MaxRelError: 1, MinSpeedup: 1})
	if best == nil || best.Lowered != 4 {
		t.Fatalf("best = %+v, want 4 lowered (all but critical)", best)
	}
}

func TestFrontier(t *testing.T) {
	log := NewLog()
	add := func(speedup, err float64) {
		log.Add(&Evaluation{
			Assignment: transform.Assignment{fmt.Sprintf("v%d", len(log.Evals)): 4},
			Status:     StatusPass, Speedup: speedup, RelError: err,
		})
	}
	add(1.0, 0.0)  // frontier (most accurate)
	add(1.5, 1e-6) // frontier
	add(1.4, 1e-5) // dominated by (1.5, 1e-6)
	add(2.0, 1e-3) // frontier
	add(0.8, 1e-2) // dominated
	f := log.Frontier()
	if len(f) != 3 {
		for _, e := range f {
			t.Logf("frontier: speedup=%g err=%g", e.Speedup, e.RelError)
		}
		t.Fatalf("frontier size = %d, want 3", len(f))
	}
	for i := 1; i < len(f); i++ {
		if f[i].RelError < f[i-1].RelError {
			t.Error("frontier not sorted by error")
		}
		if f[i].Speedup < f[i-1].Speedup {
			t.Error("frontier speedup must increase with error")
		}
	}
}

func TestLogCacheDistinguishesAssignments(t *testing.T) {
	log := NewLog()
	a := transform.Assignment{"x": 4, "y": 8}
	b := transform.Assignment{"x": 8, "y": 4}
	log.Add(&Evaluation{Assignment: a})
	if _, ok := log.Lookup(b); ok {
		t.Error("different assignments conflated by cache key")
	}
	if _, ok := log.Lookup(transform.Assignment{"x": 4, "y": 8}); !ok {
		t.Error("identical assignment missed by cache")
	}
}

// TestParallelismInvariance: the batched search must produce an
// identical evaluation log and outcome at any parallelism level.
func TestParallelismInvariance(t *testing.T) {
	atoms := mkAtoms(24)
	runAt := func(par int) *Outcome {
		fe := &fakeEval{
			atoms:    atoms,
			critical: map[string]bool{"m.p.v05": true, "m.p.v17": true},
			fragile:  map[string]bool{"m.p.v09": true},
		}
		return Precimonious(nil, fe, atoms, Options{
			Criteria:    Criteria{MaxRelError: 1e-3, MinSpeedup: 1},
			Parallelism: par,
		})
	}
	ref := runAt(1)
	for _, par := range []int{2, 4, 16} {
		got := runAt(par)
		if len(got.Log.Evals) != len(ref.Log.Evals) {
			t.Fatalf("parallelism %d: %d evals vs %d", par, len(got.Log.Evals), len(ref.Log.Evals))
		}
		for i := range ref.Log.Evals {
			a, b := ref.Log.Evals[i], got.Log.Evals[i]
			if a.Assignment.Key() != b.Assignment.Key() || a.Status != b.Status || a.Speedup != b.Speedup {
				t.Fatalf("parallelism %d: eval %d differs: %v vs %v", par, i, a, b)
			}
		}
		sort.Strings(got.Minimal)
		refMin := append([]string(nil), ref.Minimal...)
		sort.Strings(refMin)
		if fmt.Sprint(got.Minimal) != fmt.Sprint(refMin) {
			t.Fatalf("parallelism %d: minimal %v vs %v", par, got.Minimal, refMin)
		}
	}
}

// TestBatchEvalDeduplicates: identical assignments within one batch are
// evaluated once and both slots resolve to the same record.
func TestBatchEvalDeduplicates(t *testing.T) {
	atoms := mkAtoms(4)
	fe := &fakeEval{atoms: atoms}
	log := NewLog()
	a := transform.Uniform(atoms, 4)
	evs := batchEval(nil, log, fe, []transform.Assignment{a, maps.Clone(a), transform.Uniform(atoms, 8)}, 3, nil)
	if fe.calls.Load() != 2 {
		t.Errorf("evaluator called %d times, want 2", fe.calls.Load())
	}
	if evs[0] != evs[1] {
		t.Error("duplicate batch entries resolved to different records")
	}
	if len(log.Evals) != 2 {
		t.Errorf("log holds %d evals, want 2", len(log.Evals))
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusPass: "pass", StatusFail: "fail",
		StatusTimeout: "timeout", StatusError: "error",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
