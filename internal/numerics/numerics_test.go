package numerics

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Op("p", 1, '+', 1, 2, 1, 2, 3, 3, 3)
	r.Intrinsic("p", 1, "sqrt", 4, 2, 2, 2)
	r.Assign("p", 1, "a", 1, 1, 1)
	r.Branch("p", 1)
	r.Discretize("p", 1, 1, 2)
	r.PushTarget("a")
	r.PopTarget()
	if r.Profile() != nil {
		t.Fatal("nil recorder must yield nil profile")
	}
}

func TestRelErr(t *testing.T) {
	cases := []struct {
		a, b, want float64
	}{
		{1, 1, 0},
		{0, 0, 0},
		{2, 1, 0.5},
		{1, 2, 0.5},
		{-1, 1, 2},
		{math.Inf(1), 1, 0}, // non-finite tracked separately
		{math.NaN(), 1, 0},  // must stay JSON-representable
		{1, math.Inf(-1), 0},
	}
	for _, c := range cases {
		if got := relErr(c.a, c.b); got != c.want {
			t.Errorf("relErr(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCancellationClassification(t *testing.T) {
	// Benign cancellation: large magnitude collapse but operands carry
	// no divergence (shadow == primary).
	r := NewRecorder("m.ft", Options{})
	r.Op("p", 10, '-', 1.0, 1.0-1e-6, 1.0, 1.0-1e-6, 1e-6, 1e-6, 1e-6)
	p := r.Profile()
	if p.Cancellations != 1 {
		t.Fatalf("cancellations = %d, want 1", p.Cancellations)
	}
	if p.Catastrophic != 0 {
		t.Fatalf("catastrophic = %d, want 0 (operands error-free)", p.Catastrophic)
	}

	// Catastrophic: same collapse, operands diverge from their shadows.
	r = NewRecorder("m.ft", Options{})
	xs := 1.0 + 1e-9
	r.Op("p", 10, '-', 1.0, 1.0-1e-6, xs, 1.0-1e-6, 1e-6, 1e-6, 1e-6+1e-9)
	p = r.Profile()
	if p.Cancellations != 1 || p.Catastrophic != 1 {
		t.Fatalf("cancellations=%d catastrophic=%d, want 1/1", p.Cancellations, p.Catastrophic)
	}
	if len(p.Statements) != 1 || p.Statements[0].CancelBitsMax < 8 {
		t.Fatalf("statement cancel bits = %+v, want >= 8", p.Statements)
	}

	// Below threshold: 2.0 - 1.0 collapses one bit only.
	r = NewRecorder("m.ft", Options{})
	r.Op("p", 10, '-', 2.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0)
	if p := r.Profile(); p.Cancellations != 0 {
		t.Fatalf("one-bit collapse flagged as cancellation: %+v", p)
	}

	// Exact total cancellation (result 0) caps at maxCancelBits
	// rather than producing +Inf bits.
	r = NewRecorder("m.ft", Options{})
	r.Op("p", 10, '-', 1.0, 1.0, 1.0, 1.0, 0, 0, 0)
	p = r.Profile()
	if p.Cancellations != 1 {
		t.Fatalf("total cancellation not counted: %+v", p)
	}
	if p.Statements[0].CancelBitsMax != 54 {
		t.Fatalf("total cancellation bits = %v, want capped 54", p.Statements[0].CancelBitsMax)
	}
}

func TestCancelBitsThresholdOption(t *testing.T) {
	// With a 1-bit threshold even 2-1 counts.
	r := NewRecorder("m.ft", Options{CancelBits: 1})
	r.Op("p", 3, '-', 2.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0)
	if p := r.Profile(); p.Cancellations != 1 {
		t.Fatalf("threshold 1: cancellations = %d, want 1", p.Cancellations)
	}
	// The default threshold counts a collapse of 8 bits, not one of
	// just under 8.
	r = NewRecorder("x", Options{})
	r.Op("p", 3, '-', 256, 255, 256, 255, 1, 1, 1)
	r.Op("p", 4, '-', 255, 254, 255, 254, 1, 1, 1)
	if p := r.Profile(); p.CancelBits != DefaultCancelBits || p.Cancellations != 1 || p.Statements[0].Cancellations != 1 {
		t.Fatalf("default threshold %v: cancellations = %d, at line %d %d, want 1 at line 3",
			p.CancelBits, p.Cancellations, p.Statements[0].Line, p.Statements[0].Cancellations)
	}
}

func TestFirstNonFiniteProvenance(t *testing.T) {
	r := NewRecorder("m.ft", Options{})
	// Overflow born at line 7: primary result +Inf, shadow finite.
	r.Op("p", 7, '*', 3e38, 3e38, 3e38, 3e38, math.Inf(1), math.Inf(1), 9e76)
	// A later one must not displace the first.
	r.Intrinsic("q", 9, "sqrt", -1, math.NaN(), math.NaN(), math.NaN())
	p := r.Profile()
	if p.NonFinite != 2 {
		t.Fatalf("non-finite count = %d, want 2", p.NonFinite)
	}
	nf := p.FirstNonFinite
	if nf == nil || nf.Proc != "p" || nf.Line != 7 || nf.Op != "*" || !nf.ShadowFinite {
		t.Fatalf("first non-finite = %+v, want p:7 op * shadow-finite", nf)
	}
}

func TestAssignAtomAttribution(t *testing.T) {
	r := NewRecorder("m.ft", Options{})
	r.PushTarget("mod.proc.s1")
	// RHS op introduces local rounding 0.5 attributed to the target.
	r.Op("proc", 5, '+', 1, 1, 1, 1, 2, 4, 4)
	r.Assign("proc", 5, "mod.proc.s1", 2, 4, 2)
	r.PopTarget()
	r.Assign("proc", 6, "", 1, 1, 1) // non-atom target: no atom entry

	p := r.Profile()
	if len(p.Atoms) != 1 {
		t.Fatalf("atoms = %+v, want exactly mod.proc.s1", p.Atoms)
	}
	a := p.Atoms[0]
	if a.QName != "mod.proc.s1" || a.Assigns != 1 {
		t.Fatalf("atom = %+v", a)
	}
	if a.MaxDivergence != 0.5 {
		t.Fatalf("atom max divergence = %v, want 0.5", a.MaxDivergence)
	}
	if a.RoundErrSum <= 0 {
		t.Fatalf("atom round err sum = %v, want > 0 (RHS attribution)", a.RoundErrSum)
	}
}

func TestDiscretizeCountsOnlyFlips(t *testing.T) {
	r := NewRecorder("m.ft", Options{})
	r.Discretize("p", 2, 3, 3)
	r.Discretize("p", 2, 3, 4)
	if p := r.Profile(); p.Discretizations != 1 {
		t.Fatalf("discretizations = %d, want 1", p.Discretizations)
	}
}

func TestProfileSortedAndDeterministic(t *testing.T) {
	build := func() *Profile {
		r := NewRecorder("m.ft", Options{})
		for line := 20; line >= 10; line-- {
			r.Op("p", line, '*', 1, 1, 1, 1, 1, 1+float64(line)*1e-8, 1)
		}
		r.Assign("p", 10, "b.atom", 1, 1.5, 1)
		r.Assign("p", 11, "a.atom", 1, 1.5, 1) // tie on divergence → QName order
		return r.Profile()
	}
	p1, p2 := build(), build()
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("profile not deterministic across identical runs")
	}
	for i := 1; i < len(p1.Statements); i++ {
		if p1.Statements[i-1].Score() < p1.Statements[i].Score() {
			t.Fatalf("statements not sorted by score at %d", i)
		}
	}
	if p1.Atoms[0].QName != "a.atom" || p1.Atoms[1].QName != "b.atom" {
		t.Fatalf("atom tie not broken by QName: %+v", p1.Atoms)
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	r := NewRecorder("funarc.ft", Options{})
	r.PushTarget("funarc_mod.funarc.s1")
	r.Op("funarc", 37, '-', 1.0001, 1.0, 1.00010001, 1.0, 1e-4, 1e-4, 1.0001e-4)
	r.Assign("funarc", 37, "funarc_mod.funarc.s1", 1e-4, 1.0001e-4, 1e-4)
	r.PopTarget()
	r.Op("funarc", 19, '*', 3e38, 3e38, 3e38, 3e38, math.Inf(1), math.Inf(1), 9e76)
	r.Discretize("fun", 12, 1, 2)
	r.Branch("fun", 13)

	p := r.Profile()
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("profile with non-finite events must marshal: %v", err)
	}
	var back Profile
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(p, &back) {
		t.Fatalf("JSON round-trip mismatch:\n%+v\n%+v", p, &back)
	}
}

func TestRenderMentionsKeySites(t *testing.T) {
	r := NewRecorder("funarc.ft", Options{})
	xs := 1.00010001
	r.Op("funarc", 37, '-', 1.0001, 1.0, xs, 1.0, 1e-4, 1e-4, 1.0001e-4)
	r.Assign("funarc", 37, "funarc_mod.funarc.s1", 1e-4, 1.0001e-4, 1e-4)
	r.Op("funarc", 19, '*', 3e38, 3e38, 3e38, 3e38, math.Inf(1), math.Inf(1), 9e76)
	out := r.Profile().Render(10)
	for _, want := range []string{"funarc.ft:37", "funarc_mod.funarc.s1", "first non-finite", "lowering-induced", "catastrophic 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestHeatmapLayout(t *testing.T) {
	r := NewRecorder("m.ft", Options{})
	r.Op("alpha", 12, '-', 1.0001, 1.0, 1.00010001, 1.0, 1e-4, 1e-4, 1.0001e-4)
	r.Op("alpha", 5, '*', 1, 1, 1, 1, 1, 1+1e-9, 1)
	r.Op("beta", 30, '+', 1, 1, 1, 1, 2, 2, 2)
	h := r.Profile().Heatmap()
	if len(h.Rows) != 2 || h.Rows[0].Name != "alpha" || h.Rows[1].Name != "beta" {
		t.Fatalf("rows = %+v, want alpha then beta", h.Rows)
	}
	if h.Rows[0].Cells[0].Label != "5" || h.Rows[0].Cells[1].Label != "12!" {
		t.Fatalf("alpha cells = %+v, want line order with ! on catastrophic site", h.Rows[0].Cells)
	}
	html := h.HTML()
	for _, want := range []string{"<table", "m.ft:12", "12!"} {
		if !strings.Contains(html, want) {
			t.Errorf("heatmap HTML missing %q", want)
		}
	}
}

func TestPushPopTargetNesting(t *testing.T) {
	r := NewRecorder("m.ft", Options{})
	r.PushTarget("outer")
	r.PushTarget("") // inner non-atom assignment masks outer
	r.Op("p", 1, '+', 1, 1, 1, 1, 2, 4, 4)
	r.PopTarget()
	r.Op("p", 2, '+', 1, 1, 1, 1, 2, 4, 4)
	r.PopTarget()
	p := r.Profile()
	if len(p.Atoms) != 1 || p.Atoms[0].QName != "outer" {
		t.Fatalf("atoms = %+v, want only outer", p.Atoms)
	}
}

// recordEvents records one fixed event sequence, twice, through the
// keyed methods or through one Site per statement, as a compiled
// interpreter holds them: ops with a rounding error, a catastrophic
// cancellation and a non-finite birth, intrinsics, assignments to an
// atom and to a non-atom, branches and discretizations.
func recordEvents(r *Recorder, sites bool) {
	held := make(map[StmtKey]*Site)
	site := func(proc string, line int, atom string) *Site {
		k := StmtKey{Proc: proc, Line: line}
		if held[k] == nil {
			held[k] = r.AssignSite(proc, line, atom)
		}
		return held[k]
	}
	op := func(proc string, line int, o byte, x, y, xs, ys, res, exact, shadow float64) {
		if sites {
			site(proc, line, "").Op(o, x, y, xs, ys, res, exact, shadow)
		} else {
			r.Op(proc, line, o, x, y, xs, ys, res, exact, shadow)
		}
	}
	intrinsic := func(proc string, line int, name string, x, res, exact, shadow float64) {
		if sites {
			site(proc, line, "").Intrinsic(name, x, res, exact, shadow)
		} else {
			r.Intrinsic(proc, line, name, x, res, exact, shadow)
		}
	}
	assign := func(proc string, line int, atom string, primary, shadow, stored float64) {
		if sites {
			site(proc, line, atom).Assign(primary, shadow, stored)
		} else {
			r.Assign(proc, line, atom, primary, shadow, stored)
		}
	}
	tiny := math.Ldexp(1, -20)
	for range 2 {
		r.PushTarget("m.a")
		op("p", 1, '+', 1, 2, 1, 2, 3, 3, 3)
		op("p", 2, '*', 3, 0.1, 3, 0.1, float64(float32(0.3)), 3*0.1, 3*0.1)
		op("p", 3, '-', 1+tiny, 1, 1+tiny+1e-9, 1, tiny, tiny, tiny+1e-9)
		op("q", 4, '*', 1e300, 1e300, 1e300, 1e300, math.Inf(1), math.Inf(1), math.Inf(1))
		intrinsic("p", 5, "sqrt", 2, float64(float32(math.Sqrt2)), math.Sqrt2, math.Sqrt2)
		intrinsic("q", 6, "log", 0, math.Inf(-1), math.Inf(-1), math.Inf(-1))
		assign("p", 7, "m.a", float64(float32(0.1)), 0.1, 0.1)
		r.PopTarget()
		assign("p", 8, "", float64(float32(1.0/3)), 1.0/3, 1.0/3)
		assign("q", 9, "m.b", math.NaN(), 1, math.NaN())
		if sites {
			site("p", 10, "").Branch()
			site("p", 11, "").Discretize(1, 2)
			site("p", 12, "").Discretize(3, 3)
		} else {
			r.Branch("p", 10)
			r.Discretize("p", 11, 1, 2)
			r.Discretize("p", 12, 3, 3)
		}
	}
}

// TestKeyedMethodsRecordAsSites checks that the keyed methods record
// what Sites record, and that a keyed op, intrinsic or assignment on a
// statement the recorder has seen allocates nothing.
func TestKeyedMethodsRecordAsSites(t *testing.T) {
	keyed, sited := NewRecorder("m.ft", Options{}), NewRecorder("m.ft", Options{})
	recordEvents(keyed, false)
	recordEvents(sited, true)
	p := keyed.Profile()
	if p.Catastrophic == 0 || p.NonFinite == 0 || p.BranchDivergences == 0 || p.Discretizations == 0 || len(p.Atoms) != 2 {
		t.Fatalf("the event sequence misses a kind of event: %+v", p)
	}
	if q := sited.Profile(); !reflect.DeepEqual(p, q) {
		t.Errorf("keyed methods record\n%+v\nSites record\n%+v", p, q)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		keyed.Op("p", 2, '*', 3, 0.1, 3, 0.1, float64(float32(0.3)), 3*0.1, 3*0.1)
		keyed.Intrinsic("p", 5, "sqrt", 2, float64(float32(math.Sqrt2)), math.Sqrt2, math.Sqrt2)
		keyed.Assign("p", 7, "m.a", float64(float32(0.1)), 0.1, 0.1)
	}); allocs != 0 {
		t.Errorf("keyed Op, Intrinsic and Assign on seen statements allocate %.0f times", allocs)
	}
}
