package staticeval

import (
	"strings"
	"testing"

	"repro/internal/core"
	ft "repro/internal/fortran"
	"repro/internal/gptl"
	"repro/internal/models"
	"repro/internal/transform"
)

// buildFilter builds a filter over an MPAS-A tuner's baseline profile,
// as the static-filter ablation does.
func buildFilter(t *testing.T) (*Filter, *ft.Program, []transform.Atom) {
	t.Helper()
	tn, err := core.New(models.MPASA(), core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bl := tn.BaselineInfo()
	return NewFilterFromRegions(tn.Program(), bl.Regions, bl.HotspotCycles), tn.Program(), tn.Atoms()
}

func TestFilterAcceptsBaselineAndUniform(t *testing.T) {
	f, _, atoms := buildFilter(t)
	for _, tc := range []struct {
		name string
		a    transform.Assignment
	}{
		{"all-64 baseline", transform.Uniform(atoms, 8)},
		{"uniform 32", transform.Uniform(atoms, 4)},
	} {
		v, err := f.Evaluate(tc.a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if v.Reject {
			t.Errorf("%s rejected: %s", tc.name, v)
		}
	}
}

func TestFilterRejectsFluxWrapperVariant(t *testing.T) {
	f, _, atoms := buildFilter(t)
	a := transform.Uniform(atoms, 4)
	a["atm_time_integration.flux4.ua"] = 8 // per-cell mismatch, 40k calls
	v, err := f.Evaluate(a)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Reject {
		t.Fatalf("flux-mismatch variant accepted: %s", v)
	}
	if v.CastPenalty <= 0 || v.MismatchedEdges == 0 {
		t.Errorf("penalty not computed: %s", v)
	}
	joined := strings.Join(v.Reasons, " ")
	if !strings.Contains(joined, "penalty") && !strings.Contains(joined, "vectorization") {
		t.Errorf("reasons unconvincing: %v", v.Reasons)
	}
}

func TestFilterVectorizationRegression(t *testing.T) {
	f, _, atoms := buildFilter(t)
	// Mixing kinds inside the acoustic loops (module fields 64-bit,
	// everything else 32) blocks their vectorization.
	a := transform.Uniform(atoms, 4)
	a["atm_time_integration.ru_p"] = 8
	a["atm_time_integration.rh_p"] = 8
	v, err := f.Evaluate(a)
	if err != nil {
		t.Fatal(err)
	}
	if v.VecLoops >= v.BaseVecLoops {
		t.Errorf("expected fewer vectorized loops: %s", v)
	}
	if !v.Reject {
		t.Errorf("vector-regressed variant accepted: %s", v)
	}
}

func TestFilterUnknownAtom(t *testing.T) {
	f, _, _ := buildFilter(t)
	if _, err := f.Evaluate(transform.Assignment{"no.such.thing": 4}); err == nil {
		t.Error("unknown atom accepted")
	}
}

func TestFilterDoesNotMutateBaseline(t *testing.T) {
	f, prog, atoms := buildFilter(t)
	before := ft.Print(prog)
	if _, err := f.Evaluate(transform.Uniform(atoms, 4)); err != nil {
		t.Fatal(err)
	}
	if ft.Print(prog) != before {
		t.Error("static evaluation mutated the baseline program")
	}
}

func TestVerdictString(t *testing.T) {
	v := &Verdict{CastPenalty: 123, MismatchedEdges: 2, VecLoops: 3, BaseVecLoops: 5,
		Reject: true, Reasons: []string{"because"}}
	s := v.String()
	for _, want := range []string{"penalty=123", "edges=2", "vec=3/5", "REJECT", "because"} {
		if !strings.Contains(s, want) {
			t.Errorf("Verdict.String() %q missing %q", s, want)
		}
	}
}

func TestNewFilterFromRegions(t *testing.T) {
	m := models.MPASA()
	prog, err := m.Parse()
	if err != nil {
		t.Fatal(err)
	}
	regions := []*gptl.Region{{Name: "atm_time_integration.flux4", Calls: 1000}}
	f := NewFilterFromRegions(prog, regions, 1e6)
	if f.calls["atm_time_integration.flux4"] != 1000 {
		t.Error("call counts not adopted from regions")
	}
	if f.baseVec == 0 {
		t.Error("baseline vectorization not analyzed")
	}
}
