package transform

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	ft "repro/internal/fortran"
)

// TestApplyAllocsOnModels pins how many objects building a variant of
// each bundled model, with every other atom lowered, allocates: at most
// the counts since wrappers are built from slabs and each analysis
// fills one name map for every procedure and renders no procedure name
// a clone already has. A -race build, whose count may vary, must stay
// under the counts from before that change: 468, 61, 636 and 1,084
// objects for adcirc, funarc, mom6 and mpas_a. While Clone allocated
// every node and list on its own and the variant's analysis rebuilt
// every resolved element reference and call, they were 1,923, 175,
// 2,249 and 2,835.
func TestApplyAllocsOnModels(t *testing.T) {
	limit := map[string]float64{"adcirc.ft": 122, "funarc.ft": 46, "mom6.ft": 165, "mpas_a.ft": 175}
	if raceBuild {
		limit = map[string]float64{"adcirc.ft": 468, "funarc.ft": 61, "mom6.ft": 636, "mpas_a.ft": 1084}
	}
	files, err := filepath.Glob("../models/src/*.ft")
	if err != nil || len(files) != len(limit) {
		t.Fatalf("model sources %v (%v), want the %d of %v", files, err, len(limit), limit)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog := analyzed(t, string(src))
		a := Assignment{}
		for i, at := range Atoms(prog) {
			if i%2 == 0 {
				a[at.QName] = 4
			}
		}
		got := testing.AllocsPerRun(5, func() {
			if _, err := Apply(prog, a); err != nil {
				t.Fatal(err)
			}
		})
		name := filepath.Base(f)
		if got > limit[name] {
			t.Errorf("%s: Apply allocates %.0f objects, want at most %.0f", name, got, limit[name])
		}
		t.Logf("%s: Apply allocates %.0f objects (at most %.0f)", name, got, limit[name])
	}
}

// TestConcurrentApply builds eight variants of one analyzed MPAS-A base
// at once, as a -par 8 tune does, and checks that each prints the same
// as its assignment applied alone. Under go test -race it also checks
// that building a variant writes nothing that the base or another
// variant holds.
func TestConcurrentApply(t *testing.T) {
	src, err := os.ReadFile("../models/src/mpas_a.ft")
	if err != nil {
		t.Fatal(err)
	}
	base := analyzed(t, string(src))
	atoms := Atoms(base)
	assignments := make([]Assignment, 8)
	want := make([]string, len(assignments))
	for i := range assignments {
		assignments[i] = Assignment{}
		for j, at := range atoms {
			if j%len(assignments) <= i {
				assignments[i][at.QName] = 4
			}
		}
		v, err := Apply(base, assignments[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ft.Print(v.Prog)
	}
	if want[0] == want[len(want)-1] {
		t.Fatal("the assignments build the same variant")
	}
	got := make([]string, len(assignments))
	errs := make([]error, len(assignments))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, a := range assignments {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := Apply(base, a)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = ft.Print(v.Prog)
		}()
	}
	close(start)
	wg.Wait()
	for i := range assignments {
		if errs[i] != nil {
			t.Errorf("assignment %d: %v", i, errs[i])
		} else if got[i] != want[i] {
			t.Errorf("assignment %d: the variant built beside seven others prints differently from the one built alone", i)
		}
	}
}
