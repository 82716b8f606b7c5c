package perfmodel

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	ft "repro/internal/fortran"
	"repro/internal/transform"
)

// modelVariants builds three variants of every bundled model through
// transform.Apply: the baseline, every atom at kind 4, and every other
// atom (in declaration order) at kind 4. fn sees each as
// "<file>/<variant>".
func modelVariants(t *testing.T, fn func(name string, v *transform.Result)) {
	t.Helper()
	files, err := filepath.Glob("../models/src/*.ft")
	if err != nil || len(files) == 0 {
		t.Fatalf("no model sources found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ft.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ft.Analyze(prog, ft.Options{}); err != nil {
			t.Fatal(err)
		}
		atoms := transform.Atoms(prog)
		alternate := transform.Assignment{}
		for i, a := range atoms {
			if i%2 == 0 {
				alternate[a.QName] = 4
			}
		}
		for _, c := range []struct {
			name string
			a    transform.Assignment
		}{{"baseline", nil}, {"uniform4", transform.Uniform(atoms, 4)}, {"alternate", alternate}} {
			v, err := transform.Apply(prog, c.a)
			if err != nil {
				t.Fatalf("%s/%s: %v", filepath.Base(f), c.name, err)
			}
			fn(filepath.Base(f)+"/"+c.name, v)
		}
	}
}

// TestReportsPinned pins the vectorization report of each variant that
// modelVariants builds to the sha256 it had while every loop scan built
// its own maps and walked expressions through closures: decisions,
// reasons and their order are unchanged.
func TestReportsPinned(t *testing.T) {
	want := map[string]string{
		"adcirc.ft/baseline":  "7868c121cc853fc76574877098590a8b418ca173a106eee19dff243f235da8ae",
		"adcirc.ft/uniform4":  "da2071e71ed772b19dc926b6fa5a7f9b953100bf89e0bd2fd6042259481e807a",
		"adcirc.ft/alternate": "99c3f61752157a60bb6d833ea7331546f8f4983297061cea4e2b285c240e524c",
		"funarc.ft/baseline":  "3fe0bdddfb9a1903e9832135daf8c94dc0f2a42f5ec58ed34030f6ed99550267",
		"funarc.ft/uniform4":  "6539ca5139f11af4086c08e000e05425d31c5be51c012b87eb81e91ccfdc65e9",
		"funarc.ft/alternate": "38ca28d919fdf784ab8a88b6d7a411afa8acf96f4d786bf4e2544f71d53f654e",
		"mom6.ft/baseline":    "1bece9f1ffa78f763a40ec4547c419fa655ed207e9072fa7d1072687b1a475da",
		"mom6.ft/uniform4":    "9420568d2353429103cccac83d1bdb2d1ad9f57634a3ccb297a2d5b5ff3fb228",
		"mom6.ft/alternate":   "95b25e5245478fb3278213951aae745079d6cec0cc8c667521c728b69e7a4633",
		"mpas_a.ft/baseline":  "696bb52fde2b4381df6ff57bbcb57e78cfc58f80645047de0268f629b1d9dfed",
		"mpas_a.ft/uniform4":  "3e0f2e69ca638b00b9d848a2e99e997b064b8381fc674e3594deafdb050d77d9",
		"mpas_a.ft/alternate": "7af6c9f68d16347276e9096d642fdaadc22b4abd8930c7bb31f2af3f810a2685",
	}
	got := 0
	modelVariants(t, func(name string, v *transform.Result) {
		got++
		sum := fmt.Sprintf("%x", sha256.Sum256([]byte(Analyze(v.Prog, Default()).Report())))
		if sum != want[name] {
			t.Errorf("%s: report sha256 %s, want %s", name, sum, want[name])
		}
	})
	if got != len(want) {
		t.Errorf("%d variants, want %d", got, len(want))
	}
}
