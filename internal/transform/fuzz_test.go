package transform

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	ft "repro/internal/fortran"
)

// FuzzApply builds variants of arbitrary FT source: every input that
// parses and analyzes gets two assignments, every atom at kind 4 and
// every other atom at kind 4. Apply never panics or hangs and leaves
// the base printing as before, and a variant it builds prints to source
// that parses, analyzes and prints the same again. The seeds are the
// bundled models and the programs of the wrapper tests; plain go test
// replays them and the corpus under testdata/fuzz/FuzzApply. Run it
// with
//
//	go test -run '^$' -fuzz '^FuzzApply$' -fuzztime 30s ./internal/transform/
func FuzzApply(f *testing.F) {
	files, err := filepath.Glob("../models/src/*.ft")
	if err != nil || len(files) == 0 {
		f.Fatalf("no model sources found: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range []string{funarcSrc, intentOutSrc, arrayArgSrc, namesNotCapturedSrc,
		wrapperClashSrc, sharedSitesSrc, flowSrc} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// A hang is a failure: the watchdog's panic ends the process,
		// and the fuzzer keeps the input that caused it.
		watchdog := time.AfterFunc(10*time.Second, func() {
			panic(fmt.Sprintf("Apply did not return within 10s on %q", src))
		})
		defer watchdog.Stop()
		base, err := ft.Parse(src)
		if err != nil {
			return
		}
		if _, err := ft.Analyze(base, ft.Options{}); err != nil {
			return
		}
		before := ft.Print(base)
		atoms := Atoms(base)
		alternate := Assignment{}
		for i, at := range atoms {
			if i%2 == 0 {
				alternate[at.QName] = 4
			}
		}
		for _, a := range []Assignment{Uniform(atoms, 4), alternate} {
			v, err := Apply(base, a)
			if after := ft.Print(base); after != before {
				t.Fatalf("Apply(%s) changed the base:\n--- before ---\n%s\n--- after ---\n%s", a.Key(), before, after)
			}
			if err != nil {
				continue
			}
			out := ft.Print(v.Prog)
			again, err := ft.Parse(out)
			if err != nil {
				t.Fatalf("variant %s does not parse: %v\n%s", a.Key(), err, out)
			}
			if _, err := ft.Analyze(again, ft.Options{}); err != nil {
				t.Fatalf("variant %s does not analyze: %v\n%s", a.Key(), err, out)
			}
			if out2 := ft.Print(again); out2 != out {
				t.Fatalf("variant %s prints differently after a reparse:\n--- variant ---\n%s\n--- reparsed ---\n%s", a.Key(), out, out2)
			}
		}
	})
}
