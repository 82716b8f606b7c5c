package fortran

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// FuzzParse checks the front end on arbitrary source: Parse and Analyze
// never panic or hang, and a program both accept prints to source that
// parses, analyzes and prints the same again. Its clone shares no memory
// with it, analyzes, and prints the same. The seeds are funarc and
// the unclosed-list reproducers checked in under testdata/fuzz/FuzzParse;
// plain go test replays both. Run it with
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 30s ./internal/fortran/
func FuzzParse(f *testing.F) {
	src, err := os.ReadFile("../models/src/funarc.ft")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(src))
	f.Fuzz(func(t *testing.T, src string) {
		// A hang is a failure: the watchdog's panic ends the process,
		// and the fuzzer keeps the input that caused it.
		watchdog := time.AfterFunc(10*time.Second, func() {
			panic(fmt.Sprintf("front end did not return within 10s on %q", src))
		})
		defer watchdog.Stop()
		prog, err := Parse(src)
		if err != nil {
			return
		}
		if _, err := Analyze(prog, Options{}); err != nil {
			return
		}
		out := Print(prog)
		c := Clone(prog)
		if s := shared(prog, c); s != "" {
			t.Fatalf("program and clone share %s\n%s", s, out)
		}
		if _, err := Analyze(c, Options{}); err != nil {
			t.Fatalf("clone does not analyze: %v\n%s", err, out)
		}
		if cout := Print(c); cout != out {
			t.Fatalf("clone prints differently:\n--- program ---\n%s\n--- clone ---\n%s", out, cout)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("printed program does not parse: %v\n%s", err, out)
		}
		if _, err := Analyze(again, Options{}); err != nil {
			t.Fatalf("printed program does not analyze: %v\n%s", err, out)
		}
		if out2 := Print(again); out2 != out {
			t.Fatalf("printing is not stable:\n--- first ---\n%s\n--- second ---\n%s", out, out2)
		}
	})
}
