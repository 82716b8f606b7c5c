package interp

// Differential tests of the VM. Every case runs twice, compiled unboxed
// (the default) and boxed (every unboxed form declines, so each
// expression runs the Value closure that is its fallback), and the two
// runs must agree on everything observable: error text, cycle totals,
// steps, casts and their per-procedure attribution, PRINT output, GPTL
// reports, numerics profiles and every module global, bit for bit. Both
// runs must also match the case's golden digest in testdata/runs.golden,
// which the reference tree-walker wrote before it was deleted.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	ft "repro/internal/fortran"
	"repro/internal/numerics"
	"repro/internal/perfmodel"
	"repro/internal/transform"
)

// engineRun captures everything observable from one run.
type engineRun struct {
	in      *Interp
	res     *Result
	errStr  string
	stdout  []byte
	timers  string
	rec     *numerics.Recorder // nil without numerics
	profile []byte
}

// runOpts configures one differential run.
type runOpts struct {
	numerics, trap bool
	budget         float64
	pool           *Pool // nil: the run allocates its module arrays (New)
}

// compileName names a compile mode in failure messages.
func compileName(boxed bool) string {
	if boxed {
		return "boxed"
	}
	return "unboxed"
}

// runVM runs prog compiled unboxed or boxed and captures what it shows.
func runVM(t *testing.T, prog *ft.Program, boxed bool, o runOpts) *engineRun {
	t.Helper()
	r, err := runEngine(prog, boxed, o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runEngine is runVM returning its failure; a goroutine other than the
// test's may call it.
func runEngine(prog *ft.Program, boxed bool, o runOpts) (*engineRun, error) {
	var out bytes.Buffer
	cfg := Config{Model: perfmodel.Default(), Profile: true, Stdout: &out,
		TrapNonFinite: o.trap, CycleBudget: o.budget}
	var rec *numerics.Recorder
	if o.numerics {
		rec = numerics.NewRecorder("prog.ft", numerics.Options{})
		cfg.Numerics = rec
	}
	in, err := newInterp(prog, cfg, boxed, o.pool)
	if err != nil {
		return nil, fmt.Errorf("New(%s): %v", compileName(boxed), err)
	}
	res, rerr := in.Run()
	if res == nil {
		return nil, fmt.Errorf("%s run returned no Result (error %v)", compileName(boxed), rerr)
	}
	r := &engineRun{in: in, res: res, stdout: out.Bytes(), rec: rec}
	if rerr != nil {
		var re *RunError
		if !errors.As(rerr, &re) {
			return nil, fmt.Errorf("%s run error %T is not a *RunError: %v", compileName(boxed), rerr, rerr)
		}
		r.errStr = rerr.Error()
	}
	if res.Timers != nil {
		r.timers = res.Timers.Report()
	}
	if rec != nil {
		b, jerr := json.Marshal(rec.Profile())
		if jerr != nil {
			return nil, fmt.Errorf("marshal profile: %v", jerr)
		}
		r.profile = b
	}
	return r, nil
}

// compareEngines is diffEngines returning only the run's error text
// ("" for none).
func compareEngines(t *testing.T, prog *ft.Program, src string, o runOpts) string {
	t.Helper()
	return diffEngines(t, prog, src, o).errStr
}

// diffEngines runs prog unboxed and boxed with identical configs, fails
// on any observable divergence, and checks both runs against the golden
// digest of the calling subtest (src is the program's source text). It
// returns the unboxed run.
func diffEngines(t *testing.T, prog *ft.Program, src string, o runOpts) *engineRun {
	t.Helper()
	unboxed := runVM(t, prog, false, o)
	boxed := runVM(t, prog, true, o)
	diffRuns(t, prog, o.numerics, unboxed, boxed)
	checkGolden(t, src, prog, o.numerics, unboxed, boxed)
	return unboxed
}

// diffRuns fails on any observable divergence between the unboxed run
// a and the boxed run b. Comparisons are exact (bit patterns, not
// tolerances): the runs must agree down to float accumulation order.
func diffRuns(t *testing.T, prog *ft.Program, withNumerics bool, a, b *engineRun) {
	t.Helper()
	if a.errStr != b.errStr {
		t.Fatalf("run error diverged:\n  unboxed: %q\n  boxed:   %q", a.errStr, b.errStr)
	}
	if b1, b2 := math.Float64bits(a.res.Cycles), math.Float64bits(b.res.Cycles); b1 != b2 {
		t.Errorf("cycles diverged: unboxed %.17g boxed %.17g", a.res.Cycles, b.res.Cycles)
	}
	if a.res.Casts != b.res.Casts {
		t.Errorf("casts diverged: unboxed %d boxed %d", a.res.Casts, b.res.Casts)
	}
	if math.Float64bits(a.res.CastCycles) != math.Float64bits(b.res.CastCycles) {
		t.Errorf("cast cycles diverged: unboxed %.17g boxed %.17g", a.res.CastCycles, b.res.CastCycles)
	}
	if a.res.Steps != b.res.Steps {
		t.Errorf("steps diverged: unboxed %d boxed %d", a.res.Steps, b.res.Steps)
	}
	if len(a.res.ProcCastCycles) != len(b.res.ProcCastCycles) {
		t.Errorf("proc cast attribution diverged:\n  unboxed: %v\n  boxed:   %v",
			a.res.ProcCastCycles, b.res.ProcCastCycles)
	}
	for q, c := range a.res.ProcCastCycles {
		bc, ok := b.res.ProcCastCycles[q]
		if !ok || math.Float64bits(c) != math.Float64bits(bc) {
			t.Errorf("proc cast cycles for %s diverged: unboxed %.17g boxed %.17g (present=%v)", q, c, bc, ok)
		}
	}
	if !bytes.Equal(a.stdout, b.stdout) {
		t.Errorf("PRINT output diverged:\n  unboxed: %q\n  boxed:   %q", a.stdout, b.stdout)
	}
	if a.timers != b.timers {
		t.Errorf("GPTL report diverged:\n--- unboxed ---\n%s\n--- boxed ---\n%s", a.timers, b.timers)
	}
	if !bytes.Equal(a.profile, b.profile) {
		t.Errorf("numerics profile diverged:\n  unboxed: %s\n  boxed:   %s", a.profile, b.profile)
	}
	compareGlobals(t, prog, a.in, b.in, withNumerics)
}

func compareGlobals(t *testing.T, prog *ft.Program, a, b *Interp, withNumerics bool) {
	t.Helper()
	for _, mod := range prog.Modules {
		for _, d := range mod.Decls {
			q := d.QName()
			av, _ := a.Global(q)
			bv, _ := b.Global(q)
			if (av.Arr == nil) != (bv.Arr == nil) {
				t.Errorf("global %s: array allocation diverged (unboxed nil=%v boxed nil=%v)",
					q, av.Arr == nil, bv.Arr == nil)
				continue
			}
			if av.Arr != nil {
				x, y := av.Arr, bv.Arr
				if len(x.Data) != len(y.Data) {
					t.Errorf("global %s: array size diverged (%d vs %d)", q, len(x.Data), len(y.Data))
					continue
				}
				for k := range x.Data {
					if math.Float64bits(x.Data[k]) != math.Float64bits(y.Data[k]) {
						t.Errorf("global %s[%d]: unboxed %.17g boxed %.17g", q, k, x.Data[k], y.Data[k])
						break
					}
				}
				if withNumerics {
					if (x.Shadow == nil) != (y.Shadow == nil) {
						t.Errorf("global %s: shadow allocation diverged", q)
						continue
					}
					for k := range x.Shadow {
						if math.Float64bits(x.Shadow[k]) != math.Float64bits(y.Shadow[k]) {
							t.Errorf("global %s shadow[%d]: unboxed %.17g boxed %.17g", q, k, x.Shadow[k], y.Shadow[k])
							break
						}
					}
				}
				continue
			}
			if math.Float64bits(av.F) != math.Float64bits(bv.F) || av.I != bv.I || av.B != bv.B {
				t.Errorf("global %s diverged: unboxed {F:%.17g I:%d B:%v} boxed {F:%.17g I:%d B:%v}",
					q, av.F, av.I, av.B, bv.F, bv.I, bv.B)
			}
			// The shadow lane is only defined under a recorder; without
			// one a run is free to report F there.
			if withNumerics && math.Float64bits(av.Sh) != math.Float64bits(bv.Sh) {
				t.Errorf("global %s shadow diverged: unboxed %.17g boxed %.17g", q, av.Sh, bv.Sh)
			}
		}
	}
}

// digest hashes everything diffRuns compares, in a fixed order with
// every variable-length field length-prefixed. Shadow lanes are hashed
// only with numerics on, where they are defined; a nil shadow array
// hashes as its length 0 without the marker 1. The encoding is frozen:
// testdata/runs.golden was written with it.
func (r *engineRun) digest(prog *ft.Program, withNumerics bool) string {
	h := sha256.New()
	num := func(u uint64) { binary.Write(h, binary.LittleEndian, u) }
	str := func(b []byte) { num(uint64(len(b))); h.Write(b) }
	bits := func(f float64) { num(math.Float64bits(f)) }
	str([]byte(r.errStr))
	bits(r.res.Cycles)
	bits(r.res.CastCycles)
	num(uint64(r.res.Steps))
	num(uint64(r.res.Casts))
	procs := make([]string, 0, len(r.res.ProcCastCycles))
	for q := range r.res.ProcCastCycles {
		procs = append(procs, q)
	}
	sort.Strings(procs)
	num(uint64(len(procs)))
	for _, q := range procs {
		str([]byte(q))
		bits(r.res.ProcCastCycles[q])
	}
	str(r.stdout)
	str([]byte(r.timers))
	str(r.profile)
	for _, mod := range prog.Modules {
		for _, d := range mod.Decls {
			q := d.QName()
			v, _ := r.in.Global(q)
			str([]byte(q))
			if v.Arr == nil {
				num(0)
				bits(v.F)
				num(uint64(v.I))
				if v.B {
					num(1)
				} else {
					num(0)
				}
				if withNumerics {
					bits(v.Sh)
				}
				continue
			}
			num(1)
			num(uint64(len(v.Arr.Data)))
			for _, f := range v.Arr.Data {
				bits(f)
			}
			if withNumerics {
				num(uint64(len(v.Arr.Shadow)))
				if v.Arr.Shadow != nil {
					num(1)
				}
				for _, f := range v.Arr.Shadow {
					bits(f)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// sourceDigest identifies a case's program: a golden digest is only a
// verdict on the program it was written for.
func sourceDigest(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:16])
}

// goldenPath holds one line per differential case: the subtest name,
// the digest of the program's source and the digest of its run.
const goldenPath = "testdata/runs.golden"

var (
	goldenOnce sync.Once
	goldens    map[string][2]string
	goldenErr  error
)

// loadGoldens reads goldenPath once.
func loadGoldens() (map[string][2]string, error) {
	goldenOnce.Do(func() {
		f, err := os.Open(goldenPath)
		if err != nil {
			goldenErr = err
			return
		}
		defer f.Close()
		goldens = map[string][2]string{}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) != 3 {
				goldenErr = fmt.Errorf("%s: malformed line %q", goldenPath, line)
				return
			}
			goldens[fields[0]] = [2]string{fields[1], fields[2]}
		}
		goldenErr = sc.Err()
	})
	return goldens, goldenErr
}

// checkGolden checks the unboxed and boxed runs of the calling subtest
// against its golden digest. A case the goldens do not hold (a seed
// added after they were written) is checked by diffRuns alone.
func checkGolden(t *testing.T, src string, prog *ft.Program, withNumerics bool, unboxed, boxed *engineRun) {
	t.Helper()
	gs, err := loadGoldens()
	if err != nil {
		t.Fatalf("load goldens: %v", err)
	}
	want, ok := gs[t.Name()]
	tally(t, ok)
	if !ok {
		return
	}
	if got := sourceDigest(src); got != want[0] {
		t.Fatalf("program source digest %s, golden %s: the program changed since its golden was written "+
			"(add new generator forms under new seeds, never by editing an existing seed's program)", got, want[0])
	}
	for _, r := range []struct {
		boxed bool
		run   *engineRun
	}{{false, unboxed}, {true, boxed}} {
		if got := r.run.digest(prog, withNumerics); got != want[1] {
			t.Errorf("%s run digest %s, golden %s", compileName(r.boxed), got, want[1])
		}
	}
}

// tallies counts, by suite, the differential cases run and the golden
// digests checked. The suites run their subtests one at a time.
var tallies = map[string]*[2]int{}

// tally counts a differential case of the calling subtest's suite, and
// whether its golden was checked.
func tally(t *testing.T, checked bool) {
	if c := tallies[strings.SplitN(t.Name(), "/", 2)[0]]; c != nil {
		c[0]++
		if checked {
			c[1]++
		}
	}
}

// trackGoldens starts counting the cases of suite t. The returned func
// fails, after a run that selected every case, unless every golden of t
// was checked, so a renamed subtest cannot silently skip its golden.
func trackGoldens(t *testing.T) func() {
	c := &[2]int{}
	tallies[t.Name()] = c
	return func() {
		t.Helper()
		gs, err := loadGoldens()
		if err != nil {
			t.Fatalf("load goldens: %v", err)
		}
		want := 0
		for k := range gs {
			if strings.SplitN(k, "/", 2)[0] == t.Name() {
				want++
			}
		}
		if c[0] >= want && c[1] != want {
			t.Errorf("%d cases checked a golden digest, testdata holds %d for %s", c[1], want, t.Name())
		}
	}
}

func parseModelFile(t *testing.T, path string) *ft.Program {
	t.Helper()
	src, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("read %s: %v", path, rerr)
	}
	prog, err := ft.ParseFile(path, string(src))
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if _, err := ft.Analyze(prog, ft.Options{}); err != nil {
		t.Fatalf("analyze %s: %v", path, err)
	}
	return prog
}

// TestEngineDifferentialModels runs every bundled model source, with
// and without shadow execution, along with two of its lowerings:
// uniform 32-bit, the cast-heaviest variant the tuner ever builds, and
// a partial one (every other atom at kind 4) whose mismatched call
// sites go through generated wrappers, as most variants a tune
// evaluates do. A case's source digest hashes ft.Print of the program
// that ran.
func TestEngineDifferentialModels(t *testing.T) {
	files, err := filepath.Glob("../models/src/*.ft")
	if err != nil || len(files) == 0 {
		t.Fatalf("no model sources found: %v", err)
	}
	wantWrappers := map[string]int{"adcirc.ft": 5, "funarc.ft": 0, "mom6.ft": 7, "mpas_a.ft": 11}
	allGoldens := trackGoldens(t)
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			prog := parseModelFile(t, f)
			// both runs the program with numerics off and on and returns
			// the two outcomes.
			both := func(variant string, prog *ft.Program) (string, string) {
				var msg [2]string
				for k, num := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/numerics=%v", variant, num), func(t *testing.T) {
						msg[k] = compareEngines(t, prog, ft.Print(prog), runOpts{numerics: num})
					})
				}
				return msg[0], msg[1]
			}
			both("source", prog)

			atoms := transform.Atoms(prog)
			v, err := transform.Apply(prog, transform.Uniform(atoms, 4))
			if err != nil {
				t.Fatalf("uniform-32 transform: %v", err)
			}
			both("uniform-32", v.Prog)

			v = lowerAlternate(t, prog)
			if want, ok := wantWrappers[filepath.Base(f)]; !ok || v.Wrappers != want {
				t.Errorf("alternate-atom lowering generated %d wrappers, want %d (known model: %v)", v.Wrappers, want, ok)
			}
			msg, num := both("alternate-atom", v.Prog)
			if num != msg {
				t.Errorf("alternate-atom lowering: numerics changed the outcome: %q, without %q", num, msg)
			}
			t.Logf("alternate-atom lowering: %d wrappers, outcome %q", v.Wrappers, msg)
		})
	}
	allGoldens()
}

// lowerAlternate lowers every other atom of prog to kind 4: a partial
// lowering whose mismatched call sites go through generated wrappers.
func lowerAlternate(t *testing.T, prog *ft.Program) *transform.Result {
	t.Helper()
	atoms := transform.Atoms(prog)
	mixed := transform.Assignment{}
	for k := 0; k < len(atoms); k += 2 {
		mixed[atoms[k].QName] = 4
	}
	v, err := transform.Apply(prog, mixed)
	if err != nil {
		t.Fatalf("alternate-atom transform: %v", err)
	}
	return v
}

// TestEngineDifferentialBudget pins that a cycle budget truncating a
// model run mid-flight stops it at the same statement with the same
// error, unboxed and boxed. Profile is on, as in the baseline
// measurement, so timer overhead is part of the cycle count.
func TestEngineDifferentialBudget(t *testing.T) {
	path := "../models/src/funarc.ft"
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prog := parseModelFile(t, path)
	full := runVM(t, prog, false, runOpts{})
	if full.errStr != "" {
		t.Fatalf("unbudgeted run failed: %s", full.errStr)
	}
	allGoldens := trackGoldens(t)
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		t.Run(fmt.Sprintf("frac=%v", frac), func(t *testing.T) {
			budget := full.res.Cycles * frac
			if compareEngines(t, prog, string(src), runOpts{budget: budget}) == "" {
				t.Fatalf("budget %.0f did not trip", budget)
			}
		})
	}
	allGoldens()
}

// TestEngineDifferentialProperty feeds randomized scalar expression
// programs through the differential check. The grammar leans on the
// operations with the trickiest rounding behaviour: kind-4 arithmetic,
// **, and transcendentals.
func TestEngineDifferentialProperty(t *testing.T) {
	ops := []string{"+", "-", "*", "/"}
	uns := []string{"sqrt(abs(%s))", "sin(%s)", "cos(%s)", "exp(min(%s, 4.0_8))", "abs(%s)", "-(%s)",
		"sign(%s, y)", "sign(x, %s)", "sign(0.1d0, %s)", "max(%s, x, 0.5_4)", "min(%s, y)"}
	pows := []string{"abs(%s) ** 2", "abs(%s) ** 3", "abs(%s) ** 7", "abs(%s) ** y", "abs(%s) ** 0.5_4"}
	var rng uint64 = 0x9e3779b97f4a7c15
	next := func(n int) int { // xorshift, deterministic across runs
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	var gen func(depth int) string
	gen = func(depth int) string {
		if depth <= 0 {
			switch next(4) {
			case 0:
				return "x"
			case 1:
				return "y"
			case 2:
				return "1.7_4"
			default:
				return "0.3141592653589793_8"
			}
		}
		switch next(3) {
		case 0:
			return fmt.Sprintf("(%s %s %s)", gen(depth-1), ops[next(len(ops))], gen(depth-1))
		case 1:
			return fmt.Sprintf(uns[next(len(uns))], gen(depth-1))
		default:
			return fmt.Sprintf("(%s)", fmt.Sprintf(pows[next(len(pows))], gen(depth-1)))
		}
	}
	allGoldens := trackGoldens(t)
	for i := 0; i < 120; i++ {
		kind := 4 + 4*next(2)
		x := float64(next(4000)-2000) / 128
		y := float64(next(300)+1) / 64
		expr := gen(2 + next(3))
		src := fmt.Sprintf(`
module e
  implicit none
  real(kind=8) :: r_out
end module e
program p
  use e
  implicit none
  real(kind=%d) :: x, y
  x = %.17g_8
  y = %.17g_8
  r_out = %s
end program p
`, kind, x, y, expr)
		prog, err := ft.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		if _, err := ft.Analyze(prog, ft.Options{}); err != nil {
			t.Fatalf("analyze: %v\n%s", err, src)
		}
		for _, num := range []bool{false, true} {
			if !t.Run(fmt.Sprintf("case%d/numerics=%v", i, num), func(t *testing.T) {
				compareEngines(t, prog, src, runOpts{numerics: num})
			}) {
				t.Logf("case %d expr: %s", i, expr)
			}
		}
	}
	allGoldens()
}

// TestEngineDifferentialCalls feeds seeded programs built around the
// VM's call and array-addressing paths through both engines: 1-D and 2-D
// arrays with unit, non-unit and negative lower bounds; indices in the
// unboxed forms (literals, local, module and parameter integers, i±k, k*i,
// (i+j)-k) beside Value-path ones (i/k, nint(x), mod, unary minus); and
// calls with 0-7 scalar dummies of every intent and both real kinds, bound
// to scalar, element, literal and expression actuals. Some programs index
// out of bounds, and huge kind-8 dummies copied out into kind-4 actuals
// turn non-finite. Results must agree bit for bit with and without
// numerics and TrapNonFinite.
func TestEngineDifferentialCalls(t *testing.T) {
	tally, tallied := map[string]int{}, 0
	formTally := map[string]int{}
	allGoldens := trackGoldens(t)
	for seed := 1; seed <= 120; seed++ {
		src, forms := genCallProgram(uint64(seed))
		for f := range forms {
			formTally[f]++
		}
		prog, err := ft.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		if _, err := ft.Analyze(prog, ft.Options{AllowKindMismatch: true}); err != nil {
			t.Fatalf("seed %d: analyze: %v\n%s", seed, err, src)
		}
		for _, trap := range []bool{false, true} {
			for _, num := range []bool{false, true} {
				name := fmt.Sprintf("seed%d/trap=%v/numerics=%v", seed, trap, num)
				ok := t.Run(name, func(t *testing.T) {
					msg := compareEngines(t, prog, src, runOpts{numerics: num, trap: trap})
					if trap && !num {
						tally[callOutcome(msg)]++
						tallied++
					}
				})
				if !ok {
					t.Logf("seed %d source:\n%s", seed, src)
				}
			}
		}
	}
	allGoldens()
	// Every function-call form the generator was built for must occur.
	t.Logf("programs containing each call form: %v", formTally)
	for form, least := range map[string]int{"scalar-rhs": 10, "element-rhs": 10, "abs-arg": 5, "sign-arg": 5, "nested": 5} {
		if formTally[form] < least {
			t.Errorf("only %d of 120 programs contain call form %q, want at least %d (tally %v)", formTally[form], form, least, formTally)
		}
	}
	// The generator must keep reaching every outcome it was built for
	// (checked only when -run selected every program).
	t.Logf("outcomes under TrapNonFinite: %v", tally)
	if tallied < 120 {
		return
	}
	for outcome, least := range map[string]int{"ok": 40, "bounds": 5, "copy-out": 3, "assign": 3, "intent": 1} {
		if tally[outcome] < least {
			t.Errorf("only %d of 120 programs ended %q, want at least %d (tally %v)", tally[outcome], outcome, least, tally)
		}
	}
}

// callOutcome classifies a run's error text for the generator's tally.
func callOutcome(msg string) string {
	switch {
	case msg == "":
		return "ok"
	case strings.Contains(msg, "out of bounds"):
		return "bounds"
	case strings.Contains(msg, "returned into"):
		return "copy-out"
	case strings.Contains(msg, "assigning non-finite"):
		return "assign"
	case strings.Contains(msg, "is not a variable"):
		return "intent"
	}
	return msg
}

// genCallProgram builds one program for TestEngineDifferentialCalls.
// The main loop runs i = 1..4; every index is placed inside its bounds by
// evaluating it over that range, except one deliberately out-of-bounds
// index in about one program in six.
func genCallProgram(seed uint64) (string, map[string]bool) {
	forms := map[string]bool{} // the function-call forms the program contains
	rng := seed*0x9e3779b97f4a7c15 | 1
	next := func(n int) int { // xorshift, deterministic across runs
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	pick := func(xs ...string) string { return xs[next(len(xs))] }
	np, mk, jv := 1+next(3), 2+next(3), 1+next(3)

	type array struct {
		name    string
		kind    int
		lo, ext []int
	}
	los := []int{1, 3, -4}
	perm := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}[next(6)]
	arrs := []array{
		{"a", 4 + 4*next(2), []int{los[perm[0]]}, []int{10 + next(5)}},
		{"b", 4 + 4*next(2), []int{los[perm[1]]}, []int{10 + next(5)}},
		{"c", 4 + 4*next(2), []int{los[perm[2]], los[next(3)]}, []int{10 + next(3), 10 + next(3)}},
	}

	// index returns an index expression for bounds [lo, lo+ext-1]. Inside
	// procedures (inProc) only module and parameter integers are visible.
	oobLeft := 0
	if next(6) == 0 {
		oobLeft = 1
	}
	index := func(lo, ext int, inProc bool) string {
		hi := lo + ext - 1
		oob := !inProc && oobLeft > 0 && next(4) == 0
		if oob {
			oobLeft--
		}
		for {
			c := 1 + next(3)
			var s string
			var f func(i int) int
			switch k := next(15); {
			case k == 0 && !oob:
				return fmt.Sprint(lo + next(ext))
			case k <= 1:
				s, f = "np", func(int) int { return np }
			case k == 2:
				s, f = "mk", func(int) int { return mk }
			case k == 3:
				s, f = fmt.Sprintf("mk * %d", c), func(int) int { return mk * c }
			case k == 4:
				s, f = "mk / np", func(int) int { return mk / np }
			case inProc:
				continue
			case k == 5:
				s, f = "i", func(i int) int { return i }
			case k == 6:
				s, f = "j", func(int) int { return jv }
			case k == 7:
				s, f = fmt.Sprintf("i + %d", c), func(i int) int { return i + c }
			case k == 8:
				s, f = fmt.Sprintf("i - %d", c), func(i int) int { return i - c }
			case k == 9:
				s, f = fmt.Sprintf("%d * i", c+1), func(i int) int { return (c + 1) * i }
			case k == 10:
				s, f = fmt.Sprintf("(i + j) - %d", c), func(i int) int { return i + jv - c }
			case k == 11:
				s, f = "(i + mk) - np", func(i int) int { return i + mk - np }
			case k == 12:
				s, f = fmt.Sprintf("i / %d", c+1), func(i int) int { return i / (c + 1) }
			case k == 13:
				s, f = "nint(xr) + mod(i, 3)", func(i int) int { return 3 + i%3 }
			default:
				s, f = "-i", func(i int) int { return -i }
			}
			vmin, vmax := f(1), f(1)
			for i := 2; i <= 4; i++ {
				vmin, vmax = min(vmin, f(i)), max(vmax, f(i))
			}
			span := vmax - vmin
			if span > ext-1 {
				continue
			}
			shift := lo - vmin + next(ext-span)
			if oob {
				shift = hi - vmax + 1
			}
			switch {
			case shift > 0:
				return fmt.Sprintf("(%s) + %d", s, shift)
			case shift < 0:
				return fmt.Sprintf("(%s) - %d", s, -shift)
			}
			return s
		}
	}
	elem := func(inProc bool) string {
		a := arrs[next(len(arrs))]
		idx := make([]string, len(a.lo))
		for d := range idx {
			idx[d] = index(a.lo[d], a.ext[d], inProc)
		}
		return fmt.Sprintf("%s(%s)", a.name, strings.Join(idx, ", "))
	}

	type dummy struct{ name, base, intent string }
	type proc struct {
		name   string
		isFunc bool
		dums   []dummy
	}
	// innerCall calls pr from a procedure body, where the caller's real
	// dummies (reals) and module names are visible. Integer copy-outs go
	// to si, never to mk, which indices read.
	innerCall := func(pr proc, reals []string) string {
		args := make([]string, len(pr.dums))
		for k, du := range pr.dums {
			out := du.intent == "out" || du.intent == "inout"
			switch {
			case du.base == "i" && du.intent == "in":
				args[k] = pick("mk", "np", "si", "mk + 1")
			case du.base == "i" && out:
				args[k] = "si"
			case du.base == "i":
				args[k] = pick("si", "3", "mk + 1")
			case out:
				args[k] = pick(append([]string{"s8", "s4", elem(true)}, reals...)...)
			default:
				args[k] = pick(append([]string{"s8", "0.5d0", "rp", elem(true)}, reals...)...)
			}
		}
		return fmt.Sprintf("%s(%s)", pr.name, strings.Join(args, ", "))
	}

	var procs, funcs []proc
	var mod strings.Builder
	for p := 0; p < 2+next(2); p++ {
		pr := proc{name: fmt.Sprintf("p%d", p), isFunc: next(3) == 0}
		if pr.isFunc {
			pr.name = fmt.Sprintf("f%d", p)
		}
		earlier := funcs
		var names []string
		for d := 0; d < next(8); d++ {
			du := dummy{
				name:   fmt.Sprintf("d%d", d),
				base:   pick("r8", "r8", "r8", "r4", "r4", "r4", "i", "i"),
				intent: pick("", "in", "out", "inout"),
			}
			pr.dums = append(pr.dums, du)
			names = append(names, du.name)
		}
		procs = append(procs, pr)
		kw, res := "subroutine", ""
		if pr.isFunc {
			kw, res = "function", " result(r)"
		}
		fmt.Fprintf(&mod, "  %s %s(%s)%s\n", kw, pr.name, strings.Join(names, ", "), res)
		var reals, ints []string
		for _, du := range pr.dums {
			typ := "integer"
			switch du.base {
			case "r8":
				typ = "real(kind=8)"
				reals = append(reals, du.name)
			case "r4":
				typ = "real(kind=4)"
				reals = append(reals, du.name)
			default:
				ints = append(ints, du.name)
			}
			if du.intent != "" {
				typ += fmt.Sprintf(", intent(%s)", du.intent)
			}
			fmt.Fprintf(&mod, "    %s :: %s\n", typ, du.name)
		}
		if pr.isFunc {
			fmt.Fprintf(&mod, "    real(kind=%d) :: r\n", 4+4*next(2))
		}
		term := func() string {
			if len(reals) > 0 && next(3) > 0 {
				return reals[next(len(reals))]
			}
			if len(ints) > 0 && next(3) == 0 {
				return ints[next(len(ints))]
			}
			return pick("0.5d0", "1.25", "rp", elem(true))
		}
		// A huge kind-8 value stays finite in its dummy and overflows
		// when copied out into a kind-4 actual; in kind 4 it traps at once.
		rexpr := func(kind8 bool) string {
			e := fmt.Sprintf("%s %s %s", term(), pick("+", "-", "*", "*"), term())
			if kind8 && next(3) == 0 || next(25) == 0 {
				e = fmt.Sprintf("(%s) * 1.0d300", e)
			}
			return e
		}
		for _, du := range pr.dums {
			if du.intent == "in" || next(10) < 3 {
				continue
			}
			if du.base == "i" {
				fmt.Fprintf(&mod, "    %s = %s\n", du.name, pick(du.name+" + 1", du.name+" * 2 - np", du.name+" - mk"))
				continue
			}
			fmt.Fprintf(&mod, "    %s = %s\n", du.name, rexpr(du.base == "r8"))
		}
		if pr.isFunc {
			e := rexpr(false)
			if len(earlier) > 0 && next(3) > 0 {
				// Nested function calls: this one runs inside another's frame.
				e = fmt.Sprintf("%s %s %s", innerCall(earlier[next(len(earlier))], reals), pick("+", "-", "*"), e)
				forms["nested"] = true
			}
			fmt.Fprintf(&mod, "    r = %s\n", e)
			funcs = append(funcs, pr)
		}
		fmt.Fprintf(&mod, "  end %s %s\n", kw, pr.name)
	}

	realVar := func() string { return pick("x8", "y8", "s8", "x4", "y4", "s4") }
	var call func(pr proc, depth int) string
	call = func(pr proc, depth int) string {
		args := make([]string, len(pr.dums))
		for k, du := range pr.dums {
			out := du.intent == "out" || du.intent == "inout"
			switch {
			case out && next(40) == 0:
				// A parameter is no variable: the call fails at run time.
				args[k] = "rp"
				if du.base == "i" {
					args[k] = "np"
				}
			case du.base == "i" && out:
				args[k] = pick("n", "si")
			case du.base == "i" && du.intent == "in":
				args[k] = pick("n", "si", "i", "mk", "j + 1", "3")
			case du.base == "i":
				args[k] = pick("n", "si", "j + 1", "3")
			case out:
				args[k] = pick(realVar(), elem(false))
			default:
				switch next(5) {
				case 0:
					args[k] = realVar()
				case 1:
					args[k] = elem(false)
				case 2:
					args[k] = pick("0.5d0", "2.5", "rp", "-1.5d0")
				default:
					args[k] = pick(realVar()+" * 0.5d0", elem(false)+" + "+realVar(), "-"+realVar(),
						"sqrt(abs("+realVar()+"))", realVar()+" + 1", realVar()+" * n")
					if depth == 0 && len(funcs) > 0 && next(4) == 0 {
						args[k] = call(funcs[next(len(funcs))], 1) + " + 0.5d0"
					}
				}
			}
		}
		return fmt.Sprintf("%s(%s)", pr.name, strings.Join(args, ", "))
	}

	var body strings.Builder
	for s := 0; s < 3+next(4); s++ {
		switch k := next(8); {
		case k == 0:
			fmt.Fprintf(&body, "    %s = %s %s %s\n", elem(false), elem(false), pick("+", "*", "-"), pick(realVar(), "0.75d0", elem(false)))
		case k == 1:
			v := realVar()
			fmt.Fprintf(&body, "    %s = %s * 0.5d0 + %s\n", v, v, elem(false))
		case k <= 4 && len(funcs) > 0:
			// A function call as a whole right-hand side, or as the
			// argument of abs or sign.
			fc := call(funcs[next(len(funcs))], 0)
			switch {
			case k == 2:
				fmt.Fprintf(&body, "    %s = %s\n", realVar(), fc)
				forms["scalar-rhs"] = true
			case k == 3:
				fmt.Fprintf(&body, "    %s = %s\n", elem(false), fc)
				forms["element-rhs"] = true
			case next(2) == 0:
				fmt.Fprintf(&body, "    %s = abs(%s) * 0.5d0\n", realVar(), fc)
				forms["abs-arg"] = true
			default:
				sa := [2]string{fc, realVar()}
				if next(2) == 0 {
					sa[0], sa[1] = sa[1], sa[0]
				}
				fmt.Fprintf(&body, "    %s = sign(%s, %s)\n", realVar(), sa[0], sa[1])
				forms["sign-arg"] = true
			}
		default:
			pr := procs[next(len(procs))]
			if pr.isFunc {
				fmt.Fprintf(&body, "    %s = %s + %s\n", pick("s8", "x4", "y8"), pick("s8", "x4", "y8"), call(pr, 0))
			} else {
				fmt.Fprintf(&body, "    call %s\n", call(pr, 0))
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "module g\n  implicit none\n  integer, parameter :: np = %d\n", np)
	b.WriteString("  real(kind=8), parameter :: rp = 1.25d0\n  integer :: mk, si\n")
	b.WriteString("  real(kind=8) :: s8\n  real(kind=4) :: s4\n")
	for _, a := range arrs {
		dims := make([]string, len(a.lo))
		for d := range dims {
			dims[d] = fmt.Sprintf("%d:%d", a.lo[d], a.lo[d]+a.ext[d]-1)
		}
		fmt.Fprintf(&b, "  real(kind=%d) :: %s(%s)\n", a.kind, a.name, strings.Join(dims, ", "))
	}
	b.WriteString("contains\n")
	b.WriteString(mod.String())
	b.WriteString("end module g\n\nprogram main\n  use g\n  implicit none\n")
	b.WriteString("  integer :: i, j, n\n  real(kind=8) :: x8, y8, xr\n  real(kind=4) :: x4, y4\n")
	fmt.Fprintf(&b, "  mk = %d\n  j = %d\n  n = 2\n  si = 5\n  xr = 2.6d0\n", mk, jv)
	b.WriteString("  x8 = 1.5d0\n  y8 = -0.75d0\n  x4 = 2.5\n  y4 = 0.375\n  s8 = 0.25d0\n  s4 = 4.0\n")
	for _, a := range arrs {
		if len(a.lo) == 1 {
			fmt.Fprintf(&b, "  do i = %d, %d\n    %s(i) = 0.25d0 * i + 0.5d0\n  end do\n", a.lo[0], a.lo[0]+a.ext[0]-1, a.name)
			continue
		}
		fmt.Fprintf(&b, "  do n = %d, %d\n    do i = %d, %d\n      %s(i, n) = 0.125d0 * i - 0.0625d0 * n\n    end do\n  end do\n",
			a.lo[1], a.lo[1]+a.ext[1]-1, a.lo[0], a.lo[0]+a.ext[0]-1, a.name)
	}
	b.WriteString("  n = 2\n  do i = 1, 4\n")
	b.WriteString(body.String())
	b.WriteString("  end do\n  s8 = s8 + x8 + y8\n  s4 = s4 + x4 + y4\n  si = si + n\nend program main\n")
	return b.String(), forms
}

// TestEngineDifferentialConditions feeds seeded programs built around the
// VM's unboxed conditions, integer operands and rank-2 addressing through
// both engines: IF / ELSE IF / ELSE and DO WHILE over .and., .or. and
// .not. of logical locals, module logicals and comparisons; integer
// comparisons in affine and Value-path forms (mod, /, unary minus); real
// comparisons at kinds 4 and 8, at mixed kinds and with integer operands,
// whose operands use abs, sign, min and user function calls, or
// epsilon, huge and tiny, which keep the Value path; real(i, k), dble(i)
// and integer operands in real arithmetic; integer assignments; and
// rank-2 references with lower
// bounds 1, 3 and -4, some out of bounds in dimension 2. Results must
// agree bit for bit with and without numerics and TrapNonFinite.
func TestEngineDifferentialConditions(t *testing.T) {
	tally, tallied, diverged := map[string]int{}, 0, 0
	formTally := map[string]int{}
	allGoldens := trackGoldens(t)
	for seed := 1; seed <= 120; seed++ {
		src, forms := genCondProgram(uint64(seed))
		for f := range forms {
			formTally[f]++
		}
		prog, err := ft.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		if _, err := ft.Analyze(prog, ft.Options{}); err != nil {
			t.Fatalf("seed %d: analyze: %v\n%s", seed, err, src)
		}
		for _, trap := range []bool{false, true} {
			for _, num := range []bool{false, true} {
				name := fmt.Sprintf("seed%d/trap=%v/numerics=%v", seed, trap, num)
				ok := t.Run(name, func(t *testing.T) {
					run := diffEngines(t, prog, src, runOpts{numerics: num, trap: trap})
					if trap && !num {
						tally[condOutcome(run.errStr)]++
						tallied++
					}
					if num && !trap {
						var p numerics.Profile
						if err := json.Unmarshal(run.profile, &p); err != nil {
							t.Fatalf("decode profile: %v", err)
						}
						if p.BranchDivergences > 0 {
							diverged++
						}
					}
				})
				if !ok {
					t.Logf("seed %d source:\n%s", seed, src)
				}
			}
		}
	}
	allGoldens()
	t.Logf("programs containing each form: %v", formTally)
	for _, form := range []string{"if-else", "else-if", "do-while", "and", "or", "not", "logical-local",
		"logical-module", "int-affine", "int-value", "real-k4", "real-k8", "real-mixed", "int-real",
		"abs", "sign", "min", "call", "real-conv", "int-arith", "inquiry", "rank2"} {
		if formTally[form] < 10 {
			t.Errorf("only %d of 120 programs contain form %q, want at least 10 (tally %v)", formTally[form], form, formTally)
		}
	}
	// The generator must keep reaching every outcome it was built for
	// (checked only when -run selected every program).
	t.Logf("outcomes under TrapNonFinite: %v; %d programs record a branch divergence", tally, diverged)
	if tallied < 120 {
		return
	}
	for outcome, least := range map[string]int{"ok": 40, "bounds": 5, "stop": 5} {
		if tally[outcome] < least {
			t.Errorf("only %d of 120 programs ended %q, want at least %d (tally %v)", tally[outcome], outcome, least, tally)
		}
	}
	if diverged < 5 {
		t.Errorf("only %d of 120 programs record a branch divergence, want at least 5", diverged)
	}
}

// condOutcome classifies a run's error text for the generator's tally.
func condOutcome(msg string) string {
	switch {
	case msg == "":
		return "ok"
	case strings.Contains(msg, "out of bounds"):
		return "bounds"
	case strings.Contains(msg, "stop "):
		return "stop"
	}
	return msg
}

// genCondProgram builds one program for TestEngineDifferentialConditions.
// The main loop runs i = 1..4; every index stays inside its bounds over
// that range, except one index in dimension 2 that overshoots by one in
// about one program in four. Every DO WHILE is capped by a counter.
func genCondProgram(seed uint64) (string, map[string]bool) {
	forms := map[string]bool{}
	rng := seed*0x9e3779b97f4a7c15 | 1
	next := func(n int) int { // xorshift, deterministic across runs
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	pick := func(xs ...string) string { return xs[next(len(xs))] }
	mk, jv := 2+next(3), 1+next(3)

	// Two rank-2 arrays whose lower bounds cover 1, 3 and -4.
	type array struct {
		name    string
		kind    int
		lo, ext [2]int
	}
	los := []int{1, 3, -4}
	r := next(3)
	arrs := []array{
		{"c", 4 + 4*next(2), [2]int{los[r], los[(r+1)%3]}, [2]int{8 + next(4), 6 + next(4)}},
		{"e", 4 + 4*next(2), [2]int{los[(r+2)%3], los[next(3)]}, [2]int{8 + next(4), 6 + next(4)}},
	}
	oobLeft := 0
	if next(4) == 0 {
		oobLeft = 1
	}
	index := func(lo, ext int, oob bool) string {
		for {
			c := 1 + next(3)
			var s string
			var f func(i int) int
			switch next(9) {
			case 0:
				s, f = "i", func(i int) int { return i }
			case 1:
				s, f = fmt.Sprintf("i + %d", c), func(i int) int { return i + c }
			case 2:
				s, f = "2 * i", func(i int) int { return 2 * i }
			case 3:
				s, f = "j", func(int) int { return jv }
			case 4:
				s, f = "mk", func(int) int { return mk }
			case 5:
				s, f = "(i + j) - mk", func(i int) int { return i + jv - mk }
			case 6:
				s, f = "mod(i, 3)", func(i int) int { return i % 3 }
			case 7:
				s, f = "i / 2", func(i int) int { return i / 2 }
			default:
				s, f = "-i", func(i int) int { return -i }
			}
			vmin, vmax := f(1), f(1)
			for i := 2; i <= 4; i++ {
				vmin, vmax = min(vmin, f(i)), max(vmax, f(i))
			}
			if vmax-vmin > ext-1 {
				continue
			}
			shift := lo - vmin + next(ext-(vmax-vmin))
			if oob {
				shift = lo + ext - 1 - vmax + 1
			}
			switch {
			case shift > 0:
				return fmt.Sprintf("(%s) + %d", s, shift)
			case shift < 0:
				return fmt.Sprintf("(%s) - %d", s, -shift)
			}
			return s
		}
	}
	elemOOB := func(oob bool) string {
		forms["rank2"] = true
		a := arrs[next(len(arrs))]
		return fmt.Sprintf("%s(%s, %s)", a.name, index(a.lo[0], a.ext[0], false), index(a.lo[1], a.ext[1], oob))
	}
	elem := func() string {
		oob := oobLeft > 0 && next(2) == 0
		if oob {
			oobLeft--
		}
		return elemOOB(oob)
	}

	// Real operands of each kind (elements take their array's kind).
	op4 := func() string {
		switch next(8) {
		case 0:
			forms["abs"] = true
			return "abs(x4 - y4)"
		case 1:
			forms["sign"] = true
			return "sign(y4, x4)"
		case 2:
			forms["min"] = true
			return "min(x4, y4, 0.75)"
		case 3:
			forms["real-conv"] = true
			return pick("real(i, 4)", "real(i + mk, 4)", "real(j)")
		case 4:
			forms["int-arith"] = true
			return pick("x4 * i", "y4 - (i + j)", "s4 + 2 * i")
		}
		return pick("x4", "y4", "s4", "z4")
	}
	op8 := func() string {
		switch next(10) {
		case 0:
			forms["abs"] = true
			return "abs(x8 - y8)"
		case 1:
			forms["sign"] = true
			return "sign(x8, y8 - 0.5d0)"
		case 2:
			forms["min"] = true
			return "min(x8, y8, s8)"
		case 3:
			forms["call"] = true
			return fmt.Sprintf("f(%s, %s)", pick("x8", "y8", "s8 * 0.5d0"), pick("x4", "y4", "s4"))
		case 4:
			forms["real-conv"] = true
			return pick("real(i, 8)", "dble(j)", "dble(i - mk)")
		case 5:
			forms["int-arith"] = true
			return pick("x8 * i", "y8 + (i - mk)", "mk / x8", "s8 - 3 * j")
		case 6:
			return elem()
		case 7:
			forms["inquiry"] = true
			return pick("1.0d5 * epsilon(x8) * s8", "huge(y4) * 0.5", "tiny(x8) + y8")
		}
		return pick("x8", "y8", "s8")
	}
	cmpOp := func() string { return pick("<", "<=", ">", ">=", "==", "/=") }
	leaf := func() string {
		switch next(14) {
		case 0, 1:
			forms["int-affine"] = true
			return fmt.Sprintf("%s %s %s", pick("i", "j", "mk", "cnt", "i + j", "2 * i", "np - i"), cmpOp(), pick("mk", "3", "j + 1", "np"))
		case 2:
			forms["int-value"] = true
			return pick("mod(i, 2) == 0", "i / 2 > j", "-i < -2", "mod(i + j, 3) /= 1")
		case 3, 4:
			forms["real-k4"] = true
			return fmt.Sprintf("%s %s %s", op4(), cmpOp(), pick(op4(), "0.5", "2.5_4"))
		case 5, 6:
			forms["real-k8"] = true
			return fmt.Sprintf("%s %s %s", op8(), cmpOp(), pick(op8(), "0.5d0", "1.25d0"))
		case 7:
			forms["real-mixed"] = true
			return fmt.Sprintf("%s %s %s", op4(), cmpOp(), op8())
		case 8:
			forms["int-real"] = true
			return pick("x8 < i", "i >= 2.5_4", "x4 > mk", "j + 1 <= y8", elem()+" > i")
		case 9:
			// z4 holds 0.1d0 rounded to binary32 and w8 holds 0.1d0; the
			// shadow lane of z4 is 0.1d0, so the lanes compare the other
			// way at kind 8.
			return pick("z4 > w8", "z4 <= w8", "w8 < z4")
		case 10, 11:
			forms["logical-local"] = true
			return pick("lf", "lg", "lf == lg", "lg /= .true.")
		case 12:
			forms["logical-module"] = true
			return pick("mflag", "mflag /= lf")
		}
		return pick("isnan(x8 - y8)", "isnan(y4)")
	}
	var cond func(depth int) string
	cond = func(depth int) string {
		if depth == 0 || next(3) == 0 {
			return leaf()
		}
		switch next(3) {
		case 0:
			forms["not"] = true
			return fmt.Sprintf(".not. (%s)", cond(depth-1))
		case 1:
			forms["and"] = true
			return fmt.Sprintf("(%s) .and. (%s)", cond(depth-1), cond(depth-1))
		}
		forms["or"] = true
		return fmt.Sprintf("(%s) .or. (%s)", cond(depth-1), cond(depth-1))
	}
	simple := func() string {
		switch next(9) {
		case 0:
			return fmt.Sprintf("x8 = x8 * 0.5d0 + real(i + mk, %d)", 4+4*next(2))
		case 1:
			return "x4 = real(i, 4) * y4 - i"
		case 2:
			return "y8 = dble(j) / (i + 1) + x4"
		case 3:
			return "s8 = s8 * 0.25d0 + " + op8()
		case 4:
			return elem() + " = " + op8() + " * 0.5d0 + i"
		case 5:
			return "y4 = y4 * 0.75 + real(mk, 4) - " + op4()
		case 6:
			return pick("lf = ", "lg = ", "mflag = ") + cond(1)
		case 7:
			return pick("cnt = cnt + i", "cnt = mod(cnt + j, 5)", "cnt = cnt - 1")
		}
		return pick("call newton(mk)", "call newton(i)")
	}
	var block func(indent string, depth int) string
	block = func(indent string, depth int) string {
		var b strings.Builder
		for s := 0; s < 1+next(3); s++ {
			switch k := next(10); {
			case k <= 1 && depth > 0:
				fmt.Fprintf(&b, "%sif (%s) then\n%s", indent, cond(2), block(indent+"  ", depth-1))
				if next(2) == 0 {
					forms["else-if"] = true
					fmt.Fprintf(&b, "%selse if (%s) then\n%s", indent, cond(2), block(indent+"  ", depth-1))
				}
				if next(2) == 0 {
					forms["if-else"] = true
					fmt.Fprintf(&b, "%selse\n%s", indent, block(indent+"  ", depth-1))
				}
				fmt.Fprintf(&b, "%send if\n", indent)
			case k == 2 && depth > 0:
				forms["do-while"] = true
				// Each nesting depth counts with its own variable.
				it := fmt.Sprintf("it%d", depth)
				fmt.Fprintf(&b, "%s%s = 0\n%sdo while ((%s) .and. %s < %d)\n%s  %s = %s + 1\n%s%send do\n",
					indent, it, indent, cond(2), it, 1+next(3), indent, it, it, block(indent+"  ", depth-1), indent)
			case k == 3:
				stmt := simple()
				if next(3) == 0 {
					stmt = fmt.Sprintf("stop %d", 3+next(5))
				}
				fmt.Fprintf(&b, "%sif (%s) %s\n", indent, cond(1), stmt)
			default:
				fmt.Fprintf(&b, "%s%s\n", indent, simple())
			}
		}
		return b.String()
	}
	body := block("    ", 2) + block("    ", 2)
	if oobLeft > 0 {
		// The out-of-bounds index was not placed: read it unconditionally.
		body += fmt.Sprintf("    s8 = s8 + %s\n", elemOOB(true))
	}

	var b strings.Builder
	fmt.Fprintf(&b, "module g\n  implicit none\n  integer, parameter :: np = %d\n", 3+next(3))
	b.WriteString("  integer :: mk, cnt\n  logical :: mflag\n  real(kind=8) :: s8\n  real(kind=4) :: s4\n")
	for _, a := range arrs {
		fmt.Fprintf(&b, "  real(kind=%d) :: %s(%d:%d, %d:%d)\n", a.kind, a.name,
			a.lo[0], a.lo[0]+a.ext[0]-1, a.lo[1], a.lo[1]+a.ext[1]-1)
	}
	b.WriteString(`contains
  function f(a, b) result(r)
    real(kind=8), intent(in) :: a
    real(kind=4), intent(in) :: b
    real(kind=8) :: r
    if (a > b .or. cnt > 3) then
      r = a - 0.5d0 * b
    else
      r = b * 0.25d0 + real(cnt, 8)
    end if
  end function f

  ! newton runs to its cap, as MOM6's flux adjustment does in 32 bits.
  subroutine newton(n)
    integer, intent(in) :: n
    real(kind=8) :: resid, scale, tol
    integer :: k, iter
    tol = 0.0d0
    scale = abs(s8) + 1.0d-2
    resid = 1.0d0
    iter = 0
    do while (abs(resid) > tol * scale .and. iter < n)
      do k = 1, 2
        resid = resid * 0.5d0 + s4 * real(k, 8) * 1.0d-3
      end do
      iter = iter + 1
    end do
    cnt = cnt + iter
  end subroutine newton
end module g

program main
  use g
  implicit none
  integer :: i, j, it1, it2, n
  logical :: lf, lg
  real(kind=8) :: x8, y8, w8
  real(kind=4) :: x4, y4, z4
`)
	fmt.Fprintf(&b, "  mk = %d\n  j = %d\n  cnt = %d\n  mflag = %s\n  lf = %s\n  lg = .false.\n",
		mk, jv, next(4), pick(".true.", ".false."), pick(".true.", ".false."))
	b.WriteString("  x8 = 1.5d0\n  y8 = -0.75d0\n  x4 = 2.5\n  y4 = 0.375\n  z4 = 0.1d0\n  w8 = 0.1d0\n  s8 = 0.25d0\n  s4 = 4.0\n")
	for _, a := range arrs {
		fmt.Fprintf(&b, "  do n = %d, %d\n    do i = %d, %d\n      %s(i, n) = 0.125d0 * i - 0.0625d0 * n\n    end do\n  end do\n",
			a.lo[1], a.lo[1]+a.ext[1]-1, a.lo[0], a.lo[0]+a.ext[0]-1, a.name)
	}
	b.WriteString("  do i = 1, 4\n")
	b.WriteString(body)
	b.WriteString("  end do\n  s8 = s8 + x8 + y8\n  s4 = s4 + x4 + y4\nend program main\n")
	return b.String(), forms
}

// TestEngineDifferentialShapes feeds seeded programs built around the
// VM's inline shapes through both engines: element reads and stores
// whose indices are a local integer i, i + c, i - c or a literal (beside
// closure and Value-path indices), on rank-1 and rank-2 module, local and
// dummy arrays with lower bounds 1, 3 and -4, some out of bounds; real
// + - * / at kinds 4 and 8, mixed kinds included, over local scalar,
// literal, element and general operands; and element actuals bound to
// no-intent and intent(inout) dummies, the same element passed twice,
// and callees that write the actual's module array before they return.
// Results must agree bit for bit with and without numerics and
// TrapNonFinite.
func TestEngineDifferentialShapes(t *testing.T) {
	tally, tallied := map[string]int{}, 0
	formTally := map[string]int{}
	for seed := 1; seed <= 120; seed++ {
		src, forms := genShapeProgram(uint64(seed))
		for f := range forms {
			formTally[f]++
		}
		prog, err := ft.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		if _, err := ft.Analyze(prog, ft.Options{AllowKindMismatch: true}); err != nil {
			t.Fatalf("seed %d: analyze: %v\n%s", seed, err, src)
		}
		for _, trap := range []bool{false, true} {
			for _, num := range []bool{false, true} {
				name := fmt.Sprintf("seed%d/trap=%v/numerics=%v", seed, trap, num)
				ok := t.Run(name, func(t *testing.T) {
					msg := compareEngines(t, prog, src, runOpts{numerics: num, trap: trap})
					if trap && !num {
						tally[callOutcome(msg)]++
						tallied++
					}
				})
				if !ok {
					t.Logf("seed %d source:\n%s", seed, src)
				}
			}
		}
	}
	t.Logf("programs containing each form: %v", formTally)
	for _, form := range []string{"idx-slot", "idx-plus", "idx-minus", "idx-lit", "idx-other", "rank1", "rank2",
		"lo1", "lo3", "lo-4", "proc-local", "dummy-array", "op-slot", "op-lit", "op-elem", "op-gen",
		"k4", "k8", "mixed", "actual-nointent", "actual-inout", "same-twice", "callee-writes"} {
		if formTally[form] < 10 {
			t.Errorf("only %d of 120 programs contain form %q, want at least 10 (tally %v)", formTally[form], form, formTally)
		}
	}
	// The generator must keep reaching every outcome it was built for
	// (checked only when -run selected every program).
	t.Logf("outcomes under TrapNonFinite: %v", tally)
	if tallied < 120 {
		return
	}
	for outcome, least := range map[string]int{"ok": 40, "bounds": 5, "copy-out": 3, "assign": 3} {
		if tally[outcome] < least {
			t.Errorf("only %d of 120 programs ended %q, want at least %d (tally %v)", tally[outcome], outcome, least, tally)
		}
	}
}

// genShapeProgram builds one program for TestEngineDifferentialShapes.
// The main loop runs i = 1..4 and procedures loop k over their arrays;
// every index stays inside its bounds over that range, except one
// deliberately out-of-bounds index in about one program in five. Seeds
// are mixed with a constant of this generator's own, so its programs
// differ from the other generators' at the same seed.
func genShapeProgram(seed uint64) (string, map[string]bool) {
	forms := map[string]bool{}
	rng := (seed^0x5ad1e57a9e5)*0x9e3779b97f4a7c15 | 1
	next := func(n int) int { // xorshift, deterministic across runs
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	pick := func(xs ...string) string { return xs[next(len(xs))] }
	mk, jv := 1+next(3), 1+next(3)

	type array struct {
		name    string
		kind    int
		lo, ext []int
	}
	los := []int{1, 3, -4}
	perm := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}[next(6)]
	arrs := []array{
		{"a", 4 + 4*next(2), []int{los[perm[0]]}, []int{8 + next(5)}},
		{"b", 4 + 4*next(2), []int{los[perm[1]]}, []int{8 + next(5)}},
		{"c", 4 + 4*next(2), []int{los[perm[2]], los[next(3)]}, []int{8 + next(3), 6 + next(3)}},
	}
	for _, a := range arrs {
		for _, lo := range a.lo {
			forms[fmt.Sprintf("lo%d", lo)] = true
		}
	}
	oobLeft := 0
	if next(5) == 0 {
		oobLeft = 1
	}
	// index returns an index into [lo, lo+ext-1] for v running over
	// vlo..vhi, or one past the top for the deliberate out-of-bounds one.
	index := func(v string, vlo, vhi, lo, ext int) string {
		hi := lo + ext - 1
		oob := oobLeft > 0 && next(6) == 0
		if oob {
			oobLeft--
		}
		switch k := next(10); {
		case k <= 1:
			forms["idx-lit"] = true
			if oob {
				return fmt.Sprint(hi + 1)
			}
			return fmt.Sprint(lo + next(ext))
		case k <= 7:
			// v + off stays inside for every v when lo-vlo <= off <= hi-vhi.
			off := lo - vlo + next(hi-vhi-(lo-vlo)+1)
			if oob {
				off = hi - vhi + 1
			}
			switch {
			case off > 0:
				forms["idx-plus"] = true
				return fmt.Sprintf("%s + %d", v, off)
			case off < 0:
				forms["idx-minus"] = true
				return fmt.Sprintf("%s - %d", v, -off)
			}
			forms["idx-slot"] = true
			return v
		}
		// Forms that keep a closure or the Value path: a literal first,
		// a module integer, a product, a mod.
		forms["idx-other"] = true
		off := lo - vlo + next(hi-vhi-(lo-vlo)+1)
		if oob {
			off = hi - vhi + 1
		}
		switch next(3) {
		case 0:
			return fmt.Sprintf("(%d + %s)", off, v)
		case 1:
			return fmt.Sprintf("(%s + mk) - %d", v, mk-off)
		}
		return fmt.Sprintf("(%s * 1 + mod(%s, 1)) + %d", v, v, off)
	}
	// elemAt references an element of a with v running over vlo..vhi in
	// dimension 1; dimension 2 of c uses j or a literal.
	elemAt := func(a array, v string, vlo, vhi int) string {
		if len(a.lo) == 1 {
			forms["rank1"] = true
			return fmt.Sprintf("%s(%s)", a.name, index(v, vlo, vhi, a.lo[0], a.ext[0]))
		}
		forms["rank2"] = true
		return fmt.Sprintf("%s(%s, %s)", a.name, index(v, vlo, vhi, a.lo[0], a.ext[0]), index("j", jv, jv, a.lo[1], a.ext[1]))
	}
	elem := func() string { return elemAt(arrs[next(len(arrs))], "i", 1, 4) }

	// Real operands: local scalars, folded literals, elements and
	// general forms (module scalars, intrinsics, nested operations).
	operand := func() string {
		switch next(4) {
		case 0:
			forms["op-slot"] = true
			return pick("x8", "y8", "x4", "y4")
		case 1:
			forms["op-lit"] = true
			return pick("0.5d0", "1.25", "3", "2.5_4", "-0.75d0")
		case 2:
			forms["op-elem"] = true
			return elem()
		}
		forms["op-gen"] = true
		return pick("s8", "s4", "sqrt(abs(x8))", "(x4 * y8)", "real(i, 4)", "-y4")
	}
	binop := func() string {
		x, y := operand(), operand()
		e := fmt.Sprintf("%s %s %s", x, pick("+", "-", "*", "/"), y)
		if next(4) == 0 {
			e = fmt.Sprintf("(%s) %s %s", e, pick("+", "-", "*", "/"), operand())
		}
		if next(15) == 0 {
			// Overflows kind 4 at once and kind 8 when squared again.
			e = fmt.Sprintf("(%s) * 1.0d300 * 1.0d300", e)
		}
		return e
	}

	// Procedures. sw takes two no-intent reals of one kind, io one
	// intent(inout) real, wa writes the whole of module array a and then
	// its dummy, f is a function of two no-intent reals, smooth loops k
	// over module arrays and sa over a dummy array.
	kw, kio, kf := 4+4*next(2), 4+4*next(2), 4+4*next(2)
	var mod strings.Builder
	fmt.Fprintf(&mod, "  subroutine sw(p, q)\n    real(kind=%d) :: p\n    real(kind=%d) :: q\n", kw, kw)
	fmt.Fprintf(&mod, "    p = p * 0.5d0 + q %s 0.25d0\n    q = q - p * %s\n  end subroutine sw\n", pick("+", "*"), pick("2", "1.5d0", "0.5"))
	// A huge kind-8 result stays finite in the dummy and overflows when
	// copied out into a kind-4 element.
	big := ""
	if next(3) == 0 {
		kio, big = 8, " * 1.0d300"
	}
	fmt.Fprintf(&mod, "  subroutine io(p)\n    real(kind=%d), intent(inout) :: p\n", kio)
	fmt.Fprintf(&mod, "    p = (p + 1.0d0)%s\n  end subroutine io\n", big)
	a0 := arrs[0]
	fmt.Fprintf(&mod, "  subroutine wa(p)\n    real(kind=8) :: p\n    integer :: k\n    do k = %d, %d\n      a(k) = a(k) * 0.5d0 + p\n    end do\n    p = p * 2.0d0 + a(%d)\n  end subroutine wa\n",
		a0.lo[0], a0.lo[0]+a0.ext[0]-1, a0.lo[0])
	fmt.Fprintf(&mod, "  function f(p, q) result(r)\n    real(kind=%d) :: p\n    real(kind=%d) :: q\n    real(kind=%d) :: r\n", kf, kf, kf)
	fmt.Fprintf(&mod, "    r = p * q - 0.5d0\n    p = r + q\n    q = p / 4\n  end function f\n")
	var smooth strings.Builder
	for s := 0; s < 1+next(2); s++ {
		forms["proc-local"] = true
		ar := arrs[next(len(arrs))]
		lo, hi := ar.lo[0]+2, ar.lo[0]+ar.ext[0]-3
		fmt.Fprintf(&smooth, "    do k = %d, %d\n      %s = %s %s %s\n    end do\n", lo, hi,
			elemAt(ar, "k", lo, hi), elemAt(ar, "k", lo, hi), pick("+", "-", "*"), pick("0.5d0 * "+elemAt(ar, "k", lo, hi), elemAt(ar, "k", lo, hi), "w"))
	}
	fmt.Fprintf(&mod, "  subroutine smooth(w)\n    real(kind=8), intent(in) :: w\n    integer :: k, j\n    j = %d\n%s  end subroutine smooth\n", jv, smooth.String())
	fmt.Fprintf(&mod, "  subroutine sa(v)\n    real(kind=%d), intent(inout) :: v(:)\n    integer :: k\n    do k = 3, size(v) - 2\n", arrs[1].kind)
	fmt.Fprintf(&mod, "      v(k) = v(k - 1) %s v(k + %d) * 0.5d0\n    end do\n", pick("+", "-"), 1+next(2))
	// A loop the model vectorizes (no dependence, one real kind): its
	// non-dyadic factor makes the order of the integer operand's OpConv
	// and the division's charge show in the cycle total (OpConv costs
	// what + - * do, so only / tells the two orders apart).
	fmt.Fprintf(&mod, "    do k = 1, size(v)\n      v(k) = v(k) * 0.5d0 + k / 8.0d0\n    end do\n  end subroutine sa\n")

	// sameKind returns an element of an array of kind k (or of any kind
	// when none has it, which charges casts on the way in and out).
	sameKind := func(k int) string {
		var cands []array
		for _, a := range arrs {
			if a.kind == k || next(4) == 0 {
				cands = append(cands, a)
			}
		}
		if len(cands) == 0 {
			cands = arrs
		}
		return elemAt(cands[next(len(cands))], "i", 1, 4)
	}
	var body strings.Builder
	for s := 0; s < 4+next(4); s++ {
		switch k := next(12); {
		case k <= 2:
			fmt.Fprintf(&body, "    %s = %s\n", elem(), binop())
		case k <= 4:
			fmt.Fprintf(&body, "    %s = %s\n", pick("x8", "y8", "x4", "y4", "s8"), binop())
		case k == 5:
			forms["actual-nointent"] = true
			e := sameKind(kw)
			if next(3) == 0 {
				forms["same-twice"] = true
				fmt.Fprintf(&body, "    call sw(%s, %s)\n", e, e)
			} else {
				fmt.Fprintf(&body, "    call sw(%s, %s)\n", e, pick(sameKind(kw), "x8", "x4"))
			}
		case k == 6:
			forms["actual-inout"] = true
			fmt.Fprintf(&body, "    call io(%s)\n", pick(sameKind(kio), elem()))
		case k == 7:
			forms["callee-writes"] = true
			fmt.Fprintf(&body, "    call wa(%s)\n", elemAt(a0, "i", 1, 4))
		case k == 8:
			forms["actual-nointent"] = true
			fmt.Fprintf(&body, "    %s = %s + f(%s, %s)\n", pick("x8", "s8", "y4"), pick("x8", "s8", "y4"), sameKind(kf), sameKind(kf))
		case k == 9:
			fmt.Fprintf(&body, "    call smooth(%s)\n", pick("x8", "0.125d0", "s8"))
		case k == 10:
			forms["dummy-array"] = true
			fmt.Fprintf(&body, "    call sa(b)\n")
		default:
			fmt.Fprintf(&body, "    %s = %s * 0.5d0 + %s\n", elem(), elem(), pick("x8", "y4", elem()))
		}
	}
	src := body.String() + mod.String()
	for _, k := range []string{"4", "8"} {
		if strings.Contains(src, "kind="+k) {
			forms["k"+k] = true
		}
	}
	for _, a := range arrs {
		if a.kind == 4 && strings.Contains(body.String(), a.name+"(") {
			forms["mixed"] = true
		}
	}

	var b strings.Builder
	b.WriteString("module g\n  implicit none\n  integer :: mk\n  real(kind=8) :: s8\n  real(kind=4) :: s4\n")
	for _, a := range arrs {
		dims := make([]string, len(a.lo))
		for d := range dims {
			dims[d] = fmt.Sprintf("%d:%d", a.lo[d], a.lo[d]+a.ext[d]-1)
		}
		fmt.Fprintf(&b, "  real(kind=%d) :: %s(%s)\n", a.kind, a.name, strings.Join(dims, ", "))
	}
	b.WriteString("contains\n")
	b.WriteString(mod.String())
	b.WriteString("end module g\n\nprogram main\n  use g\n  implicit none\n")
	b.WriteString("  integer :: i, j, n\n  real(kind=8) :: x8, y8\n  real(kind=4) :: x4, y4\n")
	fmt.Fprintf(&b, "  mk = %d\n  j = %d\n  s8 = 0.25d0\n  s4 = 4.0\n", mk, jv)
	b.WriteString("  x8 = 1.5d0\n  y8 = -0.75d0\n  x4 = 2.5\n  y4 = 0.375\n")
	for _, a := range arrs {
		if len(a.lo) == 1 {
			fmt.Fprintf(&b, "  do i = %d, %d\n    %s(i) = 0.25d0 * i + 0.5d0\n  end do\n", a.lo[0], a.lo[0]+a.ext[0]-1, a.name)
			continue
		}
		fmt.Fprintf(&b, "  do n = %d, %d\n    do i = %d, %d\n      %s(i, n) = 0.125d0 * i - 0.0625d0 * n + 1.0d0\n    end do\n  end do\n",
			a.lo[1], a.lo[1]+a.ext[1]-1, a.lo[0], a.lo[0]+a.ext[0]-1, a.name)
	}
	b.WriteString("  do i = 1, 4\n")
	b.WriteString(body.String())
	b.WriteString("  end do\n  s8 = s8 + x8 + y8\n  s4 = s4 + x4 + y4\nend program main\n")
	return b.String(), forms
}

// TestCycleBudgetBoundary pins the budget contract documented on
// Config.CycleBudget, unboxed and boxed: the boundary is inclusive, so a
// statement beginning at exactly CycleBudget cycles does not execute,
// while a budget one ulp higher admits it.
func TestCycleBudgetBoundary(t *testing.T) {
	const prefix = `
program p
  implicit none
  real(kind=8) :: a
  a = 1.5_8 + 2.25_8
end program p
`
	const full = `
program p
  implicit none
  real(kind=8) :: a
  a = 1.5_8 + 2.25_8
  a = a * 2.0_8
end program p
`
	build := func(src string) *ft.Program {
		prog := ft.MustParse(src)
		ft.MustAnalyze(prog, ft.Options{})
		return prog
	}
	run := func(boxed bool, src string, budget float64) (*Result, error) {
		in, err := newInterp(build(src), Config{Model: perfmodel.Default(), CycleBudget: budget}, boxed, nil)
		if err != nil {
			t.Fatal(err)
		}
		return in.Run()
	}
	for _, boxed := range []bool{false, true} {
		mode := compileName(boxed)
		res1, err := run(boxed, prefix, 0)
		if err != nil {
			t.Fatalf("%s: prefix run: %v", mode, err)
		}
		c1 := res1.Cycles

		// Exactly at the boundary: the second statement must not run.
		res2, err := run(boxed, full, c1)
		if err == nil {
			t.Fatalf("%s: budget %.17g did not stop the second statement", mode, c1)
		}
		var re *RunError
		if !errors.As(err, &re) || re.Kind != FailTimeout {
			t.Fatalf("%s: want FailTimeout, got %v", mode, err)
		}
		if res2.Steps != res1.Steps {
			t.Errorf("%s: partial steps %d, want %d (timeout before the statement counts)",
				mode, res2.Steps, res1.Steps)
		}
		if math.Float64bits(res2.Cycles) != math.Float64bits(c1) {
			t.Errorf("%s: partial cycles %.17g, want %.17g", mode, res2.Cycles, c1)
		}

		// One ulp above the boundary: the run completes.
		if _, err := run(boxed, full, math.Nextafter(c1, math.Inf(1))); err != nil {
			t.Errorf("%s: budget just above the boundary still tripped: %v", mode, err)
		}
	}
}

// TestEngineDifferentialCopyOuts feeds seeded programs built around the
// VM's skipped copy-outs, locals assigned first and unboxed integer
// assignments through both compiles; the boxed one keeps every copy-out
// and zero-init. Each program mixes procedures whose call sites may skip
// (pure functions and subroutines, a function passing its dummy on to
// one) with every case the rules refuse, each built so that a wrong skip
// changes a result: a callee that assigns a dummy, makes it a DO
// variable or passes it on to a kept copy-out; one that stores into a
// module array or through an array dummy whose element is also an
// actual; one variable passed twice to a callee that writes one of its
// dummies; a later actual whose call writes an earlier actual's element;
// a recursive callee; actuals of the other kind (the program is analyzed
// with AllowKindMismatch); a kind-4 dummy that holds 1.0d300 converted
// on copy-in (FT initializes only PARAMETERs, and an assignment would
// trap first), passed on under TrapNonFinite to a skipping site, whose
// copy-out must still fail; and locals read by their body's first statement,
// by an array bound, or assigned first only inside an IF. Results must
// agree bit for bit with and without numerics and TrapNonFinite.
func TestEngineDifferentialCopyOuts(t *testing.T) {
	tally, tallied := map[string]int{}, 0
	formTally := map[string]int{}
	skipped, kept := map[string]int{}, map[string]int{}
	for seed := 1; seed <= 120; seed++ {
		src, forms, wantLocal := genCopyOutProgram(uint64(seed))
		for f := range forms {
			formTally[f]++
		}
		prog, err := ft.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		if _, err := ft.Analyze(prog, ft.Options{AllowKindMismatch: true}); err != nil {
			t.Fatalf("seed %d: analyze: %v\n%s", seed, err, src)
		}
		facts := newCallFacts(prog)
		for _, p := range prog.AllProcs {
			if want, ok := wantLocal[p.Name]; ok && facts.proc(p).local != want {
				t.Errorf("seed %d: %s stores only into its own frame = %v, want %v", seed, p.Name, !want, want)
			}
		}
		forEachCopyOutSite(prog, func(_, q *ft.Procedure, args []ft.Expr, _ bool) {
			if facts.skips(q, args) {
				skipped[q.Name]++
			} else {
				kept[q.Name]++
			}
		})
		for _, trap := range []bool{false, true} {
			for _, num := range []bool{false, true} {
				name := fmt.Sprintf("seed%d/trap=%v/numerics=%v", seed, trap, num)
				ok := t.Run(name, func(t *testing.T) {
					msg := compareEngines(t, prog, src, runOpts{numerics: num, trap: trap})
					if trap && !num {
						tally[copyOutOutcome(msg)]++
						tallied++
					}
				})
				if !ok {
					t.Logf("seed %d source:\n%s", seed, src)
				}
			}
		}
	}
	t.Logf("programs containing each form: %v", formTally)
	for _, form := range []string{"pure-func", "pure-sub", "pass-on-skip", "assign-dummy", "do-dummy",
		"pass-on-kept", "module-store", "array-dummy-store", "passed-twice", "later-actual-writes",
		"recursive", "kind-mismatch", "nonfinite-dummy", "read-first", "read-by-bound", "assigned-in-if", "int-assign"} {
		if formTally[form] < 10 {
			t.Errorf("only %d of 120 programs contain form %q, want at least 10 (tally %v)", formTally[form], form, formTally)
		}
	}
	// Sites that bind a variable to a dummy without intent(in): callees
	// that write back a changed value, or store outside their frame,
	// must never skip; the pure ones must skip often.
	t.Logf("copy-out sites skipped %v, kept %v", skipped, kept)
	for _, q := range []string{"sa", "sd", "sk", "sm", "sv", "fr"} {
		if skipped[q] > 0 {
			t.Errorf("%d call sites of %s skip their copy-outs", skipped[q], q)
		}
		if kept[q] < 10 {
			t.Errorf("only %d call sites of %s keep their copy-outs, want at least 10", kept[q], q)
		}
	}
	for _, q := range []string{"pf", "ps", "pn", "zl", "zb", "zi"} {
		if skipped[q] < 10 {
			t.Errorf("only %d call sites of %s skip their copy-outs, want at least 10", skipped[q], q)
		}
	}
	if kept["pf"] < 10 {
		t.Errorf("only %d call sites of pf keep their copy-outs, want at least 10 (kind mismatches, writing actuals)", kept["pf"])
	}
	t.Logf("outcomes under TrapNonFinite: %v", tally)
	if tallied < 120 {
		return
	}
	for outcome, least := range map[string]int{"ok": 40, "bounds": 5, "copy-out": 5, "non-finite": 5} {
		if tally[outcome] < least {
			t.Errorf("only %d of 120 programs ended %q, want at least %d (tally %v)", tally[outcome], outcome, least, tally)
		}
	}
}

// copyOutOutcome classifies a run's error text for
// TestEngineDifferentialCopyOuts's tally.
func copyOutOutcome(msg string) string {
	switch {
	case msg == "":
		return "ok"
	case strings.Contains(msg, "out of bounds"):
		return "bounds"
	case strings.Contains(msg, "returned into"):
		return "copy-out"
	case strings.Contains(msg, "assigning non-finite"):
		return "non-finite"
	}
	return msg
}

// forEachCopyOutSite calls fn for every user-procedure call site in prog
// that binds a variable or element to a scalar dummy without
// intent(in): the sites that copy out. isFunc marks a function call.
func forEachCopyOutSite(prog *ft.Program, fn func(caller, q *ft.Procedure, args []ft.Expr, isFunc bool)) {
	for _, p := range prog.AllProcs {
		site := func(q *ft.Procedure, args []ft.Expr, isFunc bool) {
			if q == nil {
				return
			}
			for k, a := range args {
				if k < len(q.ParamDecl) && outDest(q.ParamDecl[k], a) != nil {
					fn(p, q, args, isFunc)
					return
				}
			}
		}
		ft.WalkStmts(p.Body, func(s ft.Stmt) bool {
			if cs, ok := s.(*ft.CallStmt); ok {
				site(cs.Proc, cs.Args, false)
			}
			return true
		})
		ft.WalkExprs(p.Body, func(e ft.Expr) bool {
			if ce, ok := e.(*ft.CallExpr); ok {
				site(ce.Proc, ce.Args, true)
			}
			return true
		})
	}
}

// genCopyOutProgram builds one program for TestEngineDifferentialCopyOuts
// and returns it, the forms it contains, and whether each of its
// procedures stores only into its own frame. The main loop runs i =
// 1..4, so every procedure runs several times in a recycled frame, and
// main's locals are folded into module scalars at the end, where the
// comparison sees them. Every index stays inside its bounds over that
// range except one deliberately out-of-bounds element in about one
// program in six.
func genCopyOutProgram(seed uint64) (string, map[string]bool, map[string]bool) {
	forms := map[string]bool{}
	rng := (seed^0xc0b1e5)*0x9e3779b97f4a7c15 | 1
	next := func(n int) int { // xorshift, deterministic across runs
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	pick := func(xs ...string) string { return xs[next(len(xs))] }
	kind := func() int { return 4 + 4*next(2) }

	loA := []int{1, 3, -4}[next(3)]
	extA, extB := 8+next(4), 8+next(4)
	kA, kB := kind(), kind()
	oobLeft := 0
	if next(6) == 0 {
		oobLeft = 1
	}
	// index returns an index into [lo, lo+ext-1] for i = 1..4, or one past
	// the top for the out-of-bounds one.
	index := func(lo, ext int) string {
		if oobLeft > 0 && next(5) == 0 {
			oobLeft--
			return fmt.Sprintf("i + %d", lo+ext-1)
		}
		if next(4) == 0 {
			return fmt.Sprint(lo + next(ext))
		}
		switch off := lo - 1 + next(ext-3); {
		case off > 0:
			return fmt.Sprintf("i + %d", off)
		case off < 0:
			return fmt.Sprintf("i - %d", -off)
		}
		return "i"
	}
	elemA := func() string { return fmt.Sprintf("a(%s)", index(loA, extA)) }
	elemB := func() string { return fmt.Sprintf("b(%s)", index(1, extB)) }
	// A real variable or element, of either kind: the destinations.
	realVar := func() string {
		switch next(4) {
		case 0:
			return elemA()
		case 1:
			return elemB()
		}
		return pick("x8", "y8", "x4", "y4", "s8", "s4")
	}
	kindOf := map[string]int{"x8": 8, "y8": 8, "s8": 8, "x4": 4, "y4": 4, "s4": 4}
	// varOfKind returns a real variable or element of kind k.
	varOfKind := func(k int) string {
		var cands []string
		for _, v := range []string{"x8", "y8", "s8", "x4", "y4", "s4"} {
			if kindOf[v] == k {
				cands = append(cands, v)
			}
		}
		if kA == k {
			cands = append(cands, elemA())
		}
		if kB == k {
			cands = append(cands, elemB())
		}
		return cands[next(len(cands))]
	}
	// realArg returns an actual bound to a dummy of kind k: mostly a
	// variable of that kind, sometimes one of the other kind or an
	// expression, which copies nothing out.
	realArg := func(k int) string {
		switch next(6) {
		case 0:
			forms["kind-mismatch"] = true
			return varOfKind(12 - k)
		case 1:
			return pick("x8 * 0.5d0", "0.25d0", "-y4", "s8 + 1.0d0")
		}
		return varOfKind(k)
	}
	intArg := func() string { return pick("n", "si", "n", "3", "i + 1") }
	// varArg returns a variable bound to a dummy of kind k that the callee
	// writes (or that is intent(inout)), sometimes of the other kind.
	varArg := func(k int) string {
		if next(6) == 0 {
			forms["kind-mismatch"] = true
			return varOfKind(12 - k)
		}
		return varOfKind(k)
	}

	kf, ks, kn := kind(), kind(), kind()
	kas, kd, kk, kr, kz := kind(), kind(), kind(), kind(), kind()
	big := next(3) == 0
	if big {
		kf = 4 // pt passes its kind-4 dummy on to pf's unused dummy z
	}
	var mod strings.Builder
	// pf: pure; its dummy z is never read, so a non-finite actual reaches
	// only the copy-out. In one program in six its result overflows.
	fmt.Fprintf(&mod, "  function pf(x, y, z, k) result(r)\n    real(kind=%d) :: x\n    real(kind=%d) :: y\n    real(kind=%d) :: z\n    integer :: k\n    real(kind=%d) :: t\n    real(kind=%d) :: r\n", kf, kf, kf, kf, kf)
	fmt.Fprintf(&mod, "    t = x * y + k\n    r = t - 0.5d0 * x\n")
	if next(6) == 0 {
		fmt.Fprintf(&mod, "    if (k > 7) then\n      r = r * 1.0d300 * 1.0d300\n    end if\n")
	}
	fmt.Fprintf(&mod, "  end function pf\n")
	// ps: pure subroutine with an intent(inout) dummy it never assigns and
	// a local array; m takes the unboxed integer assignment.
	fmt.Fprintf(&mod, "  subroutine ps(x, y, k)\n    real(kind=%d), intent(inout) :: x\n    real(kind=%d) :: y\n    integer :: k\n    real(kind=8) :: w(3)\n    integer :: m\n", ks, ks)
	fmt.Fprintf(&mod, "    m = k * 2 + 1\n    w(1) = x\n    w(2) = y * m\n    w(3) = w(1) + w(2)\n  end subroutine ps\n")
	// pn passes its dummy on to pf: a skipping site when the kinds agree,
	// a kept one (so x may change) when they do not.
	fmt.Fprintf(&mod, "  function pn(x, k) result(r)\n    real(kind=%d) :: x\n    integer :: k\n    real(kind=%d) :: r\n    r = pf(x, x, x, k) * 0.5d0\n  end function pn\n", kn, kn)
	// sa assigns a dummy; sd makes one its DO variable; sk passes one on
	// to sa, whose copy-out is kept.
	fmt.Fprintf(&mod, "  subroutine sa(x, y)\n    real(kind=%d) :: x\n    real(kind=%d) :: y\n    x = x * 0.5d0 + y\n  end subroutine sa\n", kas, kas)
	fmt.Fprintf(&mod, "  subroutine sd(n, x)\n    integer :: n\n    real(kind=%d) :: x\n    real(kind=%d) :: t\n    t = x\n    do n = 1, 3\n      t = t + x * n\n    end do\n  end subroutine sd\n", kd, kd)
	fmt.Fprintf(&mod, "  subroutine sk(x, y)\n    real(kind=%d) :: x\n    real(kind=%d) :: y\n    call sa(x, y)\n  end subroutine sk\n", kk, kk)
	// sm stores into module array a; sv stores through its array dummy;
	// fw writes its array dummy's first element, fm the module scalar s8.
	fmt.Fprintf(&mod, "  subroutine sm(x)\n    real(kind=%d) :: x\n    integer :: k\n    do k = %d, %d\n      a(k) = a(k) * 0.5d0 + x\n    end do\n  end subroutine sm\n", kA, loA, loA+extA-1)
	fmt.Fprintf(&mod, "  subroutine sv(v, x)\n    real(kind=%d), intent(inout) :: v(:)\n    real(kind=%d) :: x\n    v(1) = v(1) + x * 2.0d0\n  end subroutine sv\n", kB, kB)
	fmt.Fprintf(&mod, "  function fw(v) result(r)\n    real(kind=%d), intent(inout) :: v(:)\n    real(kind=%d) :: r\n    v(1) = v(1) + 1.0d0\n    r = v(1)\n  end function fw\n", kA, kA)
	fmt.Fprintf(&mod, "  function fm(x) result(r)\n    real(kind=8) :: x\n    real(kind=8) :: r\n    r = s8 + x\n    s8 = s8 + 1.0d0\n  end function fm\n")
	// fr is recursive: it never qualifies.
	fmt.Fprintf(&mod, "  function fr(x, k) result(r)\n    real(kind=%d) :: x\n    integer :: k\n    real(kind=%d) :: r\n    if (k > 1) then\n      r = fr(x, k - 1) * 0.5d0 + x\n    else\n      r = x\n    end if\n  end function fr\n", kr, kr)
	// zl reads acc first, zb reads m in an array bound, and zi assigns t
	// only inside an IF: each keeps its zero-init.
	fmt.Fprintf(&mod, "  function zl(x) result(r)\n    real(kind=%d) :: x\n    real(kind=%d) :: acc\n    real(kind=%d) :: r\n    acc = acc + x\n    r = acc\n  end function zl\n", kz, kz, kz)
	fmt.Fprintf(&mod, "  function zb(x) result(r)\n    real(kind=%d) :: x\n    integer :: m\n    real(kind=8) :: w(m + 2)\n    real(kind=%d) :: r\n    m = 3\n    w = x\n    r = x * size(w)\n  end function zb\n", kz, kz)
	fmt.Fprintf(&mod, "  function zi(x) result(r)\n    real(kind=%d) :: x\n    real(kind=%d) :: t\n    real(kind=%d) :: r\n    if (x > 0.0d0) then\n      t = x\n    end if\n    r = t + 1.0d0\n  end function zi\n", kz, kz, kz)
	// pt's kind-4 dummy holds whatever a kind-8 actual converts to on
	// copy-in, 1.0d300 included, without a trap; it passes it on to pf.
	fmt.Fprintf(&mod, "  subroutine pt(x)\n    real(kind=4) :: x\n    real(kind=4) :: u\n    u = pf(0.5, 0.25, x, 2)\n  end subroutine pt\n")
	local := map[string]bool{"pt": true, "pf": true, "ps": true, "pn": true, "sa": true, "sd": true, "sk": true,
		"sm": false, "sv": false, "fw": false, "fm": false, "fr": false, "zl": true, "zb": true, "zi": true}

	var body strings.Builder
	for s := 0; s < 6+next(5); s++ {
		switch next(14) {
		case 0, 1:
			forms["pure-func"] = true
			if big && next(2) == 0 {
				forms["nonfinite-dummy"] = true
				fmt.Fprintf(&body, "    y8 = 1.0d300\n    call pt(%s)\n", pick("y8", "y8", "x8"))
			}
			fmt.Fprintf(&body, "    %s = %s * 0.5d0 + pf(%s, %s, %s, %s)\n", pick("x8", "y4", "s8"), pick("x8", "y4", "s8"), realArg(kf), realArg(kf), realArg(kf), intArg())
		case 2:
			forms["pure-sub"] = true
			fmt.Fprintf(&body, "    call ps(%s, %s, %s)\n", varArg(ks), realArg(ks), intArg())
		case 3:
			forms["pass-on-skip"] = true
			fmt.Fprintf(&body, "    %s = pn(%s, %s)\n", pick("y8", "x4"), realArg(kn), intArg())
		case 4:
			forms["assign-dummy"] = true
			if next(3) == 0 {
				forms["passed-twice"] = true
				v := varOfKind(kas)
				fmt.Fprintf(&body, "    call sa(%s, %s)\n", v, v)
			} else {
				fmt.Fprintf(&body, "    call sa(%s, %s)\n", varArg(kas), realArg(kas))
			}
		case 5:
			forms["do-dummy"] = true
			fmt.Fprintf(&body, "    call sd(%s, %s)\n", pick("n", "si"), realArg(kd))
		case 6:
			forms["pass-on-kept"] = true
			fmt.Fprintf(&body, "    call sk(%s, %s)\n", varArg(kk), realArg(kk))
		case 7:
			forms["module-store"] = true
			fmt.Fprintf(&body, "    call sm(%s)\n", elemA())
		case 8:
			forms["array-dummy-store"] = true
			fmt.Fprintf(&body, "    call sv(b, %s)\n", elemB())
		case 9:
			forms["later-actual-writes"] = true
			if next(2) == 0 && kf == kA {
				fmt.Fprintf(&body, "    s8 = s8 + pf(a(%d), fw(a), %s, n)\n", loA, realArg(kf))
			} else {
				fmt.Fprintf(&body, "    x8 = x8 + pf(%s, %s, %s, n) + fm(x8)\n", varOfKind(kf), realArg(kf), realArg(kf))
				if kf == 8 {
					fmt.Fprintf(&body, "    x8 = pf(s8, fm(0.5d0), y8, n)\n")
				}
			}
		case 10:
			forms["recursive"] = true
			fmt.Fprintf(&body, "    %s = fr(%s, 3)\n", pick("y4", "y8"), realArg(kr))
		case 11:
			forms["read-first"], forms["read-by-bound"], forms["assigned-in-if"] = true, true, true
			fmt.Fprintf(&body, "    x8 = x8 + zl(%s) + zb(%s) + zi(%s)\n", realArg(kz), realArg(kz), pick(realArg(kz), realArg(kz), "-"+realVar()))
		case 12:
			forms["int-assign"] = true
			fmt.Fprintf(&body, "    %s\n", pick("n = n * 3 + i - mk", "si = si * 1000003 + i", "n = (n + si) - 2", "si = mk * i"))
		default:
			fmt.Fprintf(&body, "    %s = %s + %s * 0.25d0\n", realVar(), realVar(), realVar())
		}
	}

	var b strings.Builder
	b.WriteString("module g\n  implicit none\n  integer :: mk, si\n  real(kind=8) :: s8\n  real(kind=4) :: s4\n")
	fmt.Fprintf(&b, "  real(kind=%d) :: a(%d:%d)\n  real(kind=%d) :: b(%d)\n", kA, loA, loA+extA-1, kB, extB)
	b.WriteString("contains\n")
	b.WriteString(mod.String())
	b.WriteString("end module g\n\nprogram main\n  use g\n  implicit none\n")
	b.WriteString("  integer :: i, n\n  real(kind=8) :: x8, y8\n  real(kind=4) :: x4, y4\n")
	fmt.Fprintf(&b, "  mk = %d\n  n = 2\n  si = 5\n  s8 = 0.25d0\n  s4 = 4.0\n", 1+next(3))
	b.WriteString("  x8 = 1.5d0\n  y8 = -0.75d0\n  x4 = 2.5\n  y4 = 0.375\n")
	fmt.Fprintf(&b, "  do i = %d, %d\n    a(i) = 0.25d0 * i + 0.5d0\n  end do\n", loA, loA+extA-1)
	fmt.Fprintf(&b, "  do i = 1, %d\n    b(i) = 0.5d0 - 0.125d0 * i\n  end do\n", extB)
	b.WriteString("  do i = 1, 4\n")
	b.WriteString(body.String())
	b.WriteString("  end do\n  s8 = s8 + x8 + y8\n  s4 = s4 + x4 + y4\n  si = si + n\nend program main\n")
	return b.String(), forms, local
}

// TestCopyOutFormsOnModels pins where the bundled models take the
// skipped copy-out and locals-assigned-first forms, so a change that
// quietly turns either off, or on where it must not be, fails. It names
// the procedures that store only into their own frames, checks that in
// MOM6 and MPAS-A every function-call site binding a variable to a dummy
// without intent(in) skips, in the source and in a lowering of every
// other atom (whose wrappers add sites), and that the subroutine sites
// that write back keep their copy-outs. A run then shows the compiled
// sites queue no copy-out, unboxed, where every boxed call queues them.
func TestCopyOutFormsOnModels(t *testing.T) {
	type want struct {
		local          []string
		sites, lowered int // function-call copy-out sites: all must skip
		keep           []string
	}
	models := map[string]want{
		"mom6.ft":   {[]string{"merid_flux_layer", "uvel_face", "vvel_face", "zonal_flux_layer"}, 10, 11, []string{"continuity_ppm"}},
		"mpas_a.ft": {[]string{"flux3", "flux4"}, 6, 12, nil},
		"funarc.ft": {[]string{"fun"}, -1, -1, nil},
		"adcirc.ft": {[]string{"peror"}, -1, -1, []string{"jcg"}},
	}
	for file, w := range models {
		t.Run(file, func(t *testing.T) {
			prog := parseModelFile(t, "../models/src/"+file)
			facts := newCallFacts(prog)
			var local []string
			for _, p := range prog.AllProcs {
				if facts.proc(p).local {
					local = append(local, p.Name)
				}
			}
			sort.Strings(local)
			if fmt.Sprint(local) != fmt.Sprint(w.local) {
				t.Errorf("procedures storing only into their own frames: %v, want %v", local, w.local)
			}
			for _, q := range w.keep {
				n := 0
				forEachCopyOutSite(prog, func(_, callee *ft.Procedure, args []ft.Expr, _ bool) {
					if callee.Name == q {
						n++
						if facts.skips(callee, args) {
							t.Errorf("the call of %s skips its copy-outs", q)
						}
					}
				})
				if n == 0 {
					t.Errorf("no copy-out call site of %s", q)
				}
			}
			if w.sites < 0 {
				return
			}
			v := lowerAlternate(t, prog)
			for _, c := range []struct {
				name string
				prog *ft.Program
				want int
			}{{"source", prog, w.sites}, {"alternate-atom", v.Prog, w.lowered}} {
				facts := newCallFacts(c.prog)
				n, skip := 0, 0
				forEachCopyOutSite(c.prog, func(caller, q *ft.Procedure, args []ft.Expr, isFunc bool) {
					if !isFunc {
						return
					}
					n++
					if facts.skips(q, args) {
						skip++
					} else {
						t.Errorf("%s: %s's call of %s keeps its copy-outs", c.name, caller.Name, q.Name)
					}
				})
				if n != c.want || skip != n {
					t.Errorf("%s: %d of %d function-call copy-out sites skip, want %d of %d", c.name, skip, n, c.want, c.want)
				}
			}
		})
	}

	// Every function the models call for a scalar result stores it in
	// its first statement, and a generated wrapper stores its result and
	// scalar temporaries before it calls: none of them is zero-initialized.
	for file, procs := range map[string][]string{
		"mom6.ft":   {"zonal_flux_layer", "merid_flux_layer", "uvel_face", "vvel_face"},
		"mpas_a.ft": {"flux3", "flux4"},
		"funarc.ft": {"fun"},
	} {
		prog := parseModelFile(t, "../models/src/"+file)
		for _, name := range procs {
			for _, p := range prog.AllProcs {
				if first := assignedFirst(p); p.Name == name && (first == nil || !first[p.Result.Slot]) {
					t.Errorf("%s: %s's result is zero-initialized", file, name)
				}
			}
		}
	}
	for _, file := range []string{"mom6.ft", "mpas_a.ft"} {
		for _, p := range lowerAlternate(t, parseModelFile(t, "../models/src/"+file)).Prog.AllProcs {
			if p.WrapperFor == "" {
				continue
			}
			first := assignedFirst(p)
			for _, d := range p.Decls {
				if !d.IsArg && !d.IsArray() && (first == nil || !first[d.Slot]) {
					t.Errorf("%s: wrapper %s zero-initializes %s", file, p.Name, d.Name)
				}
			}
		}
	}

	// The compiled program: unboxed, MOM6's flux and face functions
	// compile no zero-init and queue no copy-out, while continuity_ppm
	// queues maxcfl's; boxed, every procedure that copies out queues.
	prog := parseModelFile(t, "../models/src/mom6.ft")
	for _, boxed := range []bool{false, true} {
		r := runVM(t, prog, boxed, runOpts{trap: true})
		if r.errStr != "" {
			t.Fatalf("%s MOM6 run: %s", compileName(boxed), r.errStr)
		}
		for _, cp := range r.in.vmr.cp.procs {
			queued := false
			for _, fr := range cp.pool {
				for _, co := range fr.co[:cap(fr.co)] {
					queued = queued || co.p != nil
				}
			}
			name := cp.proc.Name
			skips := !boxed && strings.Contains(" zonal_flux_layer merid_flux_layer uvel_face vvel_face ", " "+name+" ")
			if cp.numCo > 0 && len(cp.pool) > 0 && queued == skips {
				t.Errorf("%s: %s queued a copy-out: %v, want %v", compileName(boxed), name, queued, !skips)
			}
			if skips && len(cp.inits) != 0 {
				t.Errorf("%s: %s compiles %d zero-inits, want none", compileName(boxed), name, len(cp.inits))
			}
		}
	}
}
