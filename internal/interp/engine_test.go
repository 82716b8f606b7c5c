package interp

// Differential tests pinning the bit-for-bit contract between the
// closure-compiled VM (EngineVM) and the reference tree-walker
// (EngineAST): identical results, cycle totals, step counts, cast
// attribution, PRINT output, GPTL reports, and numerics profiles, on
// every bundled model source and on randomized programs.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
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
	profile []byte
}

func runEngine(t *testing.T, prog *ft.Program, eng Engine, withNumerics, trap bool) *engineRun {
	t.Helper()
	var out bytes.Buffer
	cfg := Config{Model: perfmodel.Default(), Profile: true, Stdout: &out, Engine: eng, TrapNonFinite: trap}
	var rec *numerics.Recorder
	if withNumerics {
		rec = numerics.NewRecorder("prog.ft", numerics.Options{})
		cfg.Numerics = rec
	}
	in, err := New(prog, cfg)
	if err != nil {
		t.Fatalf("New(%v): %v", eng, err)
	}
	res, rerr := in.Run()
	r := &engineRun{in: in, res: res, stdout: out.Bytes()}
	if rerr != nil {
		r.errStr = rerr.Error()
	}
	if res.Timers != nil {
		r.timers = res.Timers.Report()
	}
	if rec != nil {
		b, jerr := json.Marshal(rec.Profile())
		if jerr != nil {
			t.Fatalf("marshal profile: %v", jerr)
		}
		r.profile = b
	}
	return r
}

// compareEngines runs prog under both engines with identical configs
// and fails on any observable divergence. Comparisons are exact (bit
// patterns, not tolerances): the engines must agree down to float
// accumulation order. It returns the run's error text ("" for none).
func compareEngines(t *testing.T, prog *ft.Program, withNumerics, trap bool) string {
	t.Helper()
	ast := runEngine(t, prog, EngineAST, withNumerics, trap)
	vm := runEngine(t, prog, EngineVM, withNumerics, trap)

	if ast.errStr != vm.errStr {
		t.Fatalf("run error diverged:\n  ast: %q\n  vm:  %q", ast.errStr, vm.errStr)
	}
	if b1, b2 := math.Float64bits(ast.res.Cycles), math.Float64bits(vm.res.Cycles); b1 != b2 {
		t.Errorf("cycles diverged: ast %.17g vm %.17g", ast.res.Cycles, vm.res.Cycles)
	}
	if ast.res.Casts != vm.res.Casts {
		t.Errorf("casts diverged: ast %d vm %d", ast.res.Casts, vm.res.Casts)
	}
	if math.Float64bits(ast.res.CastCycles) != math.Float64bits(vm.res.CastCycles) {
		t.Errorf("cast cycles diverged: ast %.17g vm %.17g", ast.res.CastCycles, vm.res.CastCycles)
	}
	if ast.res.Steps != vm.res.Steps {
		t.Errorf("steps diverged: ast %d vm %d", ast.res.Steps, vm.res.Steps)
	}
	if len(ast.res.ProcCastCycles) != len(vm.res.ProcCastCycles) {
		t.Errorf("proc cast attribution diverged:\n  ast: %v\n  vm:  %v",
			ast.res.ProcCastCycles, vm.res.ProcCastCycles)
	}
	for q, c := range ast.res.ProcCastCycles {
		vc, ok := vm.res.ProcCastCycles[q]
		if !ok || math.Float64bits(c) != math.Float64bits(vc) {
			t.Errorf("proc cast cycles for %s diverged: ast %.17g vm %.17g (present=%v)", q, c, vc, ok)
		}
	}
	if !bytes.Equal(ast.stdout, vm.stdout) {
		t.Errorf("PRINT output diverged:\n  ast: %q\n  vm:  %q", ast.stdout, vm.stdout)
	}
	if ast.timers != vm.timers {
		t.Errorf("GPTL report diverged:\n--- ast ---\n%s\n--- vm ---\n%s", ast.timers, vm.timers)
	}
	if !bytes.Equal(ast.profile, vm.profile) {
		t.Errorf("numerics profile diverged:\n  ast: %s\n  vm:  %s", ast.profile, vm.profile)
	}
	compareGlobals(t, prog, ast.in, vm.in, withNumerics)
	return ast.errStr
}

func compareGlobals(t *testing.T, prog *ft.Program, ast, vm *Interp, withNumerics bool) {
	t.Helper()
	for _, mod := range prog.Modules {
		for _, d := range mod.Decls {
			q := d.QName()
			av, _ := ast.Global(q)
			vv, _ := vm.Global(q)
			if (av.Arr == nil) != (vv.Arr == nil) {
				t.Errorf("global %s: array allocation diverged (ast nil=%v vm nil=%v)",
					q, av.Arr == nil, vv.Arr == nil)
				continue
			}
			if av.Arr != nil {
				a, b := av.Arr, vv.Arr
				if len(a.Data) != len(b.Data) {
					t.Errorf("global %s: array size diverged (%d vs %d)", q, len(a.Data), len(b.Data))
					continue
				}
				for k := range a.Data {
					if math.Float64bits(a.Data[k]) != math.Float64bits(b.Data[k]) {
						t.Errorf("global %s[%d]: ast %.17g vm %.17g", q, k, a.Data[k], b.Data[k])
						break
					}
				}
				if withNumerics {
					if (a.Shadow == nil) != (b.Shadow == nil) {
						t.Errorf("global %s: shadow allocation diverged", q)
						continue
					}
					for k := range a.Shadow {
						if math.Float64bits(a.Shadow[k]) != math.Float64bits(b.Shadow[k]) {
							t.Errorf("global %s shadow[%d]: ast %.17g vm %.17g", q, k, a.Shadow[k], b.Shadow[k])
							break
						}
					}
				}
				continue
			}
			if math.Float64bits(av.F) != math.Float64bits(vv.F) || av.I != vv.I || av.B != vv.B {
				t.Errorf("global %s diverged: ast {F:%.17g I:%d B:%v} vm {F:%.17g I:%d B:%v}",
					q, av.F, av.I, av.B, vv.F, vv.I, vv.B)
			}
			// The shadow lane is only defined under a recorder; without
			// one the engines are free to report F there.
			if withNumerics && math.Float64bits(av.Sh) != math.Float64bits(vv.Sh) {
				t.Errorf("global %s shadow diverged: ast %.17g vm %.17g", q, av.Sh, vv.Sh)
			}
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

// TestEngineDifferentialModels runs every bundled model source — and
// its uniform 32-bit lowering, the cast-heaviest variant the tuner ever
// builds — through both engines, with and without shadow execution.
func TestEngineDifferentialModels(t *testing.T) {
	files, err := filepath.Glob("../models/src/*.ft")
	if err != nil || len(files) == 0 {
		t.Fatalf("no model sources found: %v", err)
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			prog := parseModelFile(t, f)
			compareEngines(t, prog, false, false)
			compareEngines(t, prog, true, false)

			v, err := transform.Apply(prog, transform.Uniform(transform.Atoms(prog), 4))
			if err != nil {
				t.Fatalf("uniform-32 transform: %v", err)
			}
			compareEngines(t, v.Prog, false, false)
			compareEngines(t, v.Prog, true, false)
		})
	}
}

// TestEngineDifferentialBudget pins that both engines time out at the
// same statement with the same error when a cycle budget truncates a
// model run mid-flight.
func TestEngineDifferentialBudget(t *testing.T) {
	prog := parseModelFile(t, "../models/src/funarc.ft")
	full := runEngine(t, prog, EngineAST, false, false)
	if full.errStr != "" {
		t.Fatalf("unbudgeted run failed: %s", full.errStr)
	}
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		budget := full.res.Cycles * frac
		run := func(eng Engine) (*Result, string) {
			// Profile on, matching the baseline measurement (timer
			// overhead is part of the cycle count).
			in, err := New(prog, Config{Model: perfmodel.Default(), Profile: true, CycleBudget: budget, Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			res, rerr := in.Run()
			msg := ""
			if rerr != nil {
				msg = rerr.Error()
			}
			return res, msg
		}
		ares, aerr := run(EngineAST)
		vres, verr := run(EngineVM)
		if aerr == "" {
			t.Fatalf("budget %.0f did not trip", budget)
		}
		if aerr != verr {
			t.Errorf("budget error diverged:\n  ast: %q\n  vm:  %q", aerr, verr)
		}
		if math.Float64bits(ares.Cycles) != math.Float64bits(vres.Cycles) || ares.Steps != vres.Steps {
			t.Errorf("budget %.0f: partial progress diverged: ast (%.17g cycles, %d steps) vm (%.17g cycles, %d steps)",
				budget, ares.Cycles, ares.Steps, vres.Cycles, vres.Steps)
		}
	}
}

// TestEngineDifferentialProperty feeds randomized scalar expression
// programs through both engines and requires bit-identical results and
// cycle totals. The grammar leans on the operations with the trickiest
// rounding behaviour: kind-4 arithmetic, **, and transcendentals.
func TestEngineDifferentialProperty(t *testing.T) {
	ops := []string{"+", "-", "*", "/"}
	uns := []string{"sqrt(abs(%s))", "sin(%s)", "cos(%s)", "exp(min(%s, 4.0_8))", "abs(%s)", "-(%s)"}
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
		for _, withNumerics := range []bool{false, true} {
			ast := runEngine(t, prog, EngineAST, withNumerics, false)
			vm := runEngine(t, prog, EngineVM, withNumerics, false)
			if ast.errStr != vm.errStr {
				t.Fatalf("case %d (numerics=%v) error diverged:\n  ast: %q\n  vm: %q\nexpr: %s",
					i, withNumerics, ast.errStr, vm.errStr, expr)
			}
			ar, _ := ast.in.GlobalFloat("e.r_out")
			vr, _ := vm.in.GlobalFloat("e.r_out")
			if math.Float64bits(ar) != math.Float64bits(vr) {
				t.Errorf("case %d (numerics=%v) result diverged: ast %.17g vm %.17g\nexpr: %s",
					i, withNumerics, ar, vr, expr)
			}
			if math.Float64bits(ast.res.Cycles) != math.Float64bits(vm.res.Cycles) ||
				ast.res.Steps != vm.res.Steps || ast.res.Casts != vm.res.Casts {
				t.Errorf("case %d (numerics=%v) accounting diverged: ast (%.17g, %d, %d) vm (%.17g, %d, %d)\nexpr: %s",
					i, withNumerics, ast.res.Cycles, ast.res.Steps, ast.res.Casts,
					vm.res.Cycles, vm.res.Steps, vm.res.Casts, expr)
			}
			if !bytes.Equal(ast.profile, vm.profile) {
				t.Errorf("case %d numerics profile diverged\nexpr: %s\n  ast: %s\n  vm:  %s",
					i, expr, ast.profile, vm.profile)
			}
		}
	}
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
	for seed := 1; seed <= 120; seed++ {
		src := genCallProgram(uint64(seed))
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
					msg := compareEngines(t, prog, num, trap)
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
func genCallProgram(seed uint64) string {
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
	var procs []proc
	var mod strings.Builder
	for p := 0; p < 2+next(2); p++ {
		pr := proc{name: fmt.Sprintf("p%d", p), isFunc: next(3) == 0}
		if pr.isFunc {
			pr.name = fmt.Sprintf("f%d", p)
		}
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
			fmt.Fprintf(&mod, "    r = %s\n", rexpr(false))
		}
		fmt.Fprintf(&mod, "  end %s %s\n", kw, pr.name)
	}

	var funcs []proc
	for _, pr := range procs {
		if pr.isFunc {
			funcs = append(funcs, pr)
		}
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
		switch next(5) {
		case 0:
			fmt.Fprintf(&body, "    %s = %s %s %s\n", elem(false), elem(false), pick("+", "*", "-"), pick(realVar(), "0.75d0", elem(false)))
		case 1:
			v := realVar()
			fmt.Fprintf(&body, "    %s = %s * 0.5d0 + %s\n", v, v, elem(false))
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
	return b.String()
}

// TestCycleBudgetBoundary pins the budget contract documented on
// Config.CycleBudget for both engines: the boundary is inclusive, so a
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
	run := func(eng Engine, src string, budget float64) (*Result, error) {
		in, err := New(build(src), Config{Model: perfmodel.Default(), CycleBudget: budget, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		return in.Run()
	}
	for _, eng := range []Engine{EngineAST, EngineVM} {
		res1, err := run(eng, prefix, 0)
		if err != nil {
			t.Fatalf("%v: prefix run: %v", eng, err)
		}
		c1 := res1.Cycles

		// Exactly at the boundary: the second statement must not run.
		res2, err := run(eng, full, c1)
		if err == nil {
			t.Fatalf("%v: budget %.17g did not stop the second statement", eng, c1)
		}
		var re *RunError
		if !errors.As(err, &re) || re.Kind != FailTimeout {
			t.Fatalf("%v: want FailTimeout, got %v", eng, err)
		}
		if res2.Steps != res1.Steps {
			t.Errorf("%v: partial steps %d, want %d (timeout before the statement counts)",
				eng, res2.Steps, res1.Steps)
		}
		if math.Float64bits(res2.Cycles) != math.Float64bits(c1) {
			t.Errorf("%v: partial cycles %.17g, want %.17g", eng, res2.Cycles, c1)
		}

		// One ulp above the boundary: the run completes.
		if _, err := run(eng, full, math.Nextafter(c1, math.Inf(1))); err != nil {
			t.Errorf("%v: budget just above the boundary still tripped: %v", eng, err)
		}
	}
}
