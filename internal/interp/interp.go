package interp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	ft "repro/internal/fortran"
	"repro/internal/gptl"
	"repro/internal/numerics"
	"repro/internal/perfmodel"
)

// FailKind classifies why a run failed, matching the variant outcome
// buckets of the paper's Table II.
type FailKind int

// Failure kinds.
const (
	FailNone FailKind = iota
	FailNonFinite
	FailStop
	FailBounds
	FailTimeout
	FailInternal
	// FailCancelled aborts a run whose Config.Context was cancelled — a
	// deadline or shutdown killing the evaluation from outside. Unlike
	// FailTimeout (the deterministic 3x-baseline cycle budget of §IV-A),
	// cancellation says nothing about the variant: callers must treat it
	// as an interrupted measurement, never as a variant outcome.
	FailCancelled
)

func (k FailKind) String() string {
	switch k {
	case FailNonFinite:
		return "non-finite value"
	case FailStop:
		return "error stop"
	case FailBounds:
		return "index out of bounds"
	case FailTimeout:
		return "cycle budget exceeded"
	case FailInternal:
		return "internal error"
	case FailCancelled:
		return "run cancelled"
	default:
		return "ok"
	}
}

// RunError is a runtime failure of the interpreted program.
type RunError struct {
	Pos  ft.Pos
	Kind FailKind
	Msg  string
}

func (e *RunError) Error() string {
	return fmt.Sprintf("%s: %s: %s", e.Pos, e.Kind, e.Msg)
}

// Config configures a run.
type Config struct {
	// Model prices operations; required.
	Model *perfmodel.Model
	// TrapNonFinite makes any assignment of NaN/±Inf a runtime error,
	// the mechanism behind Table II's "Error" outcomes.
	TrapNonFinite bool
	// CycleBudget aborts the run with FailTimeout once simulated cycles
	// reach it (0 = unlimited). The boundary is inclusive: a statement
	// beginning at exactly CycleBudget cycles does not execute, so the
	// evaluator's "3× baseline" contract (§IV-A) admits strictly less
	// than three baselines of work. Pinned by TestCycleBudgetBoundary.
	CycleBudget float64
	// Context, if non-nil, aborts the run with FailCancelled once it is
	// done. It is polled periodically in the statement loop, alongside
	// the cycle budget, so even a long-running evaluation notices a hard
	// cancellation within a bounded number of statements.
	Context context.Context
	// Stdout receives PRINT output (nil discards it).
	Stdout io.Writer
	// Profile enables GPTL per-procedure timing (with modeled overhead).
	Profile bool
	// Numerics, if non-nil, enables shadow execution: every real value
	// carries a float64 shadow computed at full precision and the
	// recorder aggregates per-statement/per-atom divergence. Strictly
	// diagnostic: it never changes primary-lane results, costs, or
	// failure behaviour (test-enforced), and nil keeps the hot path
	// allocation-free.
	Numerics *numerics.Recorder
}

// Result summarizes a completed run.
type Result struct {
	Cycles     float64
	Casts      int64   // dynamic kind-conversion count
	CastCycles float64 // cycles spent on kind conversions
	Steps      int64   // statements executed (loop bodies re-counted)
	Timers     *gptl.Timers
	// ProcCastCycles attributes cast cycles to the procedure executing
	// them — the evidence behind the paper's "40% of CPU time is
	// casting overhead" analysis of MOM6 variant 58.
	ProcCastCycles map[string]float64
}

// control is the statement-level control-flow signal.
type control int

const (
	ctlNone control = iota
	ctlExit
	ctlCycle
	ctlReturn
)

// Interp executes one program. An Interp is single-use: construct, Run,
// inspect globals, then Release. New compiles the program to the VM
// (vm.go); Run executes it.
type Interp struct {
	prog     *ft.Program
	vmr      *vm
	released bool
}

// errReleased is what Run returns after Release.
var errReleased = errors.New("interp: Run after Release")

// maxCallDepth bounds the call stack: a call that would make it deeper
// fails with FailInternal.
const maxCallDepth = 1000

// cancelPollInterval is how many budget checks (≈ statements) pass
// between Context polls: rare enough to stay off the hot path, frequent
// enough that a hard cancellation lands within microseconds of real
// work.
const cancelPollInterval = 1024

// New prepares an interpreter for an analyzed program. Its run
// allocates every module array; Pool.New recycles them instead.
func New(prog *ft.Program, cfg Config) (*Interp, error) {
	return newInterp(prog, cfg, false, nil)
}

// newInterp is New, or Pool.New with a pool; boxed compiles the program
// in boxed mode (compiler.boxed), which only tests ask for.
func newInterp(prog *ft.Program, cfg Config, boxed bool, pool *Pool) (*Interp, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("interp: Config.Model is required")
	}
	if prog.Main == nil {
		return nil, fmt.Errorf("interp: program has no main program block")
	}
	if prog.ProcMap == nil {
		return nil, fmt.Errorf("interp: program must be analyzed first")
	}
	an := perfmodel.Analyze(prog, cfg.Model)
	return &Interp{prog: prog, vmr: newVM(prog, &cfg, an, boxed, pool)}, nil
}

// Run initializes module storage and executes the main program. After
// Release it runs nothing and returns an error.
func (i *Interp) Run() (*Result, error) {
	if i.released {
		return nil, errReleased
	}
	return i.vmr.run()
}

// Release returns the run's module arrays to the pool the Interp was
// built through (none for New), each once: a second call finds none.
// Call it after Run has returned and the globals have been read; after
// it, Run, Global and GlobalFloats refuse, since a later run of the
// pool may be using the arrays.
func (i *Interp) Release() {
	i.released = true
	i.vmr.release()
}

// Global returns the value of a module variable by qualified name
// ("module.var"), used by model harnesses to read output time series.
// It reports false after Release.
func (i *Interp) Global(qname string) (Value, bool) {
	if i.released {
		return Value{}, false
	}
	mod, name, _ := strings.Cut(qname, ".")
	for _, m := range i.prog.Modules {
		if m.Name != mod {
			continue
		}
		for _, d := range m.Decls {
			if d.Name == name {
				return i.vmr.globalValue(m, d), true
			}
		}
	}
	return Value{}, false
}

// GlobalFloats returns a copy of a real module array's contents. It
// reports false after Release.
func (i *Interp) GlobalFloats(qname string) ([]float64, bool) {
	v, ok := i.Global(qname)
	if !ok || v.Arr == nil {
		return nil, false
	}
	return append([]float64(nil), v.Arr.Data...), true
}
