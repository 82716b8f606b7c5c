package interp

// The closure-compiled engine (EngineVM, the default). compile.go
// lowers the checked AST once per Interp into typed closures with
// every name resolved to a frame slot and every operation cost folded
// to a constant; this file holds the runtime those closures execute
// against. The contract with the tree-walker (interp.go, eval.go,
// call.go, intrinsics.go) is bit-for-bit equivalence: identical
// results, cycle totals, step counts, cast attribution, recorder call
// sequences, and journal bytes — enforced by the differential tests in
// engine_test.go and property_test.go. Anything observable here must
// mirror the tree-walker exactly, down to float accumulation order.
//
// Storage is structure-of-arrays: a vframe keeps one slice per value
// lane (float64 primary, float64 shadow, int64, bool, *Array), all
// indexed by the declaration's slot. The shadow lane exists only when
// a numerics recorder is attached, so uninstrumented runs touch no
// shadow storage at all. Frames are pooled per procedure: every slot
// is either a bound argument or an initialized local, so a recycled
// frame needs no clearing.

import (
	"context"
	"fmt"
	"io"

	ft "repro/internal/fortran"
	"repro/internal/gptl"
	"repro/internal/numerics"
	"repro/internal/perfmodel"
)

// vexpr evaluates an expression in a frame, charging its cost.
type vexpr func(m *vm, fr *vframe) (Value, error)

// vstmt executes one statement (budget check included).
type vstmt func(m *vm, fr *vframe) (control, error)

// vinit initializes one declaration's slot (zero or declared init).
type vinit func(m *vm, fr *vframe) error

// vframe is slot storage for one procedure activation (or one module):
// parallel lanes indexed by VarDecl.Slot. Only the lane matching the
// declaration's type is live for a given slot.
type vframe struct {
	f  []float64 // real primary
	sh []float64 // real shadow (nil unless a recorder is attached)
	i  []int64
	b  []bool
	a  []*Array
	co []coRec // pending scalar copy-outs of the call that owns this activation
}

// cproc is one compiled procedure.
type cproc struct {
	proc     *ft.Procedure
	qname    string
	inits    []vinit // non-argument locals, in declaration order
	body     []vstmt
	inlined  bool
	numSlots int
	numCo    int // scalar dummies that are not intent(in): copy-out capacity
	shadow   bool
	pool     []*vframe
}

// frame returns a pooled or fresh activation frame. No clearing is
// needed: argument slots are written by the caller's binding plan and
// every non-argument declaration has an init closure.
func (cp *cproc) frame() *vframe {
	if n := len(cp.pool); n > 0 {
		fr := cp.pool[n-1]
		cp.pool = cp.pool[:n-1]
		return fr
	}
	fr := &vframe{
		f: make([]float64, cp.numSlots),
		i: make([]int64, cp.numSlots),
		b: make([]bool, cp.numSlots),
		a: make([]*Array, cp.numSlots),
	}
	if cp.shadow {
		fr.sh = make([]float64, cp.numSlots)
	}
	if cp.numCo > 0 {
		fr.co = make([]coRec, 0, cp.numCo)
	}
	return fr
}

func (cp *cproc) put(fr *vframe) { cp.pool = append(cp.pool, fr) }

// cprog is a compiled program.
type cprog struct {
	prog     *ft.Program
	procs    []*cproc // by Procedure.Index
	main     *cproc
	modInits [][]vinit // by Module.Index, in declaration order
}

// vm is the mutable run state the compiled closures thread through.
// Field-for-field it shadows the tree-walker's Interp accounting so
// both engines accumulate cycles, casts, and steps identically.
type vm struct {
	cp     *cprog
	model  *perfmodel.Model
	rec    *numerics.Recorder
	stdout io.Writer
	timers *gptl.Timers

	gl []*vframe // module storage by Module.Index

	cycles    float64
	vecFactor float64
	depth     int
	steps     int64

	casts      int64
	castCycles float64
	castAcc    []float64 // by Procedure.Index, summed in execution order
	castSeen   []bool
	curProc    []*cproc

	budget   float64
	ctx      context.Context
	trap     bool
	maxDepth int
	memFloor float64
	castCost float64
}

// newVM compiles the program and prepares its run state.
func newVM(prog *ft.Program, cfg *Config, model *perfmodel.Model, an *perfmodel.Analysis) *vm {
	m := &vm{
		model:     model,
		rec:       cfg.Numerics,
		stdout:    cfg.Stdout,
		vecFactor: 1.0,
		budget:    cfg.CycleBudget,
		ctx:       cfg.Context,
		trap:      cfg.TrapNonFinite,
		maxDepth:  cfg.MaxDepth,
		memFloor:  model.MemVecFloor,
		castCost:  model.OpCost(perfmodel.OpCast, 8),
	}
	m.cp = compileProgram(prog, model, an, cfg.Numerics)
	m.castAcc = make([]float64, len(prog.AllProcs))
	m.castSeen = make([]bool, len(prog.AllProcs))
	m.gl = make([]*vframe, len(prog.Modules))
	for _, mod := range prog.Modules {
		fr := &vframe{
			f: make([]float64, len(mod.Decls)),
			i: make([]int64, len(mod.Decls)),
			b: make([]bool, len(mod.Decls)),
			a: make([]*Array, len(mod.Decls)),
		}
		if cfg.Numerics != nil {
			fr.sh = make([]float64, len(mod.Decls))
		}
		m.gl[mod.Index] = fr
	}
	if cfg.Profile {
		m.timers = gptl.New(func() float64 { return m.cycles })
	}
	return m
}

// run mirrors Interp.Run: module init, main locals, main body.
func (m *vm) run() (*Result, error) {
	for _, inits := range m.cp.modInits {
		for _, init := range inits {
			if err := init(m, nil); err != nil {
				return m.result(), err
			}
		}
	}
	cp := m.cp.main
	fr := cp.frame()
	for _, init := range cp.inits {
		if err := init(m, fr); err != nil {
			return m.result(), err
		}
	}
	_, err := m.runStmts(fr, cp.body)
	cp.put(fr)
	return m.result(), err
}

func (m *vm) result() *Result {
	pc := make(map[string]float64)
	for idx, seen := range m.castSeen {
		if seen {
			pc[m.cp.procs[idx].qname] = m.castAcc[idx]
		}
	}
	return &Result{
		Cycles:         m.cycles,
		Casts:          m.casts,
		CastCycles:     m.castCycles,
		Steps:          m.steps,
		Timers:         m.timers,
		ProcCastCycles: pc,
	}
}

// globalValue synthesizes the tree-walker's Value view of a module
// variable from lane storage (Interp.Global dispatches here).
func (m *vm) globalValue(mod *ft.Module, d *ft.VarDecl) Value {
	fr := m.gl[mod.Index]
	slot := d.Slot
	switch {
	case d.IsArray():
		arr := fr.a[slot]
		if arr == nil {
			return Value{}
		}
		return Value{Base: ft.TReal, Kind: d.Kind, Arr: arr}
	case d.Base == ft.TReal:
		v := Value{Base: ft.TReal, Kind: d.Kind, F: fr.f[slot], Sh: fr.f[slot]}
		if fr.sh != nil {
			v.Sh = fr.sh[slot]
		}
		return v
	case d.Base == ft.TInteger:
		return intValue(fr.i[slot])
	case d.Base == ft.TLogical:
		return logicalValue(fr.b[slot])
	}
	return Value{}
}

func (m *vm) runStmts(fr *vframe, list []vstmt) (control, error) {
	for _, s := range list {
		ctl, err := s(m, fr)
		if err != nil {
			return ctlNone, err
		}
		if ctl != ctlNone {
			return ctl, nil
		}
	}
	return ctlNone, nil
}

// checkBudget is the VM copy of Interp.checkBudget: same inclusive
// boundary, same step counting, same cancelPollInterval pacing.
func (m *vm) checkBudget(pos ft.Pos) error {
	if m.budget > 0 && m.cycles >= m.budget {
		return &RunError{Pos: pos, Kind: FailTimeout,
			Msg: fmt.Sprintf("exceeded %.0f cycles", m.budget)}
	}
	m.steps++
	if m.ctx != nil && m.steps%cancelPollInterval == 0 {
		if err := m.ctx.Err(); err != nil {
			return &RunError{Pos: pos, Kind: FailCancelled, Msg: err.Error()}
		}
	}
	return nil
}

// charge adds one precompiled scalar-op cost at the current factor
// (the compiled form of Interp.op with OpCost folded to a constant).
func (m *vm) charge(cost float64) { m.cycles += cost * m.vecFactor }

// chargeMem is charge with the memory-bandwidth floor applied to the
// vector discount, mirroring Interp.op for loads/stores.
func (m *vm) chargeMem(cost float64) {
	f := m.vecFactor
	if f < m.memFloor {
		f = m.memFloor
	}
	m.cycles += cost * f
}

// chargeN mirrors Interp.opN: cost*n*factor in that association order.
func (m *vm) chargeN(cost, n, factor float64) { m.cycles += cost * n * factor }

// chargeMemN is chargeN with the factor clamped to the memory floor.
func (m *vm) chargeMemN(cost, n, factor float64) {
	if factor < m.memFloor {
		factor = m.memFloor
	}
	m.cycles += cost * n * factor
}

// cast charges a kind conversion and attributes it to the procedure on
// top of the call stack (main-level casts stay unattributed), exactly
// as Interp.cast does. Attribution is dynamic because declaration-init
// expressions execute under their *caller's* attribution context.
func (m *vm) cast(n int64) {
	cost := m.castCost * float64(n) * m.vecFactor
	m.cycles += cost
	m.casts += n
	m.castCycles += cost
	if k := len(m.curProc); k > 0 {
		idx := m.curProc[k-1].proc.Index
		m.castAcc[idx] += cost
		m.castSeen[idx] = true
	}
}

// procName is the dynamic procedure name for recorder attribution
// ("main" outside any call), matching Interp.procName.
func (m *vm) procName() string {
	if k := len(m.curProc); k > 0 {
		return m.curProc[k-1].qname
	}
	return "main"
}
