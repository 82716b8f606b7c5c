package interp

// The closure-compiled interpreter. compile.go lowers the checked AST
// once per Interp into typed closures with every name resolved to a
// frame slot and every operation cost folded to a constant; this file
// holds the runtime those closures execute against. Everything a run
// shows is part of the contract: results, cycle totals (down to float
// accumulation order), step counts, cast attribution, recorder call
// sequences and so journal bytes. engine_test.go checks it by running
// every differential case unboxed and boxed against golden digests
// (docs/interpreter.md).
//
// Storage is structure-of-arrays: a vframe keeps one slice per value
// lane (float64 primary, float64 shadow, int64, bool, *Array), all
// indexed by the declaration's slot. The shadow lane exists only when
// a numerics recorder is attached, so uninstrumented runs touch no
// shadow storage at all. Frames are pooled per procedure and own their
// local arrays. A recycled frame needs no clearing: every slot is a
// bound argument, an initialized local, or a scalar local that the
// body's leading assignments store before anything reads it
// (assignedFirst), and declInit re-initializes a local array in place,
// in the array the frame's previous activation left in its slot. So a
// call that binds no rebased assumed-shape dummy allocates nothing
// after its procedure's first activation. Module arrays and, emptied of
// their arrays, procedure frames come from the run's Pool, if it was
// built through one (pool.go), and go back to it on Release: a
// procedure's first activation in a run takes a frame that an earlier
// run left, of any procedure with the same frame shape.

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
	inits    []vinit // non-argument locals but those assigned first, in declaration order
	body     []vstmt
	inlined  bool
	numSlots int
	numCo    int // scalar dummies that are not intent(in): copy-out capacity
	shadow   bool
	pool     []*vframe
}

// frame returns an activation frame: one of cp's own, else one that an
// earlier run of p released (Pool.frame), else a new one. No clearing
// is needed, whichever procedure's frame it was: argument slots are
// written by the caller's binding plan, and every other slot by an init
// closure or, before anything reads it, by one of the body's leading
// assignments. A frame from the pool holds no array (vm.release).
func (cp *cproc) frame(p *Pool) *vframe {
	if n := len(cp.pool); n > 0 {
		fr := cp.pool[n-1]
		cp.pool = cp.pool[:n-1]
		return fr
	}
	if fr := p.frame(cp.frameKey()); fr != nil {
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

// frameKey is the shape of cp's frames.
func (cp *cproc) frameKey() frameKey { return frameKey{cp.numSlots, cp.numCo, cp.shadow} }

// cprog is a compiled program.
type cprog struct {
	prog     *ft.Program
	procs    []*cproc // by Procedure.Index
	main     *cproc
	modInits [][]vinit // by Module.Index, in declaration order
}

// vm is the mutable run state the compiled closures thread through:
// the cycle, cast and step accounting, the call stack, and module
// storage.
type vm struct {
	cp     *cprog
	model  *perfmodel.Model
	rec    *numerics.Recorder
	stdout io.Writer
	timers *gptl.Timers
	// regions caches each procedure's GPTL region handle by
	// Procedure.Index, filled on its first call (nil without Profile).
	// Nothing resets timers, so the handles stay valid for the run.
	regions []*gptl.Region

	gl   []*vframe // module storage by Module.Index
	pool *Pool     // where module arrays come from and go back to (nil: allocate)

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
	memFloor float64
	castCost float64
}

// newVM compiles the program and prepares its run state.
func newVM(prog *ft.Program, cfg *Config, an *perfmodel.Analysis, boxed bool, pool *Pool) *vm {
	model := cfg.Model
	m := &vm{
		pool:      pool,
		model:     model,
		rec:       cfg.Numerics,
		stdout:    cfg.Stdout,
		vecFactor: 1.0,
		budget:    cfg.CycleBudget,
		ctx:       cfg.Context,
		trap:      cfg.TrapNonFinite,
		memFloor:  model.MemVecFloor,
		castCost:  model.OpCost(perfmodel.OpCast, 8),
	}
	m.cp = compileProgram(prog, model, an, cfg.Numerics, boxed)
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
		m.regions = make([]*gptl.Region, len(prog.AllProcs))
	}
	return m
}

// run initializes module storage in declaration order, then main's
// locals, then runs main's body.
func (m *vm) run() (*Result, error) {
	for _, inits := range m.cp.modInits {
		for _, init := range inits {
			if err := init(m, nil); err != nil {
				return m.result(), err
			}
		}
	}
	cp := m.cp.main
	fr := cp.frame(m.pool)
	for _, init := range cp.inits {
		if err := init(m, fr); err != nil {
			return m.result(), err
		}
	}
	_, err := m.runStmts(fr, cp.body)
	cp.put(fr)
	return m.result(), err
}

// release hands every module array to the pool and clears its slot,
// then hands the pool every procedure frame. A frame goes back holding
// no array and no copy-out record, so the pool keeps neither the run's
// arrays nor the compile's argument plans alive.
func (m *vm) release() {
	for _, fr := range m.gl {
		m.pool.put(fr.a)
		clear(fr.a)
	}
	if m.pool == nil {
		return
	}
	for _, cp := range m.cp.procs {
		for _, fr := range cp.pool {
			clear(fr.a)
			clear(fr.co[:cap(fr.co)])
		}
		m.pool.putFrames(cp.frameKey(), cp.pool)
		cp.pool = nil
	}
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

// globalValue synthesizes the Value view of a module variable from
// lane storage (Interp.Global dispatches here). Without a recorder a
// real's shadow reads as its primary.
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

// checkBudget runs before every statement and loop iteration. It fails
// with FailTimeout once cycles reach the budget (the boundary is
// inclusive, see Config.CycleBudget), then counts one step, and polls
// the Context every cancelPollInterval steps.
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
// (an OpCost folded to a constant at compile time).
func (m *vm) charge(cost float64) { m.cycles += cost * m.vecFactor }

// chargeMem is charge with the memory-bandwidth floor applied to the
// vector discount: loads and stores are bandwidth-bound.
func (m *vm) chargeMem(cost float64) {
	f := m.vecFactor
	if f < m.memFloor {
		f = m.memFloor
	}
	m.cycles += cost * f
}

// chargeN charges n operations at an explicit factor, as
// cost*n*factor in that association order.
func (m *vm) chargeN(cost, n, factor float64) { m.cycles += cost * n * factor }

// chargeMemN is chargeN with the factor clamped to the memory floor.
func (m *vm) chargeMemN(cost, n, factor float64) {
	if factor < m.memFloor {
		factor = m.memFloor
	}
	m.cycles += cost * n * factor
}

// cast charges a kind conversion and attributes it to the procedure on
// top of the call stack (main-level casts stay unattributed).
// Attribution is dynamic because declaration-init expressions execute
// under their *caller's* attribution context.
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
// ("main" outside any call).
func (m *vm) procName() string {
	if k := len(m.curProc); k > 0 {
		return m.curProc[k-1].qname
	}
	return "main"
}
