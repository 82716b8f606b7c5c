// Package numerics implements shadow-execution floating-point
// diagnostics for the interpreter: every real value in a mixed-precision
// run carries a float64 shadow computed at full precision, and a
// Recorder aggregates, per source statement and per search atom, the
// divergence each operation introduces — rounding error, catastrophic
// cancellation (operand magnitudes collapsing onto error-bearing
// operands), discretization flips, control-flow divergence, and the
// provenance of the first non-finite value. It is the numerical twin of
// the timing observability in internal/obs: one instrumented run yields
// the per-operation error profile that guidance-only tools (ADAPT,
// Blame Analysis; paper §VII) build from, without the N one-at-a-time
// tuning runs of internal/blame.Analyze.
//
// Like the obs layer, the package is strictly out-of-band: a nil
// *Recorder is the no-op implementation, so uninstrumented interpreter
// runs carry no conditionals beyond one pointer test, make no extra
// allocations, and produce byte-identical journals (test-enforced by
// core.TestNumericsDoesNotPerturbJournal). A Recorder is single-use and
// not safe for concurrent use: each evaluation gets its own.
package numerics

import (
	"math"
)

// DefaultCancelBits is the default cancellation threshold: a
// subtraction whose operand magnitudes collapse by at least this many
// bits of magnitude counts as a cancellation. Eight bits loses a third
// of a float32 mantissa — enough that incoming rounding error is
// amplified into the leading digits (funarc's (t2-t1) at n=10000
// cancels ~11 bits every iteration).
const DefaultCancelBits = 8.0

// maxCancelBits caps the reported collapse for exact or total
// cancellations, keeping the profile JSON-representable (no +Inf).
const maxCancelBits = 54.0

// Options configures a Recorder.
type Options struct {
	// CancelBits is the cancellation threshold in bits of magnitude
	// collapse (0 = DefaultCancelBits).
	CancelBits float64
}

// StmtKey identifies one source statement: the procedure executing it
// and the source line. Lines are unique across procedures in a single
// FT file, but generated wrappers reuse their template positions, so
// the procedure is part of the key.
type StmtKey struct {
	Proc string
	Line int
}

// stmtStats accumulates per-statement error introduction.
type stmtStats struct {
	ops, assigns               int64
	roundSum, roundMax         float64
	maxDiv                     float64
	cancels, catastrophic      int64
	cancelBitsMax              float64
	branches, discrete, nonFin int64
}

// atomStats accumulates per-search-atom error at assignments to the
// atom (and, via the target stack, during evaluation of its RHS).
type atomStats struct {
	assigns               int64
	roundSum              float64
	maxDiv, divSum        float64
	cancels, catastrophic int64
}

// NonFiniteEvent is the provenance of the first Inf/NaN born in a run:
// the statement whose result went non-finite while its operands were
// still finite. ShadowFinite distinguishes a precision-induced blowup
// (the float64 shadow stayed finite — lowering caused it) from a
// genuine one present at full precision too.
type NonFiniteEvent struct {
	Proc         string `json:"proc"`
	Line         int    `json:"line"`
	Op           string `json:"op"`
	ShadowFinite bool   `json:"shadow_finite"`
}

// Recorder aggregates shadow-execution divergence for one interpreter
// run. All methods are nil-safe no-ops.
type Recorder struct {
	file       string
	cancelBits float64
	// cancelGuard = 2^(cancelBits-1): an add/sub whose magnitude collapse
	// ratio is below this is provably under the threshold (with a full
	// bit of margin over log rounding), so cancel() can skip the Log2.
	cancelGuard float64

	stmts   map[StmtKey]*stmtStats
	atoms   map[string]*atomStats
	targets []string // assignment-target atom stack

	ops, cancels, catastrophic      int64
	branches, discrete, nonFinCount int64
	maxDiv                          float64
	firstNF                         *NonFiniteEvent
}

// NewRecorder builds a recorder for one run of the named source file
// (the file name is used only for file:line rendering).
func NewRecorder(file string, o Options) *Recorder {
	cb := o.CancelBits
	if cb == 0 {
		cb = DefaultCancelBits
	}
	return &Recorder{
		file:        file,
		cancelBits:  cb,
		cancelGuard: math.Exp2(cb - 1),
		stmts:       make(map[StmtKey]*stmtStats),
		atoms:       make(map[string]*atomStats),
	}
}

func (r *Recorder) stmt(proc string, line int) *stmtStats {
	k := StmtKey{Proc: proc, Line: line}
	st := r.stmts[k]
	if st == nil {
		st = &stmtStats{}
		r.stmts[k] = st
	}
	return st
}

func (r *Recorder) atom(q string) *atomStats {
	at := r.atoms[q]
	if at == nil {
		at = &atomStats{}
		r.atoms[q] = at
	}
	return at
}

// PushTarget enters an assignment whose target is the named atom
// (empty for non-atom targets): rounding error born while evaluating
// the RHS is attributed to the atom. Must be paired with PopTarget.
func (r *Recorder) PushTarget(atom string) {
	if r == nil {
		return
	}
	r.targets = append(r.targets, atom)
}

// PopTarget leaves the innermost assignment context.
func (r *Recorder) PopTarget() {
	if r == nil || len(r.targets) == 0 {
		return
	}
	r.targets = r.targets[:len(r.targets)-1]
}

func (r *Recorder) target() string {
	if len(r.targets) == 0 {
		return ""
	}
	return r.targets[len(r.targets)-1]
}

// relErr is the relative difference between a and b, 0 when equal or
// when either is non-finite (non-finite flow is tracked separately, and
// the profile must stay JSON-representable).
func relErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	if !finite(a) || !finite(b) {
		return 0
	}
	// Hand-rolled max: a and b are finite here, so math.Max's NaN/±0
	// handling buys nothing and its call shows up in op-rate profiles.
	den := math.Abs(a)
	if bb := math.Abs(b); bb > den {
		den = bb
	}
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// finite reports v is neither NaN nor ±Inf: one exponent-field test
// instead of IsNaN+IsInf (this runs for every recorded operation).
func finite(v float64) bool {
	return math.Float64bits(v)&0x7ff0000000000000 != 0x7ff0000000000000
}

// Op records one binary arithmetic operation: x op y in the primary
// (mixed-precision) lane produced res, the same operation on the
// primary operands at float64 would have produced exact, and the shadow
// lane (full-precision history) produced shadow. xs/ys are the operand
// shadows, used to tell catastrophic cancellation (error-bearing
// operands) from benign exact cancellation.
func (r *Recorder) Op(proc string, line int, op byte, x, y, xs, ys, res, exact, shadow float64) {
	if r == nil {
		return
	}
	s := Site{r: r, key: StmtKey{Proc: proc, Line: line}}
	s.Op(op, x, y, xs, ys, res, exact, shadow)
}

// Intrinsic records one intrinsic call: f(x) produced res in the
// primary lane, exact is the unrounded float64 result on the primary
// argument, shadow the shadow-lane result.
func (r *Recorder) Intrinsic(proc string, line int, name string, x, res, exact, shadow float64) {
	if r == nil {
		return
	}
	s := Site{r: r, key: StmtKey{Proc: proc, Line: line}}
	s.Intrinsic(name, x, res, exact, shadow)
}

// note folds one operation's local rounding error and cumulative
// divergence into the statement, the global maximum, and the current
// assignment target.
func (r *Recorder) note(st *stmtStats, local, div float64) {
	st.roundSum += local
	if local > st.roundMax {
		st.roundMax = local
	}
	if div > st.maxDiv {
		st.maxDiv = div
	}
	if div > r.maxDiv {
		r.maxDiv = div
	}
	if local > 0 {
		// Target peek only when there is error to attribute: local == 0
		// is the overwhelming case in a well-conditioned run.
		if t := r.target(); t != "" {
			r.atom(t).roundSum += local
		}
	}
}

// cancel classifies an add/sub whose result magnitude collapsed
// relative to its operands. The collapse alone is a cancellation; it is
// *catastrophic* only when the operands carried divergence (shadow ≠
// primary), because then the cancelled leading digits promote that
// error into the result's leading digits. An exact cancellation of
// error-free operands (common in double-precision baselines) is benign.
func (r *Recorder) cancel(st *stmtStats, x, y, xs, ys, res, exact float64) {
	if !finite(x) || !finite(y) {
		return
	}
	mag := math.Abs(x)
	if ay := math.Abs(y); ay > mag {
		mag = ay
	}
	if mag == 0 {
		return
	}
	den := math.Abs(res)
	if ae := math.Abs(exact); ae > den {
		den = ae
	}
	if den > 0 && mag < den*r.cancelGuard {
		// Collapse ratio below 2^(cancelBits-1): bits would come out
		// under the threshold, proven by a multiply instead of a log.
		// The spare bit of margin keeps the cutoff decision identical
		// to the Log2 comparison below. This is the common case — most
		// adds don't cancel — so it carries the per-op cost.
		return
	}
	bits := maxCancelBits
	if den > 0 {
		bits = math.Log2(mag / den)
		if bits > maxCancelBits {
			bits = maxCancelBits
		}
	}
	if bits < r.cancelBits {
		return
	}
	r.cancels++
	st.cancels++
	if bits > st.cancelBitsMax {
		st.cancelBitsMax = bits
	}
	t := r.target()
	if t != "" {
		r.atom(t).cancels++
	}
	if opDiv := math.Max(relErr(x, xs), relErr(y, ys)); opDiv > 0 {
		r.catastrophic++
		st.catastrophic++
		if t != "" {
			r.atom(t).catastrophic++
		}
	}
}

// Assign records a store to a variable or array element: primary is the
// value stored (post conversion to the target kind), stored is the
// pre-conversion RHS value (their difference is the store's own
// rounding), shadow the shadow-lane value. atom is the search-atom
// qualified name of the target ("" when the target is not an atom).
func (r *Recorder) Assign(proc string, line int, atom string, primary, shadow, stored float64) {
	if r == nil {
		return
	}
	s := Site{r: r, key: StmtKey{Proc: proc, Line: line}, atom: atom}
	s.Assign(primary, shadow, stored)
}

// Branch records a comparison whose shadow-lane outcome differed from
// the primary outcome: the mixed-precision run is about to take a
// different control-flow path than the full-precision program would.
func (r *Recorder) Branch(proc string, line int) {
	if r == nil {
		return
	}
	s := Site{r: r, key: StmtKey{Proc: proc, Line: line}}
	s.Branch()
}

// Discretize records a real-to-integer intrinsic (nint/int/floor) whose
// primary and shadow lanes rounded to different integers — a
// discretization flip, the mechanism behind iteration-count divergence.
func (r *Recorder) Discretize(proc string, line int, primary, shadow int64) {
	if r == nil {
		return
	}
	s := Site{r: r, key: StmtKey{Proc: proc, Line: line}}
	s.Discretize(primary, shadow)
}

func (r *Recorder) bornNonFinite(st *stmtStats, proc string, line int, op string, shadow float64) {
	r.nonFinCount++
	st.nonFin++
	if r.firstNF == nil {
		r.firstNF = &NonFiniteEvent{
			Proc: proc, Line: line, Op: op,
			ShadowFinite: finite(shadow),
		}
	}
}

// Site is a per-callsite handle onto the recorder: a compiled
// interpreter that knows its (proc, line) — and, for assignments, the
// target atom — at compile time resolves the accumulators once instead
// of paying two map lookups per recorded event. The Site methods are
// the recorder's only event cores: each keyed Recorder method runs one
// on a Site built on its stack. The statement and atom map entries are
// created lazily at the first recorded event, so a profile never grows
// entries for never-executed sites. A nil *Site is a no-op, mirroring
// the nil *Recorder contract.
type Site struct {
	r    *Recorder
	key  StmtKey
	atom string
	st   *stmtStats
	at   *atomStats
}

// Site returns a callsite handle for one statement. Returns nil on a
// nil Recorder.
func (r *Recorder) Site(proc string, line int) *Site {
	if r == nil {
		return nil
	}
	return &Site{r: r, key: StmtKey{Proc: proc, Line: line}}
}

// AssignSite returns a callsite handle for an assignment to the given
// atom ("" for non-atom targets).
func (r *Recorder) AssignSite(proc string, line int, atom string) *Site {
	if r == nil {
		return nil
	}
	return &Site{r: r, key: StmtKey{Proc: proc, Line: line}, atom: atom}
}

func (s *Site) stats() *stmtStats {
	if s.st == nil {
		s.st = s.r.stmt(s.key.Proc, s.key.Line)
	}
	return s.st
}

// Op is Recorder.Op at this site: the per-operation hot path of every
// instrumented run.
func (s *Site) Op(op byte, x, y, xs, ys, res, exact, shadow float64) {
	if s == nil {
		return
	}
	r, st := s.r, s.stats()
	r.ops++
	st.ops++
	// When all three lanes agree, local and div are both zero and note
	// is an arithmetic no-op — skip it (and both relErr calls). This is
	// every op of a full-precision baseline run. NaN lanes fail the
	// equality and fall through to relErr, which treats them as 0.
	if res != exact || res != shadow {
		r.note(st, relErr(res, exact), relErr(res, shadow))
	}
	if op == '+' || op == '-' {
		r.cancel(st, x, y, xs, ys, res, exact)
	}
	if !finite(res) && finite(x) && finite(y) {
		r.bornNonFinite(st, s.key.Proc, s.key.Line, string(rune(op)), shadow)
	}
}

// Intrinsic is Recorder.Intrinsic at this site.
func (s *Site) Intrinsic(name string, x, res, exact, shadow float64) {
	if s == nil {
		return
	}
	r, st := s.r, s.stats()
	r.ops++
	st.ops++
	if res != exact || res != shadow {
		r.note(st, relErr(res, exact), relErr(res, shadow))
	}
	if !finite(res) && finite(x) {
		r.bornNonFinite(st, s.key.Proc, s.key.Line, name, shadow)
	}
}

// Assign is Recorder.Assign at this site, whose atom was fixed at site
// construction.
func (s *Site) Assign(primary, shadow, stored float64) {
	if s == nil {
		return
	}
	r, st := s.r, s.stats()
	st.assigns++
	var local, div float64
	if primary != stored || primary != shadow {
		local = relErr(primary, stored)
		div = relErr(primary, shadow)
		r.note(st, local, div)
	}
	if !finite(primary) && r.firstNF == nil {
		r.bornNonFinite(st, s.key.Proc, s.key.Line, "=", shadow)
	}
	if s.atom == "" {
		return
	}
	at := s.at
	if at == nil {
		at = r.atom(s.atom)
		s.at = at
	}
	at.assigns++
	at.roundSum += local
	at.divSum += div
	if div > at.maxDiv {
		at.maxDiv = div
	}
}

// Branch is Recorder.Branch at this site.
func (s *Site) Branch() {
	if s == nil {
		return
	}
	s.r.branches++
	s.stats().branches++
}

// Discretize is Recorder.Discretize at this site.
func (s *Site) Discretize(primary, shadow int64) {
	if s == nil || primary == shadow {
		return
	}
	s.r.discrete++
	s.stats().discrete++
}
