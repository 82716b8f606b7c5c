package interp

import (
	"sync"
	"unsafe"

	ft "repro/internal/fortran"
)

// Pool recycles module arrays and procedure frames between the runs its
// owner builds through it (Pool.New). A run takes each module array
// from the arrays an earlier run of the same pool released
// (Interp.Release), matched by rank and element count, and
// re-initializes it to exactly what NewArray returns: the taking
// declaration's kind and bounds, zeroed Data, and a zeroed Shadow with
// a recorder attached, nil without. So a tune whose runs declare the
// same module arrays allocates them once. Procedure-local arrays stay
// in their procedure's pooled frames (declInit) for the run, and a
// function's result array is always allocated.
//
// A procedure's first activation in a run takes a released frame of
// its shape (frameKey), whichever procedure of whichever program it
// served, so a tune's runs allocate a frame only for a shape or a call
// depth no earlier run reached. A released frame holds no array, so a
// local array is allocated on its procedure's first activation in each
// run.
//
// A Pool is safe for concurrent use, and its zero value is empty and
// ready. It keeps no state outside itself. It holds at most poolLimit
// bytes of released arrays and frames and drops the rest to the
// garbage collector, so runs whose bounds vary cannot grow it without
// limit.
type Pool struct {
	mu     sync.Mutex
	free   map[poolKey][]*Array
	frames map[frameKey][]*vframe
	held   int // bytes of Data and Shadow in free, and of the frames' lanes
	limit  int // byte cap; 0 means poolLimit
}

// poolKey is what a released array must share with a declaration to
// serve it.
type poolKey struct{ rank, size int }

// frameKey is what a released frame must share with a procedure to
// serve it: the slot count, the copy-out capacity and whether it has a
// shadow lane.
type frameKey struct {
	slots, co int
	shadow    bool
}

// poolLimit caps a Pool's held bytes: over 100 runs' worth of ADCIRC's
// 561 KB of module arrays, the most of any bundled model.
const poolLimit = 64 << 20

// New prepares an interpreter, as the package-level New does, whose
// run takes its module arrays from p. Release the Interp once its
// globals have been read, to return them.
func (p *Pool) New(prog *ft.Program, cfg Config) (*Interp, error) {
	return newInterp(prog, cfg, false, p)
}

// Clear drops every array and frame the pool holds to the garbage
// collector. The pool stays ready for use.
func (p *Pool) Clear() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free, p.frames, p.held = nil, nil, 0
}

// take returns an array equal to NewArray(kind, lo, ext), with a
// zeroed Shadow when shadow is set: a released one of ext's rank and
// element count, re-initialized, or a new one. A nil pool always
// allocates. ext must pass arrayFits.
func (p *Pool) take(kind int, lo, ext []int, shadow bool) *Array {
	if a := p.get(len(ext), elems(ext)); a != nil {
		a.Kind = kind
		if !shadow {
			a.Shadow = nil
		} else if a.Shadow == nil {
			a.Shadow = make([]float64, len(a.Data))
		}
		a.reinit(lo, ext, shadow) // cannot fail: a holds exactly ext's elements
		return a
	}
	a := NewArray(kind, lo, ext)
	if shadow {
		a.Shadow = make([]float64, len(a.Data))
	}
	return a
}

// get removes and returns a released array of the given rank and
// element count, or nil.
func (p *Pool) get(rank, n int) *Array {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	k := poolKey{rank, n}
	s := p.free[k]
	if len(s) == 0 {
		return nil
	}
	a := s[len(s)-1]
	s[len(s)-1] = nil
	p.free[k] = s[:len(s)-1]
	p.held -= arrayBytes(a)
	return a
}

// put returns the non-nil arrays of arrs to the pool, dropping each one
// that would take it over its byte cap. A nil pool drops them all.
func (p *Pool) put(arrs []*Array) {
	if p == nil {
		return
	}
	limit := p.byteCap()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = make(map[poolKey][]*Array)
	}
	for _, a := range arrs {
		if a == nil {
			continue
		}
		b := arrayBytes(a)
		if p.held+b > limit {
			continue
		}
		k := poolKey{len(a.Ext), len(a.Data)}
		p.free[k] = append(p.free[k], a)
		p.held += b
	}
}

// frame removes and returns a released frame of shape k, or nil. A nil
// pool holds none.
func (p *Pool) frame(k frameKey) *vframe {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.frames[k]
	if len(s) == 0 {
		return nil
	}
	fr := s[len(s)-1]
	s[len(s)-1] = nil
	p.frames[k] = s[:len(s)-1]
	p.held -= frameBytes(fr)
	return fr
}

// putFrames returns frames of shape k, which hold no array and no
// copy-out record, to the pool, dropping each one that would take it
// over its byte cap.
func (p *Pool) putFrames(k frameKey, frames []*vframe) {
	if len(frames) == 0 {
		return
	}
	limit := p.byteCap()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.frames == nil {
		p.frames = make(map[frameKey][]*vframe)
	}
	for _, fr := range frames {
		b := frameBytes(fr)
		if p.held+b > limit {
			continue
		}
		p.frames[k] = append(p.frames[k], fr)
		p.held += b
	}
}

// byteCap is the most bytes the pool holds.
func (p *Pool) byteCap() int {
	if p.limit == 0 {
		return poolLimit
	}
	return p.limit
}

// arrayBytes is the storage a released array holds.
func arrayBytes(a *Array) int { return 8 * (cap(a.Data) + cap(a.Shadow)) }

// frameBytes is the storage a released frame's lanes hold.
func frameBytes(fr *vframe) int {
	return 8*(cap(fr.f)+cap(fr.sh)+cap(fr.i)+cap(fr.a)) + cap(fr.b) +
		int(unsafe.Sizeof(coRec{}))*cap(fr.co)
}
