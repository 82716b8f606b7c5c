package transform

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	ft "repro/internal/fortran"
)

// InsertWrappers patches every real-kind argument mismatch recorded in
// info by generating wrapper procedures (paper Fig. 4) and redirecting
// the offending call sites to them. One wrapper is shared by all call
// sites with the same callee and actual kinds. It returns the number of
// wrapper procedures created. On an error it changes nothing.
//
// A wrapper declares its dummies with the *actual* kinds, copies
// mismatched arguments into temporaries of the callee's kinds (the
// assignment is the legal conversion point), invokes the callee, and
// copies intent(out)/intent(inout) temporaries back. Wrapper calls are
// never inlinable (they contain a call), so casting at a call boundary
// also defeats inlining — the MPAS-A flux-function slowdown mechanism.
// A wrapper is named after its callee and actual kinds, with a suffix
// if a procedure of any module already has that name, so that every
// call of it resolves to it alone. Its nodes come from one exactly
// sized slab per node and list type, as ft.Clone builds a variant's.
func InsertWrappers(prog *ft.Program, info *ft.Info) (int, error) {
	if len(info.Mismatches) == 0 {
		return 0, nil
	}
	b := wrapBuilder{prog: prog}
	// A call site's mismatches are one run of info.Mismatches.
	type site struct {
		cs *ft.CallStmt
		ce *ft.CallExpr
		w  int // index in b.ws
	}
	sites := make([]site, 0, len(info.Mismatches))
	for ms := info.Mismatches; len(ms) > 0; {
		n := 1
		for n < len(ms) && ms[n].CallStmt == ms[0].CallStmt && ms[n].CallExpr == ms[0].CallExpr {
			n++
		}
		w, err := b.plan(ms[:n])
		if err != nil {
			return 0, err
		}
		sites = append(sites, site{ms[0].CallStmt, ms[0].CallExpr, w})
		ms = ms[n:]
	}
	// Build every wrapper into its callee's module, unresolved: the
	// caller's final Analyze pass resolves and type-checks it.
	for i := range b.ws {
		w := b.wrap(&b.ws[i])
		w.Module.Procs = append(w.Module.Procs, w)
	}
	for _, s := range sites {
		name := b.ws[s.w].name
		if s.cs != nil {
			s.cs.Name, s.cs.Proc = name, nil
		} else {
			s.ce.Name, s.ce.Proc = name, nil
		}
	}
	return len(b.ws), nil
}

// wrapper is one wrapper to insert: its callee, the actual kind of each
// parameter, its name, and the counts of its declarations, copy-ins and
// copy-outs.
type wrapper struct {
	callee            *ft.Procedure
	kinds             []int
	name              string
	nDecls, nIn, nOut int
}

// converts reports whether a wrapper converts the argument of dummy d
// passed at kind k, through a temporary of d's kind.
func converts(d *ft.VarDecl, k int) bool { return d.Base == ft.TReal && k != d.Kind }

// wrapBuilder plans the wrappers of one InsertWrappers call, then builds
// them from one ft.Slab per node and list type, sized by counting what
// the plans take.
type wrapBuilder struct {
	prog  *ft.Program
	ws    []wrapper
	kinds []int  // the actual kinds of the call site being planned
	name  []byte // the wrapper name being tried

	procs    ft.Slab[ft.Procedure]
	decls    ft.Slab[ft.VarDecl]
	dims     ft.Slab[ft.Dim]
	refs     ft.Slab[ft.VarRef]
	ints     ft.Slab[ft.IntLit]
	calls    ft.Slab[ft.CallExpr]
	applies  ft.Slab[ft.ApplyExpr]
	assigns  ft.Slab[ft.AssignStmt]
	callSts  ft.Slab[ft.CallStmt]
	declList ft.Slab[*ft.VarDecl]
	stmtList ft.Slab[ft.Stmt]
	exprList ft.Slab[ft.Expr]
	strList  ft.Slab[string]
}

// plan returns the wrapper that a call site with the mismatches ms
// calls: one planned for an earlier site with the same callee and
// actual kinds, or a new one, counted into the slabs.
func (b *wrapBuilder) plan(ms []ft.Mismatch) (int, error) {
	callee := ms[0].Callee
	// Actual kind per parameter: default to the dummy's own kind,
	// overridden by the recorded mismatches.
	b.kinds = b.kinds[:0]
	for _, d := range callee.ParamDecl {
		k := 0
		if d != nil {
			k = d.Kind
		}
		b.kinds = append(b.kinds, k)
	}
	for _, m := range ms {
		b.kinds[m.ArgIndex] = m.From
	}
	for i := range b.ws {
		if b.ws[i].callee == callee && slices.Equal(b.ws[i].kinds, b.kinds) {
			return i, nil
		}
	}

	if callee.Module == nil {
		return 0, fmt.Errorf("transform: callee %s has no module", callee.QName())
	}
	for _, d := range callee.ParamDecl {
		if d == nil {
			return 0, fmt.Errorf("transform: %s has an undeclared dummy", callee.QName())
		}
	}
	switch callee.Kind {
	case ft.KSubroutine:
	case ft.KFunction:
		if callee.Result == nil {
			return 0, fmt.Errorf("transform: function %s has no result", callee.QName())
		}
	default:
		return 0, fmt.Errorf("transform: cannot wrap %s", callee.QName())
	}
	w := wrapper{callee: callee, kinds: slices.Clone(b.kinds), name: b.wrapperName(callee),
		nDecls: len(callee.Params)}

	// Count the nodes wrap takes: per parameter a dummy of the
	// callee's rank and a reference to it as the call's argument; per
	// converted parameter a temporary with a size() extent per
	// dimension, and a copy-in and copy-out assignment of two
	// references each as its intent needs them; then the call.
	np := len(callee.Params)
	b.procs.N++
	b.strList.N += np
	b.exprList.N += np
	b.refs.N += np
	for i, d := range callee.ParamDecl {
		rank := len(d.Dims)
		b.dims.N += rank
		if !converts(d, w.kinds[i]) {
			continue
		}
		w.nDecls++
		b.dims.N += rank
		b.calls.N += rank
		b.exprList.N += 2 * rank
		b.refs.N += rank
		b.ints.N += rank
		if d.Intent != ft.IntentOut {
			w.nIn++
		}
		if d.Intent == ft.IntentOut || d.Intent == ft.IntentInOut {
			w.nOut++
		}
	}
	b.assigns.N += w.nIn + w.nOut
	b.refs.N += 2 * (w.nIn + w.nOut)
	if callee.Kind == ft.KFunction {
		w.nDecls++ // the result
		b.assigns.N++
		b.refs.N++
		b.applies.N++
	} else {
		b.callSts.N++
	}
	b.decls.N += w.nDecls
	b.declList.N += w.nDecls
	b.stmtList.N += w.nIn + 1 + w.nOut
	b.ws = append(b.ws, w)
	return len(b.ws) - 1, nil
}

// wrapperName returns callee_wrapper_SIG, where SIG lists the actual
// kind of each real parameter and an x for any other, with the least
// suffix _2, _3, ... that makes it a name no procedure of any module,
// the main program or an earlier wrapper has.
func (b *wrapBuilder) wrapperName(callee *ft.Procedure) string {
	b.name = append(append(b.name[:0], callee.Name...), "_wrapper_"...)
	for i, d := range callee.ParamDecl {
		if d.Base != ft.TReal {
			b.name = append(b.name, 'x')
			continue
		}
		b.name = strconv.AppendInt(b.name, int64(b.kinds[i]), 10)
	}
	base := len(b.name)
	for i := 2; b.taken(b.name); i++ {
		b.name = strconv.AppendInt(append(b.name[:base], '_'), int64(i), 10)
	}
	return string(b.name)
}

// taken reports whether a procedure or a planned wrapper has the name.
func (b *wrapBuilder) taken(name []byte) bool {
	for _, m := range b.prog.Modules {
		for _, p := range m.Procs {
			if p.Name == string(name) {
				return true
			}
		}
	}
	if p := b.prog.Main; p != nil && p.Name == string(name) {
		return true
	}
	for _, w := range b.ws {
		if w.name == string(name) {
			return true
		}
	}
	return false
}

// wrap builds the wrapper that wr plans.
func (b *wrapBuilder) wrap(wr *wrapper) *ft.Procedure {
	callee := wr.callee
	pos := callee.Pos
	ref := func(n string) *ft.VarRef { return b.refs.Put(ft.VarRef{Pos: pos, Name: n}) }
	w := b.procs.Put(ft.Procedure{
		Pos:        pos,
		Kind:       callee.Kind,
		Name:       wr.name,
		Params:     b.strList.List(len(callee.Params)),
		Decls:      b.declList.List(wr.nDecls)[:0],
		Body:       b.stmtList.List(wr.nIn + 1 + wr.nOut),
		WrapperFor: callee.QName(),
		Module:     callee.Module,
	})
	copyIns, copyOuts := w.Body[:0], w.Body[wr.nIn+1:wr.nIn+1]
	callArgs := b.exprList.List(len(callee.Params))
	for i, dummy := range callee.ParamDecl {
		argName := wrapperVar(dummyNames, i)
		w.Params[i] = argName

		// Wrapper dummy: the actual's kind; arrays become assumed-shape
		// of the callee dummy's rank.
		wd := b.decls.Put(ft.VarDecl{
			Pos:    pos,
			Name:   argName,
			Base:   dummy.Base,
			Kind:   dummy.Kind,
			Dims:   b.dims.List(len(dummy.Dims)),
			Intent: dummy.Intent,
		})
		if dummy.Base == ft.TReal {
			wd.Kind = wr.kinds[i]
		}
		for d := range wd.Dims {
			wd.Dims[d] = ft.Dim{Assumed: true}
		}
		w.Decls = append(w.Decls, wd)

		if !converts(dummy, wr.kinds[i]) {
			callArgs[i] = ref(argName)
			continue
		}

		// Mismatched: temporary of the callee's kind.
		tmpName := wrapperVar(tempNames, i)
		td := b.decls.Put(ft.VarDecl{Pos: pos, Name: tmpName, Base: ft.TReal, Kind: dummy.Kind,
			Dims: b.dims.List(len(dummy.Dims))})
		for d := range td.Dims {
			args := b.exprList.List(2)
			args[0], args[1] = ref(argName), b.ints.Put(ft.IntLit{Pos: pos, Val: int64(d + 1)})
			td.Dims[d] = ft.Dim{Hi: b.calls.Put(ft.CallExpr{Pos: pos, Name: "size", Intrinsic: "size", Args: args})}
		}
		w.Decls = append(w.Decls, td)
		callArgs[i] = ref(tmpName)

		if dummy.Intent != ft.IntentOut {
			copyIns = append(copyIns, b.assigns.Put(ft.AssignStmt{Pos: pos, LHS: ref(tmpName), RHS: ref(argName)}))
		}
		if dummy.Intent == ft.IntentOut || dummy.Intent == ft.IntentInOut {
			copyOuts = append(copyOuts, b.assigns.Put(ft.AssignStmt{Pos: pos, LHS: ref(argName), RHS: ref(tmpName)}))
		}
	}

	if callee.Kind == ft.KSubroutine {
		w.Body[wr.nIn] = b.callSts.Put(ft.CallStmt{Pos: pos, Name: callee.Name, Args: callArgs})
		return w
	}
	w.ResultName = "wres"
	w.Decls = append(w.Decls, b.decls.Put(ft.VarDecl{
		Pos: pos, Name: "wres", Base: callee.Result.Base, Kind: callee.Result.Kind,
	}))
	w.Body[wr.nIn] = b.assigns.Put(ft.AssignStmt{
		Pos: pos,
		LHS: ref("wres"),
		RHS: b.applies.Put(ft.ApplyExpr{Pos: pos, Name: callee.Name, Args: callArgs}),
	})
	return w
}

// The prefixes of a wrapper's dummies (a1, a2, ...) and temporaries (t1,
// t2, ...).
const (
	dummyNames = iota
	tempNames
)

// wrapperVars holds the names of a wrapper's first dummies and
// temporaries, by prefix and parameter index.
var wrapperVars = func() (v [2][16]string) {
	for i := range v[0] {
		v[dummyNames][i] = "a" + strconv.Itoa(i+1)
		v[tempNames][i] = "t" + strconv.Itoa(i+1)
	}
	return v
}()

// wrapperVar names the dummy or temporary of parameter i.
func wrapperVar(prefix, i int) string {
	if i < len(wrapperVars[prefix]) {
		return wrapperVars[prefix][i]
	}
	return "at"[prefix:prefix+1] + strconv.Itoa(i+1)
}

// WrapperNames lists wrapper procedures present in a transformed
// program, in deterministic order (useful for tests and diffs). Only
// procedures actually generated by InsertWrappers are listed — a user
// procedure whose name merely looks like a wrapper's is not.
func WrapperNames(prog *ft.Program) []string {
	var out []string
	for _, m := range prog.Modules {
		for _, p := range m.Procs {
			if p.WrapperFor != "" {
				out = append(out, p.QName())
			}
		}
	}
	sort.Strings(out)
	return out
}

// WrapperMap maps each generated wrapper's qualified name to the
// qualified name of the procedure it wraps. This is the authoritative
// record for attributing a wrapper's profiled CPU time to its callee;
// name-based matching would misattribute user procedures that happen to
// contain a wrapper-like substring.
func WrapperMap(prog *ft.Program) map[string]string {
	out := make(map[string]string)
	for _, m := range prog.Modules {
		for _, p := range m.Procs {
			if p.WrapperFor != "" {
				out[p.QName()] = p.WrapperFor
			}
		}
	}
	return out
}
