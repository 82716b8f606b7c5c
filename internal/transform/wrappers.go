package transform

import (
	"fmt"
	"sort"
	"strings"

	ft "repro/internal/fortran"
)

// InsertWrappers patches every real-kind argument mismatch recorded in
// info by generating wrapper procedures (paper Fig. 4) and redirecting
// the offending call sites to them. One wrapper is shared by all call
// sites with the same callee and actual-kind signature. It returns the
// number of wrapper procedures created.
//
// A wrapper declares its dummies with the *actual* kinds, copies
// mismatched arguments into temporaries of the callee's kinds (the
// assignment is the legal conversion point), invokes the callee, and
// copies intent(out)/intent(inout) temporaries back. Wrapper calls are
// never inlinable (they contain a call), so casting at a call boundary
// also defeats inlining — the MPAS-A flux-function slowdown mechanism.
func InsertWrappers(prog *ft.Program, info *ft.Info) (int, error) {
	if len(info.Mismatches) == 0 {
		return 0, nil
	}

	// Group mismatches by call site.
	type siteKey struct {
		cs *ft.CallStmt
		ce *ft.CallExpr
	}
	sites := make(map[siteKey][]ft.Mismatch)
	var order []siteKey
	for _, m := range info.Mismatches {
		k := siteKey{m.CallStmt, m.CallExpr}
		if _, seen := sites[k]; !seen {
			order = append(order, k)
		}
		sites[k] = append(sites[k], m)
	}

	wrappers := make(map[string]*ft.Procedure) // callee qname + sig -> wrapper
	created := 0
	for _, k := range order {
		ms := sites[k]
		callee := ms[0].Callee

		// Actual kind per parameter: default to the dummy's own kind,
		// overridden by the recorded mismatches.
		actualKinds := make([]int, len(callee.Params))
		for i, d := range callee.ParamDecl {
			if d != nil {
				actualKinds[i] = d.Kind
			}
		}
		for _, m := range ms {
			actualKinds[m.ArgIndex] = m.From
		}

		sig := signature(callee, actualKinds)
		wkey := callee.QName() + "#" + sig
		w, ok := wrappers[wkey]
		if !ok {
			var err error
			w, err = buildWrapper(prog, callee, actualKinds, sig)
			if err != nil {
				return created, err
			}
			wrappers[wkey] = w
			created++
		}

		// Redirect the call site.
		if k.cs != nil {
			k.cs.Name = w.Name
			k.cs.Proc = nil
		} else {
			k.ce.Name = w.Name
			k.ce.Proc = nil
		}
	}
	return created, nil
}

// signature encodes the actual kinds of the real parameters, e.g. "4_to_8"
// for a single converted scalar, or "48x" style digests for longer lists.
func signature(callee *ft.Procedure, actualKinds []int) string {
	var sb strings.Builder
	for i, d := range callee.ParamDecl {
		if d == nil || d.Base != ft.TReal {
			sb.WriteByte('x')
			continue
		}
		fmt.Fprintf(&sb, "%d", actualKinds[i])
	}
	return sb.String()
}

// buildWrapper synthesizes the wrapper procedure and registers it in the
// callee's module. The generated AST is unresolved; the caller's final
// Analyze pass resolves and type-checks it.
func buildWrapper(prog *ft.Program, callee *ft.Procedure, actualKinds []int, sig string) (*ft.Procedure, error) {
	mod := callee.Module
	if mod == nil {
		return nil, fmt.Errorf("transform: callee %s has no module", callee.QName())
	}
	name := fmt.Sprintf("%s_wrapper_%s", callee.Name, sig)
	for i := 2; prog.ProcMap[mod.Name+"."+name] != nil; i++ {
		name = fmt.Sprintf("%s_wrapper_%s_%d", callee.Name, sig, i)
	}

	pos := callee.Pos
	w := &ft.Procedure{
		Pos:        pos,
		Kind:       callee.Kind,
		Name:       name,
		WrapperFor: callee.QName(),
	}

	ref := func(n string) *ft.VarRef { return &ft.VarRef{Pos: pos, Name: n} }

	var copyIns, copyOuts []ft.Stmt
	callArgs := make([]ft.Expr, len(callee.Params))
	for i, dummy := range callee.ParamDecl {
		if dummy == nil {
			return nil, fmt.Errorf("transform: %s has an undeclared dummy", callee.QName())
		}
		argName := fmt.Sprintf("a%d", i+1)
		w.Params = append(w.Params, argName)

		// Wrapper dummy: the actual's kind; arrays become assumed-shape
		// of the callee dummy's rank.
		wd := &ft.VarDecl{
			Pos:    pos,
			Name:   argName,
			Base:   dummy.Base,
			Kind:   dummy.Kind,
			Intent: dummy.Intent,
		}
		if dummy.Base == ft.TReal {
			wd.Kind = actualKinds[i]
		}
		for range dummy.Dims {
			wd.Dims = append(wd.Dims, ft.Dim{Assumed: true})
		}
		w.Decls = append(w.Decls, wd)

		if dummy.Base != ft.TReal || actualKinds[i] == dummy.Kind {
			callArgs[i] = ref(argName)
			continue
		}

		// Mismatched: temporary of the callee's kind.
		tmpName := fmt.Sprintf("t%d", i+1)
		td := &ft.VarDecl{Pos: pos, Name: tmpName, Base: ft.TReal, Kind: dummy.Kind}
		for d := range dummy.Dims {
			td.Dims = append(td.Dims, ft.Dim{Hi: &ft.CallExpr{
				Pos: pos, Name: "size", Intrinsic: "size",
				Args: []ft.Expr{ref(argName), &ft.IntLit{Pos: pos, Val: int64(d + 1)}},
			}})
		}
		w.Decls = append(w.Decls, td)
		callArgs[i] = ref(tmpName)

		if dummy.Intent != ft.IntentOut {
			copyIns = append(copyIns, &ft.AssignStmt{Pos: pos, LHS: ref(tmpName), RHS: ref(argName)})
		}
		if dummy.Intent == ft.IntentOut || dummy.Intent == ft.IntentInOut {
			copyOuts = append(copyOuts, &ft.AssignStmt{Pos: pos, LHS: ref(argName), RHS: ref(tmpName)})
		}
	}

	w.Body = append(w.Body, copyIns...)
	switch callee.Kind {
	case ft.KSubroutine:
		w.Body = append(w.Body, &ft.CallStmt{Pos: pos, Name: callee.Name, Args: callArgs})
	case ft.KFunction:
		if callee.Result == nil {
			return nil, fmt.Errorf("transform: function %s has no result", callee.QName())
		}
		w.ResultName = "wres"
		w.Decls = append(w.Decls, &ft.VarDecl{
			Pos: pos, Name: "wres", Base: callee.Result.Base, Kind: callee.Result.Kind,
		})
		w.Body = append(w.Body, &ft.AssignStmt{
			Pos: pos,
			LHS: ref("wres"),
			RHS: &ft.ApplyExpr{Pos: pos, Name: callee.Name, Args: callArgs},
		})
	default:
		return nil, fmt.Errorf("transform: cannot wrap %s", callee.QName())
	}
	w.Body = append(w.Body, copyOuts...)

	mod.Procs = append(mod.Procs, w)
	// Keep ProcMap current so subsequent name-uniqueness checks see it;
	// the final Analyze pass rebuilds everything.
	w.Module = mod
	prog.ProcMap[mod.Name+"."+name] = w
	return w, nil
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
