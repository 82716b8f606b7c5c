// Package transform generates mixed-precision program variants by
// source-level (AST-level) transformation, reproducing the paper's
// bespoke Fortran tool (§III-C):
//
//   - Apply clones the baseline AST and rewrites the kinds of the
//     targeted real variable declarations (the search atoms of §III-A);
//   - wrapper generation restores the Fortran rule that real kinds
//     convert only through assignment, by synthesizing
//     "*_wrapper_4_to_8"-style shim procedures at every mismatched call
//     site (paper Fig. 4) and maintaining the matching-edge invariant on
//     the parameter-passing flow graph;
//   - taint.go implements the taint-style program reduction the paper
//     uses to feed ROSE only the minimal subset of the model.
package transform

import (
	"fmt"
	"sort"
	"strings"

	ft "repro/internal/fortran"
)

// Atom is one tunable search atom: a real variable declaration.
type Atom struct {
	QName string
	Decl  *ft.VarDecl
}

// Atoms returns the search atoms of an analyzed program: every real,
// non-parameter variable declaration, optionally restricted to the named
// modules (the tuned hotspot). Order is deterministic (declaration order).
func Atoms(prog *ft.Program, modules ...string) []Atom {
	want := make(map[string]bool, len(modules))
	for _, m := range modules {
		want[m] = true
	}
	var out []Atom
	for _, d := range ft.RealDecls(prog) {
		if len(modules) > 0 {
			mod := d.InMod
			if mod == nil || !want[mod.Name] {
				continue
			}
		}
		out = append(out, Atom{QName: d.QName(), Decl: d})
	}
	return out
}

// Assignment maps atom qualified names to real kinds (4 or 8). Atoms not
// present keep their baseline kind.
type Assignment map[string]int

// Uniform builds an assignment giving every atom the same kind.
func Uniform(atoms []Atom, kind int) Assignment {
	a := make(Assignment, len(atoms))
	for _, at := range atoms {
		a[at.QName] = kind
	}
	return a
}

// Lowered counts atoms assigned kind 4.
func (a Assignment) Lowered() int {
	n := 0
	for _, k := range a {
		if k == 4 {
			n++
		}
	}
	return n
}

// Key renders the assignment canonically, for caching identical variants:
// the names of the atoms at kind 4, sorted, each followed by ";".
func (a Assignment) Key() string {
	names := make([]string, 0, len(a))
	size := 0
	for n, k := range a {
		if k == 4 {
			names = append(names, n)
			size += len(n) + 1
		}
	}
	sort.Strings(names)
	var b strings.Builder
	b.Grow(size)
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte(';')
	}
	return b.String()
}

// Result is a generated variant.
type Result struct {
	Prog     *ft.Program
	Info     *ft.Info
	Wrappers int // wrapper procedures inserted
	// WrapperOf maps each generated wrapper's qualified name to the
	// qualified name of the procedure it wraps (see WrapperMap).
	WrapperOf map[string]string
}

// Apply generates the mixed-precision variant of base (an analyzed
// program) described by a: it deep-clones the AST, rewrites declaration
// kinds, inserts parameter-passing wrappers where the new kinds violate
// Fortran's conversion rules, and re-analyzes strictly. base is never
// mutated, so variant generation may run in parallel.
func Apply(base *ft.Program, a Assignment) (*Result, error) {
	variant := ft.Clone(base)
	for q, kind := range a {
		d := atomDecl(variant, q)
		if d == nil {
			return nil, fmt.Errorf("transform: assignment names unknown atom %q", q)
		}
		if kind != 4 && kind != 8 {
			return nil, fmt.Errorf("transform: atom %q assigned unsupported kind %d", q, kind)
		}
		d.Kind = kind
	}
	// Analyze tolerantly to discover kind mismatches at call sites,
	// then patch them with wrappers until the flow graph invariant holds.
	info, err := ft.Analyze(variant, ft.Options{AllowKindMismatch: true})
	if err != nil {
		return nil, fmt.Errorf("transform: variant analysis: %w", err)
	}
	wrappers, err := InsertWrappers(variant, info)
	if err != nil {
		return nil, err
	}
	// Final strict analysis: the variant must now be a legal program.
	info, err = ft.Analyze(variant, ft.Options{})
	if err != nil {
		return nil, fmt.Errorf("transform: variant is malformed after wrapper insertion: %w", err)
	}
	return &Result{Prog: variant, Info: info, Wrappers: wrappers, WrapperOf: WrapperMap(variant)}, nil
}

// atomDecl returns the search atom of prog whose qualified name
// (VarDecl.QName) is q, or nil: a real, non-parameter declaration of
// module m ("m.x"), of procedure p of module m ("m.p.x"), or of the
// main program ("main.x"). prog need not be analyzed, so Apply can
// resolve atoms on a fresh clone. Analysis refuses a program in which
// two declarations would share a qualified name, so the first match is
// the only one.
func atomDecl(prog *ft.Program, q string) *ft.VarDecl {
	head, rest, ok := strings.Cut(q, ".")
	if !ok {
		return nil
	}
	find := func(decls []*ft.VarDecl, name string) *ft.VarDecl {
		for _, d := range decls {
			if d.Name == name && d.Base == ft.TReal && !d.IsParam {
				return d
			}
		}
		return nil
	}
	if p := prog.Main; p != nil && p.Name == head {
		return find(p.Decls, rest)
	}
	for _, m := range prog.Modules {
		if m.Name != head {
			continue
		}
		proc, name, inProc := strings.Cut(rest, ".")
		if !inProc {
			return find(m.Decls, rest)
		}
		for _, p := range m.Procs {
			if p.Name == proc {
				return find(p.Decls, name)
			}
		}
		return nil
	}
	return nil
}

// KindOf reports the effective kind of atom q under a, given its
// baseline declaration kind.
func (a Assignment) KindOf(q string, baseline int) int {
	if k, ok := a[q]; ok {
		return k
	}
	return baseline
}
