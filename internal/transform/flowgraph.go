package transform

import (
	"fmt"
	"sort"
	"strings"

	ft "repro/internal/fortran"
)

// FlowGraph is the interprocedural floating-point parameter-passing
// graph of §III-C: nodes are real variables annotated with their kinds;
// edges connect an actual argument's variable to the callee's dummy at
// each call site. After a precision assignment is applied and wrappers
// are inserted, every edge must connect nodes of matching kinds (the
// invariant the wrapper generator maintains).
type FlowGraph struct {
	Nodes []*FlowNode
	Edges []FlowEdge

	byDecl map[*ft.VarDecl]*FlowNode
}

// FlowNode is one real variable.
type FlowNode struct {
	QName   string
	Kind    int
	IsArray bool
	Decl    *ft.VarDecl
}

// FlowEdge is one instance of parameter passing.
type FlowEdge struct {
	From, To *FlowNode // actual's variable -> dummy
	Pos      ft.Pos
	Caller   string
	Callee   string
	// Elems is the dummy's element count if statically known (product
	// of constant dims), else 1 for scalars and 0 for unknown arrays.
	// The §V cost model weighs mismatch penalties by data volume.
	Elems int
}

// Matching reports whether the edge endpoints have equal kinds.
func (e FlowEdge) Matching() bool { return e.From.Kind == e.To.Kind }

// BuildFlowGraph constructs the graph from an analyzed program.
func BuildFlowGraph(prog *ft.Program, info *ft.Info) *FlowGraph {
	g := &FlowGraph{byDecl: make(map[*ft.VarDecl]*FlowNode)}
	for _, d := range ft.RealDecls(prog) {
		n := &FlowNode{QName: d.QName(), Kind: d.Kind, IsArray: d.IsArray(), Decl: d}
		g.Nodes = append(g.Nodes, n)
		g.byDecl[d] = n
	}
	for _, cs := range info.CallSites {
		for i, arg := range cs.Args {
			if i >= len(cs.Callee.ParamDecl) {
				break
			}
			dummy := cs.Callee.ParamDecl[i]
			if dummy == nil || dummy.Base != ft.TReal {
				continue
			}
			var src *ft.VarDecl
			switch a := arg.(type) {
			case *ft.VarRef:
				src = a.Decl
			case *ft.IndexExpr:
				src = a.Arr.Decl
			default:
				continue // literals and expressions carry no variable node
			}
			from := g.byDecl[src]
			to := g.byDecl[dummy]
			if from == nil || to == nil {
				continue
			}
			caller := "<main>"
			if cs.Caller != nil {
				caller = cs.Caller.QName()
			}
			g.Edges = append(g.Edges, FlowEdge{
				From: from, To: to, Pos: cs.Pos,
				Caller: caller, Callee: cs.Callee.QName(),
				Elems: staticElems(dummy),
			})
		}
	}
	return g
}

// staticElems evaluates a declaration's element count when all dims are
// integer literals (0 when unknown, 1 for scalars).
func staticElems(d *ft.VarDecl) int {
	if !d.IsArray() {
		return 1
	}
	n := 1
	for _, dim := range d.Dims {
		if dim.Assumed {
			return 0
		}
		lo := int64(1)
		if dim.Lo != nil {
			l, ok := constInt(dim.Lo)
			if !ok {
				return 0
			}
			lo = l
		}
		hi, ok := constInt(dim.Hi)
		if !ok {
			return 0
		}
		n *= int(hi - lo + 1)
	}
	return n
}

func constInt(e ft.Expr) (int64, bool) {
	switch e := e.(type) {
	case *ft.IntLit:
		return e.Val, true
	case *ft.VarRef:
		if e.Decl != nil && e.Decl.IsParam && e.Decl.Base == ft.TInteger {
			if lit, ok := e.Decl.Init.(*ft.IntLit); ok {
				return lit.Val, true
			}
		}
	case *ft.BinExpr:
		x, okx := constInt(e.X)
		y, oky := constInt(e.Y)
		if okx && oky {
			switch e.Op {
			case ft.PLUS:
				return x + y, true
			case ft.MINUS:
				return x - y, true
			case ft.STAR:
				return x * y, true
			}
		}
	}
	return 0, false
}

// MismatchedEdges returns edges violating the matching invariant.
func (g *FlowGraph) MismatchedEdges() []FlowEdge {
	var out []FlowEdge
	for _, e := range g.Edges {
		if !e.Matching() {
			out = append(out, e)
		}
	}
	return out
}

// String renders the graph compactly for debugging and tests.
func (g *FlowGraph) String() string {
	var sb strings.Builder
	edges := append([]FlowEdge(nil), g.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From.QName != edges[j].From.QName {
			return edges[i].From.QName < edges[j].From.QName
		}
		return edges[i].To.QName < edges[j].To.QName
	})
	for _, e := range edges {
		mark := "=="
		if !e.Matching() {
			mark = "!="
		}
		fmt.Fprintf(&sb, "%s(k%d) %s %s(k%d)\n",
			e.From.QName, e.From.Kind, mark, e.To.QName, e.To.Kind)
	}
	return sb.String()
}
