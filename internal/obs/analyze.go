package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/gptl"
)

// TraceNode is one span in a reconstructed span tree.
type TraceNode struct {
	Rec      SpanRecord
	Children []*TraceNode
}

// BuildTree links span records into trees. Spans whose parent is absent
// from the record set become roots (a trace normally has exactly one,
// the "tune" span). Roots and children are ordered by start, then ID.
func BuildTree(recs []SpanRecord) []*TraceNode {
	ordered := append([]SpanRecord(nil), recs...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Start != ordered[j].Start {
			return ordered[i].Start < ordered[j].Start
		}
		return ordered[i].ID < ordered[j].ID
	})
	nodes := make(map[SpanID]*TraceNode, len(ordered))
	all := make([]*TraceNode, len(ordered))
	for i, r := range ordered {
		n := &TraceNode{Rec: r}
		all[i] = n
		if _, dup := nodes[r.ID]; !dup {
			nodes[r.ID] = n
		}
	}
	var roots []*TraceNode
	for _, n := range all {
		if p, ok := nodes[n.Rec.Parent]; ok && n.Rec.Parent != 0 && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// PhaseRegions folds a span forest into per-phase (per span name)
// gptl regions, in microseconds. Self time is the span's duration minus
// the summed durations of its direct children, so summing Self over all
// regions telescopes to exactly the total root duration — the property
// `prose trace` relies on. Under parallel children whose durations
// overlap, a span's self time can go negative; the sum is still exact.
// Inclusive counts only outermost instances of a name, matching gptl's
// recursion handling; MaxDepth is the deepest tree depth a name appears
// at. Regions come back sorted by descending self time.
func PhaseRegions(roots []*TraceNode) []*gptl.Region {
	regions := make(map[string]*gptl.Region)
	var walk func(n *TraceNode, depth int, active map[string]int)
	walk = func(n *TraceNode, depth int, active map[string]int) {
		name := n.Rec.Name
		r := regions[name]
		if r == nil {
			r = &gptl.Region{Name: name}
			regions[name] = r
		}
		var child time.Duration
		for _, c := range n.Children {
			child += c.Rec.Dur
		}
		r.Calls++
		r.Self += float64(n.Rec.Dur-child) / float64(time.Microsecond)
		if active[name] == 0 {
			r.Inclusive += float64(n.Rec.Dur) / float64(time.Microsecond)
		}
		if depth > r.MaxDepth {
			r.MaxDepth = depth
		}
		active[name]++
		for _, c := range n.Children {
			walk(c, depth+1, active)
		}
		active[name]--
	}
	for _, root := range roots {
		walk(root, 1, make(map[string]int))
	}
	out := make([]*gptl.Region, 0, len(regions))
	for _, r := range regions {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// CriticalPath walks from root to leaf, at each level descending into
// the child that finishes last — the chain that bounded the phase's
// wall clock. Returns the path including root.
func CriticalPath(root *TraceNode) []*TraceNode {
	var path []*TraceNode
	for n := root; n != nil; {
		path = append(path, n)
		var last *TraceNode
		for _, c := range n.Children {
			if last == nil || c.Rec.End() > last.Rec.End() {
				last = c
			}
		}
		n = last
	}
	return path
}

// CountByName tallies spans per name — the accounting `prose trace`
// and the span/journal reconciliation tests use.
func CountByName(recs []SpanRecord) map[string]int {
	counts := make(map[string]int)
	for _, r := range recs {
		counts[r.Name]++
	}
	return counts
}

// RenderTree renders the span tree under n, indenting children, down to
// maxDepth levels (0 = unlimited). Wide fan-outs are elided after
// treeFanoutLimit children per node.
func RenderTree(n *TraceNode, maxDepth int) string {
	var sb strings.Builder
	renderTree(&sb, n, 0, maxDepth)
	return sb.String()
}

const treeFanoutLimit = 24

func renderTree(sb *strings.Builder, n *TraceNode, depth, maxDepth int) {
	fmt.Fprintf(sb, "%s%s %s", strings.Repeat("  ", depth), n.Rec.Name,
		n.Rec.Dur.Round(time.Microsecond))
	var attrs []string
	for _, a := range n.Rec.Attrs {
		attrs = append(attrs, a.Key+"="+a.Value)
	}
	if len(attrs) > 0 {
		fmt.Fprintf(sb, "  [%s]", strings.Join(attrs, " "))
	}
	sb.WriteByte('\n')
	if maxDepth > 0 && depth+1 >= maxDepth && len(n.Children) > 0 {
		fmt.Fprintf(sb, "%s… %d child span(s)\n",
			strings.Repeat("  ", depth+1), len(n.Children))
		return
	}
	for i, c := range n.Children {
		if i == treeFanoutLimit {
			fmt.Fprintf(sb, "%s… %d more\n",
				strings.Repeat("  ", depth+1), len(n.Children)-i)
			break
		}
		renderTree(sb, c, depth+1, maxDepth)
	}
}
