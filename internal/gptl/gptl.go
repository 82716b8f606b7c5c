// Package gptl provides nested named-region timing in the style of the
// General Purpose Timing Library used by the paper to collect hotspot CPU
// time (§III-E). Timers run against an abstract Clock so the same code
// times either wall-clock seconds or the machine model's simulated
// cycles; the precision tuner uses the latter.
//
// Like the real GPTL, instrumentation is not free, and the caller
// charges its cost: for each call it does not inline, the interpreter
// advances its simulated clock by the machine model's TimerOverhead
// before StartRegion and after StopRegion, modeling the 1–7% timing
// overhead reported in the paper. Charged there, both events land
// outside the region, in its caller.
package gptl

import (
	"fmt"
	"sort"
	"strings"
)

// Clock returns the current time in arbitrary units. It must be
// monotonically non-decreasing.
type Clock func() float64

// Region accumulates statistics for one named timer region. A *Region
// from Lookup is also a handle: StartRegion and StopRegion time it
// without hashing its name.
type Region struct {
	Name      string
	Calls     int64
	Self      float64 // time excluding child regions
	Inclusive float64 // time including child regions (outermost instances)
	MaxDepth  int

	active int // open instances (recursion depth)
}

// PerCall returns the average self time per call.
func (r *Region) PerCall() float64 {
	if r.Calls == 0 {
		return 0
	}
	return r.Self / float64(r.Calls)
}

type stackEntry struct {
	region *Region
	start  float64
	child  float64
}

// Timers is a set of nested region timers. The zero value is not usable;
// call New.
type Timers struct {
	clock   Clock
	regions map[string]*Region
	stack   []stackEntry
}

// New returns a timer set reading the given clock.
func New(clock Clock) *Timers {
	return &Timers{
		clock:   clock,
		regions: make(map[string]*Region),
	}
}

// Lookup returns the region named name, creating it on first use: the
// pointer Region(name) returns from then on. Lookup by itself opens
// nothing, but the region is listed by Regions and Report once created.
func (t *Timers) Lookup(name string) *Region {
	r, ok := t.regions[name]
	if !ok {
		r = &Region{Name: name}
		t.regions[name] = r
	}
	return r
}

// StartRegion opens r, a handle from Lookup. Regions nest; the same
// region may recurse.
func (t *Timers) StartRegion(r *Region) {
	r.active++
	if d := len(t.stack) + 1; d > r.MaxDepth {
		r.MaxDepth = d
	}
	t.stack = append(t.stack, stackEntry{region: r, start: t.clock()})
}

// StopRegion closes r, which must be the innermost open region.
func (t *Timers) StopRegion(r *Region) error {
	if len(t.stack) == 0 {
		return fmt.Errorf("gptl: Stop(%q) with no open region", r.Name)
	}
	top := t.stack[len(t.stack)-1]
	if top.region != r {
		return fmt.Errorf("gptl: Stop(%q) but innermost open region is %q", r.Name, top.region.Name)
	}
	t.stack = t.stack[:len(t.stack)-1]
	total := t.clock() - top.start
	r.Calls++
	r.Self += total - top.child
	r.active--
	if r.active == 0 {
		// Only outermost instances contribute to inclusive time, as in
		// GPTL's handling of recursion.
		r.Inclusive += total
	}
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += total
	}
	return nil
}

// Region returns the statistics for name, or nil if never looked up.
func (t *Timers) Region(name string) *Region { return t.regions[name] }

// Regions returns all regions sorted by descending self time.
func (t *Timers) Regions() []*Region {
	out := make([]*Region, 0, len(t.regions))
	for _, r := range t.regions {
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

// Report renders a GPTL-style table of the regions.
func (t *Timers) Report() string { return FormatRegions(t.Regions()) }

// FormatRegions renders regions as the GPTL-style table. It is the
// single formatting path for both Timers.Report and the trace-analysis
// summaries in `prose trace`; rows appear in the order given.
func FormatRegions(regions []*Region) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-42s %12s %16s %16s %14s\n", "region", "calls", "self", "inclusive", "self/call")
	for _, r := range regions {
		fmt.Fprintf(&sb, "%-42s %12d %16.0f %16.0f %14.2f\n",
			r.Name, r.Calls, r.Self, r.Inclusive, r.PerCall())
	}
	return sb.String()
}
