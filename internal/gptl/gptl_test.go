package gptl

import (
	"math"
	"testing"
)

// fakeClock is a manually advanced clock.
type fakeClock struct{ now float64 }

func (c *fakeClock) clock() float64    { return c.now }
func (c *fakeClock) advance(u float64) { c.now += u }

// start and stop open and close the named region through its handle.
func start(tm *Timers, name string)      { tm.StartRegion(tm.Lookup(name)) }
func stop(tm *Timers, name string) error { return tm.StopRegion(tm.Lookup(name)) }

func TestSelfVsInclusive(t *testing.T) {
	c := &fakeClock{}
	tm := New(c.clock)
	start(tm, "outer")
	c.advance(10)
	start(tm, "inner")
	c.advance(5)
	if err := stop(tm, "inner"); err != nil {
		t.Fatal(err)
	}
	c.advance(2)
	if err := stop(tm, "outer"); err != nil {
		t.Fatal(err)
	}
	outer := tm.Region("outer")
	inner := tm.Region("inner")
	if outer.Self != 12 || outer.Inclusive != 17 {
		t.Errorf("outer self=%g incl=%g, want 12/17", outer.Self, outer.Inclusive)
	}
	if inner.Self != 5 || inner.Inclusive != 5 || inner.Calls != 1 {
		t.Errorf("inner self=%g incl=%g calls=%d", inner.Self, inner.Inclusive, inner.Calls)
	}
}

func TestRecursionInclusiveOnce(t *testing.T) {
	c := &fakeClock{}
	tm := New(c.clock)
	start(tm, "f")
	c.advance(1)
	start(tm, "f")
	c.advance(3)
	if err := stop(tm, "f"); err != nil {
		t.Fatal(err)
	}
	c.advance(1)
	if err := stop(tm, "f"); err != nil {
		t.Fatal(err)
	}
	f := tm.Region("f")
	if f.Calls != 2 {
		t.Errorf("calls = %d, want 2", f.Calls)
	}
	if f.Self != 5 {
		t.Errorf("self = %g, want 5", f.Self)
	}
	// Inclusive counts the outermost instance only: 5, not 8.
	if f.Inclusive != 5 {
		t.Errorf("inclusive = %g, want 5", f.Inclusive)
	}
	if f.MaxDepth != 2 {
		t.Errorf("max depth = %d, want 2", f.MaxDepth)
	}
}

func TestMismatchedStop(t *testing.T) {
	c := &fakeClock{}
	tm := New(c.clock)
	start(tm, "a")
	if err := stop(tm, "b"); err == nil {
		t.Error("Stop of wrong region did not error")
	}
	if err := stop(tm, "a"); err != nil {
		t.Errorf("correct Stop after failed Stop: %v", err)
	}
	if err := stop(tm, "a"); err == nil {
		t.Error("Stop with empty stack did not error")
	}
}

func TestRegionsSorted(t *testing.T) {
	c := &fakeClock{}
	tm := New(c.clock)
	for i, name := range []string{"small", "large", "mid"} {
		start(tm, name)
		c.advance(float64((i*7)%20 + 1))
		if err := stop(tm, name); err != nil {
			t.Fatal(err)
		}
	}
	rs := tm.Regions()
	for i := 1; i < len(rs); i++ {
		if rs[i-1].Self < rs[i].Self {
			t.Errorf("regions not sorted by self time: %v then %v", rs[i-1], rs[i])
		}
	}
}

func TestPerCall(t *testing.T) {
	c := &fakeClock{}
	tm := New(c.clock)
	for i := 0; i < 4; i++ {
		start(tm, "r")
		c.advance(3)
		if err := stop(tm, "r"); err != nil {
			t.Fatal(err)
		}
	}
	if pc := tm.Region("r").PerCall(); math.Abs(pc-3) > 1e-12 {
		t.Errorf("per-call = %g, want 3", pc)
	}
	if (&Region{}).PerCall() != 0 {
		t.Error("PerCall of empty region should be 0")
	}
}

func TestReportContainsRegions(t *testing.T) {
	c := &fakeClock{}
	tm := New(c.clock)
	start(tm, "kernel")
	c.advance(5)
	if err := stop(tm, "kernel"); err != nil {
		t.Fatal(err)
	}
	rep := tm.Report()
	if len(rep) == 0 || !containsLine(rep, "kernel") {
		t.Errorf("report missing region:\n%s", rep)
	}
}

func containsLine(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestRecursionSelfTimeThroughNestedRegion pins down self-time
// attribution when recursion re-enters a region through another one
// (f -> g -> f): each slice of wall time is charged to exactly one
// region's self, recursion inflates neither self nor inclusive, and
// the self times still telescope to the total.
func TestRecursionSelfTimeThroughNestedRegion(t *testing.T) {
	c := &fakeClock{}
	tm := New(c.clock)
	start(tm, "f")
	c.advance(2)
	start(tm, "g")
	c.advance(3)
	start(tm, "f") // recursive re-entry, two frames deep
	c.advance(4)
	if err := stop(tm, "f"); err != nil {
		t.Fatal(err)
	}
	c.advance(1)
	if err := stop(tm, "g"); err != nil {
		t.Fatal(err)
	}
	c.advance(2)
	if err := stop(tm, "f"); err != nil {
		t.Fatal(err)
	}

	f, g := tm.Region("f"), tm.Region("g")
	// f's self: 2 before g, 4 inside the recursive instance, 2 after g.
	if f.Self != 8 {
		t.Errorf("f self = %g, want 8", f.Self)
	}
	// f's inclusive counts the outermost instance only: the full 12,
	// not 12+4.
	if f.Inclusive != 12 || f.Calls != 2 {
		t.Errorf("f inclusive = %g calls = %d, want 12/2", f.Inclusive, f.Calls)
	}
	// g's self excludes the recursive f instance it hosted: 3+1.
	if g.Self != 4 || g.Inclusive != 8 {
		t.Errorf("g self = %g incl = %g, want 4/8", g.Self, g.Inclusive)
	}
	if got := f.Self + g.Self; got != 12 {
		t.Errorf("self times sum to %g, want the 12-unit total", got)
	}
	if f.MaxDepth != 3 || g.MaxDepth != 2 {
		t.Errorf("max depths f=%d g=%d, want 3/2", f.MaxDepth, g.MaxDepth)
	}
}

// TestFormatRegionsMatchesReport: the formatting core factored out for
// reuse (prose trace renders span phases with it) stays byte-identical
// to the Report method on the same regions.
func TestFormatRegionsMatchesReport(t *testing.T) {
	c := &fakeClock{}
	tm := New(c.clock)
	start(tm, "outer")
	c.advance(7)
	start(tm, "inner")
	c.advance(3)
	if err := stop(tm, "inner"); err != nil {
		t.Fatal(err)
	}
	if err := stop(tm, "outer"); err != nil {
		t.Fatal(err)
	}
	if got, want := FormatRegions(tm.Regions()), tm.Report(); got != want {
		t.Errorf("FormatRegions output diverged from Report:\n%q\nvs\n%q", got, want)
	}
	if FormatRegions(nil) == "" {
		t.Error("FormatRegions(nil) lost the header")
	}
}

// timerEvent is one step of a replayed timing sequence: open or close
// a region, then advance the clock.
type timerEvent struct {
	start bool
	name  string
	dt    float64
}

// handleEvents nests regions and recurses in one of them.
var handleEvents = []timerEvent{
	{true, "main", 1}, {true, "f", 2}, {true, "g", 3}, {true, "f", 4},
	{false, "f", 5}, {false, "g", 6}, {false, "f", 7}, {true, "g", 0.5},
	{false, "g", 0.25}, {true, "f", 1}, {true, "f", 2}, {true, "f", 3},
	{false, "f", 4}, {false, "f", 5}, {false, "f", 6}, {false, "main", 0},
}

// TestRegionHandlesMatchNames replays one event sequence twice, once
// looking each region up by name at every event and once through
// handles looked up in advance, and requires identical statistics.
func TestRegionHandlesMatchNames(t *testing.T) {
	replay := func(cached bool) *Timers {
		c := &fakeClock{}
		tm := New(c.clock)
		handles := map[string]*Region{}
		for _, ev := range handleEvents {
			if cached && handles[ev.name] == nil {
				handles[ev.name] = tm.Lookup(ev.name)
			}
		}
		for k, ev := range handleEvents {
			r := handles[ev.name]
			if !cached {
				r = tm.Lookup(ev.name)
			}
			var err error
			if ev.start {
				tm.StartRegion(r)
			} else {
				err = tm.StopRegion(r)
			}
			if err != nil {
				t.Fatalf("event %d (cached=%v): %v", k, cached, err)
			}
			c.advance(ev.dt)
		}
		return tm
	}
	byName, byHandle := replay(false), replay(true)
	if a, b := byName.Report(), byHandle.Report(); a != b {
		t.Errorf("reports diverged:\n--- by name ---\n%s--- by handle ---\n%s", a, b)
	}
	for _, name := range []string{"main", "f", "g"} {
		a, b := byName.Region(name), byHandle.Region(name)
		if a == nil || b == nil || *a != *b {
			t.Errorf("region %s diverged: by name %+v, by handle %+v", name, a, b)
		}
	}
	if f := byName.Region("f"); f.MaxDepth != 4 || f.Calls != 5 {
		t.Errorf("f: depth %d calls %d, want 4/5", f.MaxDepth, f.Calls)
	}
}

// TestStopRegionErrors pins StopRegion's error texts.
func TestStopRegionErrors(t *testing.T) {
	c := &fakeClock{}
	tm := New(c.clock)
	a, b := tm.Lookup("a"), tm.Lookup("b")
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	if got, want := errText(tm.StopRegion(a)), `gptl: Stop("a") with no open region`; got != want {
		t.Errorf("StopRegion with nothing open: %s, want %s", got, want)
	}
	tm.StartRegion(a)
	tm.StartRegion(b)
	if got, want := errText(tm.StopRegion(a)), `gptl: Stop("a") but innermost open region is "b"`; got != want {
		t.Errorf("StopRegion of an outer region: %s, want %s", got, want)
	}
	if err := tm.StopRegion(b); err != nil {
		t.Errorf("StopRegion of the innermost region: %v", err)
	}
	if err := tm.StopRegion(a); err != nil {
		t.Errorf("StopRegion after its child closed: %v", err)
	}
}

// TestLookupIsRegion: Lookup creates the region Region then returns.
func TestLookupIsRegion(t *testing.T) {
	tm := New((&fakeClock{}).clock)
	if tm.Region("r") != nil {
		t.Fatal("region exists before first use")
	}
	r := tm.Lookup("r")
	if got := tm.Region("r"); got != r {
		t.Errorf("Region(r) = %p, Lookup(r) = %p", got, r)
	}
	if tm.Lookup("r") != r {
		t.Error("a second Lookup returned a different region")
	}
}
