package gptl_test

import (
	"fmt"

	"repro/internal/gptl"
)

// Timers run against an abstract clock; the tuner supplies the machine
// model's simulated-cycle counter. Lookup returns a region's handle once;
// StartRegion and StopRegion time it.
func Example() {
	var now float64
	clock := func() float64 { return now }

	t := gptl.New(clock)
	outer, inner := t.Lookup("atm_srk3"), t.Lookup("flux4")
	t.StartRegion(outer)
	now += 40
	t.StartRegion(inner)
	now += 10
	_ = t.StopRegion(inner)
	now += 50
	_ = t.StopRegion(outer)

	fmt.Printf("atm_srk3: self=%.0f inclusive=%.0f\n", outer.Self, outer.Inclusive)
	fmt.Printf("flux4:    self=%.0f calls=%d\n", inner.Self, inner.Calls)
	// Output:
	// atm_srk3: self=90 inclusive=100
	// flux4:    self=10 calls=1
}
