package main

import (
	"math/rand"
	"slices"
	"sync"
	"time"
)

// The benchmark's host is shared. Load from other tenants slows it by
// tens of percent for tens of seconds to minutes at a time, so a run's
// wall times move with the minute it ran in more than with anything a run
// of ten seconds can average away. A gauge reads the host's speed
// instead: a fixed CPU kernel of the benchmark's own, timed before, during
// and after each tune. The tuner's code does not run in it. Each timed
// end-to-end metric is the measured time scaled by refGauge ÷ the tune's
// median reading: the time the tune would have taken on a host where the
// kernel takes refGauge. A change to the tuner moves the measured time and
// not the readings, so it shows in full.

// refGauge is about what one run of the gauge kernel takes on an idle
// 2.1 GHz Xeon vCPU.
const refGauge = 800 * time.Microsecond

const (
	// gaugeRuns is the number of kernel runs behind one reading, which is
	// their median.
	gaugeRuns = 3
	// gaugeEvery is the least time between two readings taken inside
	// Tuner.Run, after an evaluation.
	gaugeEvery = 250 * time.Millisecond
	// maxReadings bounds one tune's readings, so that readings taken
	// inside Run never allocate there.
	maxReadings = 4096
)

// gauge holds one tune's readings and the time taken to read them.
type gauge struct {
	mu       sync.Mutex
	kernels  []*kernel
	readings []float64 // seconds per kernel run
	spent    time.Duration
	last     time.Time
}

// newGauge returns a gauge that runs one kernel on each of ks at once: as
// many as the tune's evaluations run in parallel, since at par 2 the tune
// slows with the speed of both cores.
func newGauge(ks []*kernel) *gauge {
	return &gauge{kernels: ks, readings: make([]float64, 0, maxReadings)}
}

// read takes one reading: the mean over the kernels of each one's median
// run time. With one kernel it allocates nothing.
func (g *gauge) read() {
	g.mu.Lock()
	defer g.mu.Unlock()
	start := time.Now()
	var reading time.Duration
	if len(g.kernels) == 1 {
		reading = g.kernels[0].time()
	} else {
		times := make([]time.Duration, len(g.kernels))
		var wg sync.WaitGroup
		for i, k := range g.kernels {
			wg.Add(1)
			go func() {
				defer wg.Done()
				times[i] = k.time()
			}()
		}
		wg.Wait()
		for _, t := range times {
			reading += t / time.Duration(len(times))
		}
	}
	if len(g.readings) < cap(g.readings) {
		g.readings = append(g.readings, reading.Seconds())
	}
	g.last = time.Now()
	g.spent += g.last.Sub(start)
}

// readEvery takes a reading if none was taken in the last gaugeEvery.
func (g *gauge) readEvery() {
	g.mu.Lock()
	due := time.Since(g.last) >= gaugeEvery
	g.mu.Unlock()
	if due {
		g.read()
	}
}

// spentReading is the total time the readings have taken so far.
func (g *gauge) spentReading() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.spent
}

// scale is refGauge ÷ the median reading: the factor that takes a time
// measured alongside these readings to the reference host speed.
func (g *gauge) scale() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return refGauge.Seconds() / median(g.readings)
}

// kernel is the gauge's fixed CPU work. It mixes three kinds, so that it
// slows with the host the way the tuner does: integer hashing into an
// L2-sized table, sorting and map updates, and calls through a tree of
// closures, the shape of the interpreter's compiled code. Its inputs are
// fixed, each kernel has buffers of its own, and a run allocates nothing.
type kernel struct {
	table  []uint64
	sorted []int
	counts map[int]int
	env    []float64
	sink   float64
}

func newKernels(n int) []*kernel {
	ks := make([]*kernel, n)
	for i := range ks {
		ks[i] = &kernel{
			table:  make([]uint64, 1<<14),
			sorted: make([]int, len(kernelInts)),
			counts: make(map[int]int, 2048),
			env:    make([]float64, 8),
		}
	}
	return ks
}

var (
	kernelInts = func() []int {
		r := rand.New(rand.NewSource(1))
		xs := make([]int, 3000)
		for i := range xs {
			xs[i] = r.Int()
		}
		return xs
	}()
	kernelTrees = func() []exprNode {
		r := rand.New(rand.NewSource(2))
		ts := make([]exprNode, 16)
		for i := range ts {
			ts[i] = buildExpr(r, 7)
		}
		return ts
	}()
)

type exprNode func(env []float64) float64

func buildExpr(r *rand.Rand, depth int) exprNode {
	if depth == 0 {
		i := r.Intn(8)
		return func(env []float64) float64 { return env[i] }
	}
	a, b := buildExpr(r, depth-1), buildExpr(r, depth-1)
	switch r.Intn(4) {
	case 0:
		return func(env []float64) float64 { return a(env) + b(env) }
	case 1:
		return func(env []float64) float64 { return 0.5 * a(env) * b(env) }
	case 2:
		return func(env []float64) float64 {
			if x := a(env); x > 0.3 {
				return x - b(env)
			}
			return b(env)
		}
	default:
		return func(env []float64) float64 { return a(env) - 0.25*b(env) }
	}
}

// time returns the median time of gaugeRuns runs.
func (k *kernel) time() time.Duration {
	var d [gaugeRuns]time.Duration
	for i := range d {
		t0 := time.Now()
		k.run()
		d[i] = time.Since(t0)
	}
	slices.Sort(d[:])
	return d[gaugeRuns/2]
}

func (k *kernel) run() {
	h := uint64(1469598103934665603)
	for i := 0; i < 100_000; i++ {
		h = (h ^ uint64(i)) * 1099511628211
		k.table[h&(1<<14-1)] += h
	}

	copy(k.sorted, kernelInts)
	slices.Sort(k.sorted)
	clear(k.counts)
	for i, x := range k.sorted {
		k.counts[x&2047] += i
	}

	var f float64
	for it := 0; it < 6; it++ {
		for i := range k.env {
			k.env[i] = float64((7*it+13*i)%17) / 17
		}
		for _, t := range kernelTrees {
			f += t(k.env)
		}
	}
	k.sink += f + float64(h%7) + float64(len(k.counts))
}
