package obs

import (
	"expvar"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named counters, gauges, and histograms for one tuning
// run. Instruments are created on first use and live for the registry's
// lifetime; all operations are safe for concurrent use. A nil *Registry
// is the no-op registry: lookups return nil instruments whose methods
// are nil-safe no-ops.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	r.mu.Unlock()
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	r.mu.Unlock()
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	r.mu.Unlock()
	return h
}

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Max raises the gauge to v if v is larger than the current value.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram summarizes a stream of observations: count/sum/min/max plus
// exponential power-of-two buckets (bucket e counts samples v with
// 2^e ≤ v < 2^(e+1)), which merge exactly across processes — the fleet
// coordinator folds worker histograms into its own by elementwise
// bucket addition.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      float64
	min, max float64
	buckets  map[int]int64
}

// bucketNonPos is the bucket exponent collecting samples ≤ 0, which
// have no base-2 exponent of their own.
const bucketNonPos = -1 << 10

// bucketExp maps a sample to its power-of-two bucket exponent.
func bucketExp(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return bucketNonPos
	}
	e := math.Ilogb(v)
	if e < bucketNonPos+1 {
		return bucketNonPos + 1
	}
	if e > 1<<10 {
		return 1 << 10 // +Inf and friends
	}
	return e
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if h.buckets == nil {
		h.buckets = make(map[int]int64)
	}
	h.buckets[bucketExp(v)]++
	h.mu.Unlock()
}

// Merge folds a frozen summary (typically shipped from a fleet worker)
// into the histogram, as if h had observed the other histogram's whole
// stream: counts, sums, and buckets add; min/max widen. Merging an
// empty snapshot is a no-op. Nil-safe.
func (h *Histogram) Merge(s HistogramSnapshot) {
	if h == nil || s.Count == 0 {
		return
	}
	h.mu.Lock()
	if h.count == 0 || s.Min < h.min {
		h.min = s.Min
	}
	if h.count == 0 || s.Max > h.max {
		h.max = s.Max
	}
	h.count += s.Count
	h.sum += s.Sum
	if len(s.Buckets) > 0 && h.buckets == nil {
		h.buckets = make(map[int]int64, len(s.Buckets))
	}
	for e, n := range s.Buckets {
		h.buckets[e] += n
	}
	h.mu.Unlock()
}

// HistogramSnapshot is one histogram's frozen summary. Buckets is keyed
// by power-of-two exponent (JSON object keys are the decimal exponent).
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Min     float64       `json:"min"`
	Max     float64       `json:"max"`
	Mean    float64       `json:"mean"`
	Buckets map[int]int64 `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
	}
	if len(h.buckets) > 0 {
		s.Buckets = make(map[int]int64, len(h.buckets))
		for e, n := range h.buckets {
			s.Buckets[e] = n
		}
	}
	return s
}

// Quantiles is a histogram's approximate p50/p95/p99 summary,
// reconstructed from its power-of-two buckets.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Quantile returns the approximate q-quantile (q in [0,1]) of the
// observed stream. The bucket holding rank ceil(q·count) is found by
// cumulative count and the value interpolated linearly within its
// [2^e, 2^(e+1)) bounds, clamped to the observed min/max — so the
// estimate is exact at the extremes and within a factor of two
// in between, which is plenty for wait/run-time distributions. The
// same reconstruction works on merged (fleet-aggregated) snapshots,
// since buckets add exactly. With no bucket detail (a legacy snapshot)
// it falls back to the mean.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	if len(s.Buckets) == 0 {
		return s.Mean
	}
	exps := make([]int, 0, len(s.Buckets))
	for e := range s.Buckets {
		exps = append(exps, e)
	}
	sort.Ints(exps)
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for _, e := range exps {
		n := float64(s.Buckets[e])
		if cum+n < rank {
			cum += n
			continue
		}
		lo, hi := math.Ldexp(1, e), math.Ldexp(1, e+1)
		if e == bucketNonPos {
			lo, hi = math.Inf(-1), 0
		}
		lo = math.Max(lo, s.Min)
		hi = math.Min(hi, s.Max)
		if hi <= lo {
			return lo
		}
		return lo + (rank-cum)/n*(hi-lo)
	}
	return s.Max
}

// Quantiles returns the snapshot's approximate p50/p95/p99.
func (s HistogramSnapshot) Quantiles() Quantiles {
	return Quantiles{P50: s.Quantile(0.50), P95: s.Quantile(0.95), P99: s.Quantile(0.99)}
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry. Each instrument is read atomically;
// the snapshot as a whole is a consistent map of instrument names taken
// under the registry lock. Safe on a nil registry (returns zero value).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		histograms[k] = v
	}
	r.mu.Unlock()
	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			s.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for k, v := range gauges {
			s.Gauges[k] = v.Value()
		}
	}
	if len(histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(histograms))
		for k, v := range histograms {
			s.Histograms[k] = v.snapshot()
		}
	}
	return s
}

// Render formats the snapshot as sorted "name value" lines, each
// prefixed with indent — the shape embedded in the run report.
func (s Snapshot) Render(indent string) string {
	var sb strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&sb, "%s%-24s %d\n", indent, name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&sb, "%s%-24s %.4g\n", indent, name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		q := h.Quantiles()
		fmt.Fprintf(&sb, "%s%-24s n=%d mean=%.4g min=%.4g max=%.4g p50=%.4g p95=%.4g p99=%.4g\n",
			indent, name, h.Count, h.Mean, h.Min, h.Max, q.P50, q.P95, q.P99)
	}
	return sb.String()
}

// QuantileSummary returns each histogram's approximate p50/p95/p99
// keyed by name — the shape archived in a run manifest. Nil when the
// snapshot has no histograms.
func (s Snapshot) QuantileSummary() map[string]Quantiles {
	if len(s.Histograms) == 0 {
		return nil
	}
	out := make(map[string]Quantiles, len(s.Histograms))
	for k, h := range s.Histograms {
		out[k] = h.Quantiles()
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// expvar bridge: the process-global expvar namespace forbids duplicate
// names, so "prose_metrics" is published once and repointed at the most
// recently published registry (tests and successive runs swap freely).
var (
	expvarOnce sync.Once
	expvarReg  atomic.Pointer[Registry]
)

// PublishExpvar exposes the registry's snapshot as the expvar variable
// "prose_metrics" (served on /debug/vars). Later calls repoint the
// variable at the new registry. Nil-safe no-op.
func (r *Registry) PublishExpvar() {
	if r == nil {
		return
	}
	expvarReg.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish("prose_metrics", expvar.Func(func() any {
			return expvarReg.Load().Snapshot()
		}))
	})
}
