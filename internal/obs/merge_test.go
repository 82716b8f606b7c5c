package obs

import (
	"math"
	"math/rand"
	"testing"
)

// TestHistogramMergeMatchesConcatenation is the merge-correctness
// property behind the fleet's metric aggregation (Histogram.Merge of
// each worker's snapshot, as the coordinator does): merging N worker
// histograms must equal one histogram fed the concatenated observation
// streams. Count, min, max, and the power-of-two buckets are exact;
// sum (and therefore mean) tolerates float addition-order differences.
func TestHistogramMergeMatchesConcatenation(t *testing.T) {
	const name = "eval_run_ns"
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		combined := NewRegistry()
		workers := make([]*Registry, 3)
		for i := range workers {
			workers[i] = NewRegistry()
		}
		n := 50 + rng.Intn(200)
		for i := 0; i < n; i++ {
			// Wide dynamic range (sub-nanosecond to hours in ns) plus the
			// occasional non-positive observation for the sentinel bucket.
			v := math.Exp(rng.Float64()*30 - 2)
			if rng.Intn(20) == 0 {
				v = 0
			}
			workers[rng.Intn(len(workers))].Histogram(name).Observe(v)
			combined.Histogram(name).Observe(v)
		}
		merged := NewRegistry()
		for _, w := range workers {
			merged.Histogram(name).Merge(w.Snapshot().Histograms[name])
		}
		got := merged.Snapshot().Histograms[name]
		want := combined.Snapshot().Histograms[name]
		if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max {
			t.Errorf("seed %d: merged count/min/max = %d/%g/%g, want %d/%g/%g",
				seed, got.Count, got.Min, got.Max, want.Count, want.Min, want.Max)
		}
		if math.Abs(got.Sum-want.Sum) > 1e-9*math.Abs(want.Sum) {
			t.Errorf("seed %d: merged sum = %g, want %g", seed, got.Sum, want.Sum)
		}
		if math.Abs(got.Mean-want.Mean) > 1e-9*math.Abs(want.Mean) {
			t.Errorf("seed %d: merged mean = %g, want %g", seed, got.Mean, want.Mean)
		}
		if len(got.Buckets) != len(want.Buckets) {
			t.Errorf("seed %d: merged %d buckets, want %d", seed, len(got.Buckets), len(want.Buckets))
		}
		for e, cnt := range want.Buckets {
			if got.Buckets[e] != cnt {
				t.Errorf("seed %d: bucket 2^%d = %d, want %d", seed, e, got.Buckets[e], cnt)
			}
		}
	}
}

// TestMergeSnapshotsEmpty: merging an empty snapshot is a no-op. It
// gives an empty histogram no observations, changes nothing in a live
// one, and is safe on a nil histogram.
func TestMergeSnapshotsEmpty(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("empty").Merge(NewRegistry().Snapshot().Histograms["h"])
	if h := reg.Snapshot().Histograms["empty"]; h.Count != 0 || len(h.Buckets) != 0 {
		t.Errorf("merging nothing into an empty histogram produced %+v", h)
	}

	reg.Histogram("h").Observe(5)
	before := reg.Snapshot().Histograms["h"]
	reg.Histogram("h").Merge(HistogramSnapshot{})
	var nilHist *Histogram
	nilHist.Merge(before)
	after := reg.Snapshot().Histograms["h"]
	if before.Count != after.Count || before.Sum != after.Sum || before.Min != after.Min ||
		before.Max != after.Max || len(before.Buckets) != len(after.Buckets) {
		t.Errorf("Merge(empty) changed the histogram: %+v -> %+v", before, after)
	}
}

// TestChildOfRemoteParent: ChildOf hangs a span under a parent ID this
// tracer never created (the cross-process propagation case) and still
// derives deterministic, collision-free IDs per remote parent.
func TestChildOfRemoteParent(t *testing.T) {
	build := func() []SpanID {
		tr := NewTracer("remote")
		var ids []SpanID
		for i := 0; i < 3; i++ {
			sp := tr.ChildOf(SpanID(0xfeed), "worker.eval")
			ids = append(ids, sp.ID())
			sp.End()
		}
		sp := tr.ChildOf(0, "orphan") // zero parent: a root
		ids = append(ids, sp.ID())
		sp.End()
		return ids
	}
	a, b := build(), build()
	seen := map[SpanID]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("id[%d] differs across identical runs: %s vs %s", i, a[i], b[i])
		}
		if a[i] == 0 || seen[a[i]] {
			t.Errorf("id[%d] = %s zero or duplicated", i, a[i])
		}
		seen[a[i]] = true
	}
	tr := NewTracer("remote")
	sp := tr.ChildOf(SpanID(0xfeed), "worker.eval")
	sp.End()
	recs := tr.Drain()
	if len(recs) != 1 || recs[0].Parent != SpanID(0xfeed) {
		t.Fatalf("ChildOf record = %+v; want parent feed", recs)
	}
	if len(tr.Drain()) != 0 {
		t.Error("Drain did not remove the drained spans")
	}
}
