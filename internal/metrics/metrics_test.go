package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRelError(t *testing.T) {
	cases := []struct{ base, v, want float64 }{
		{2, 1, 0.5},
		{2, 2, 0},
		{-2, -1, 0.5},
		{0, 3, 3},
		{0, 0, 0},
		{1, -1, 2},
	}
	for _, c := range cases {
		if got := RelError(c.base, c.v); got != c.want {
			t.Errorf("RelError(%g, %g) = %g, want %g", c.base, c.v, got, c.want)
		}
	}
}

func TestRelErrorProperties(t *testing.T) {
	f := func(base, v float64) bool {
		if math.IsNaN(base) || math.IsNaN(v) || math.IsInf(base, 0) || math.IsInf(v, 0) {
			return true
		}
		got := RelError(base, v)
		return got >= 0 && (base != v || got == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestL2(t *testing.T) {
	if got := L2([]float64{3, 4}); got != 5 {
		t.Errorf("L2(3,4) = %g", got)
	}
	if got := L2(nil); got != 0 {
		t.Errorf("L2(nil) = %g", got)
	}
}

func TestL2TriangleInequalityProperty(t *testing.T) {
	f := func(a, b [4]float64) bool {
		for _, x := range append(a[:], b[:]...) {
			if math.IsNaN(x) || math.Abs(x) > 1e150 {
				return true
			}
		}
		sum := make([]float64, 4)
		for i := range sum {
			sum[i] = a[i] + b[i]
		}
		return L2(sum) <= L2(a[:])+L2(b[:])+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRelErrSeriesAndL2RelErr(t *testing.T) {
	base := []float64{1, 2, 4}
	v := []float64{1, 1, 2}
	re, err := RelErrSeries(base, v)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.5, 0.5}
	for i := range want {
		if re[i] != want[i] {
			t.Errorf("re[%d] = %g, want %g", i, re[i], want[i])
		}
	}
	l2, err := L2RelErr(base, v)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l2-math.Sqrt(0.5)) > 1e-15 {
		t.Errorf("L2RelErr = %g", l2)
	}
	if _, err := RelErrSeries([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestMaxAbsPerRow(t *testing.T) {
	// Two frames of width 3.
	frames := []float64{1, -2, 0, -4, 1, 5}
	got, err := MaxAbsPerRow(frames, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-4, -2, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("col %d: %g, want %g", i, got[i], want[i])
		}
	}
	if _, err := MaxAbsPerRow(frames, 4); err == nil {
		t.Error("non-divisible width accepted")
	}
}

// TestMaxAbs checks the max-abs reduction itself: it keeps the sign of
// the most extreme value, and a column of no frames reduces to 0.
func TestMaxAbs(t *testing.T) {
	// Frames of width 1: the signed extreme of the whole series.
	if got, err := MaxAbsPerRow([]float64{1, -5, 3}, 1); err != nil || len(got) != 1 || got[0] != -5 {
		t.Errorf("MaxAbsPerRow(1, -5, 3) = %v, %v, want [-5] (signed extreme)", got, err)
	}
	// No frames: every column reduces to 0.
	if got, err := MaxAbsPerRow(nil, 2); err != nil || len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Errorf("MaxAbsPerRow(nil, 2) = %v, %v, want [0 0]", got, err)
	}
}

func TestMaxRelErrPerFrame(t *testing.T) {
	base := []float64{1, 2, 10, 20}
	v := []float64{1, 1, 10, 10}
	got, err := MaxRelErrPerFrame(base, v, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0.5 || got[1] != 0.5 {
		t.Errorf("got %v", got)
	}
	if _, err := MaxRelErrPerFrame(base, v[:2], 2); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := MaxRelErrPerFrame(base, v, 3); err == nil {
		t.Error("bad width accepted")
	}
}

func TestAnyNonFinite(t *testing.T) {
	if AnyNonFinite([]float64{1, 2, 3}) {
		t.Error("finite slice flagged")
	}
	if !AnyNonFinite([]float64{1, math.NaN()}) {
		t.Error("NaN missed")
	}
	if !AnyNonFinite([]float64{math.Inf(-1)}) {
		t.Error("-Inf missed")
	}
}

// TestRelErrorZeroBaselineContract pins the documented zero-baseline
// fallback: RelError(0, v) is the absolute difference |v| — an
// absolute quantity, not a relative one — and agreeing on zero is not
// an error.
func TestRelErrorZeroBaselineContract(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		return RelError(0, v) == math.Abs(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if got := RelError(0, 0); got != 0 {
		t.Errorf("RelError(0, 0) = %g, want 0", got)
	}
	// Negative zero baseline takes the same fallback (== compares equal).
	if got := RelError(math.Copysign(0, -1), 0.5); got != 0.5 {
		t.Errorf("RelError(-0, 0.5) = %g, want 0.5", got)
	}
}

// TestL2EmptySeriesContract pins the documented empty-series
// convention: the norm of an empty or nil series is 0, byte-for-byte
// indistinguishable from a series of exact zeros — so callers must
// check emptiness themselves when "no samples" must not pass as "no
// error".
func TestL2EmptySeriesContract(t *testing.T) {
	if got := L2([]float64{}); got != 0 {
		t.Errorf("L2(empty) = %g, want 0", got)
	}
	if L2([]float64{}) != L2([]float64{0, 0, 0}) {
		t.Error("empty series and all-zero series disagree — the documented ambiguity no longer holds")
	}
	if got, err := L2RelErr(nil, nil); err != nil || got != 0 {
		t.Errorf("L2RelErr(nil, nil) = %g, %v, want 0, nil", got, err)
	}
}
