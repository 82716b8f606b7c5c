package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/models"
)

// TestMPASBaselinePinned pins MPAS-A's baseline profile and its
// uniform-32 threshold, bit for bit, to what they were while the
// uniform-32 build ran after the baseline run instead of beside it.
func TestMPASBaselinePinned(t *testing.T) {
	tn, err := New(models.MPASA(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bl := tn.BaselineInfo()
	for _, c := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"TotalCycles", bl.TotalCycles, 0x41735952482e05ec},
		{"HotspotCycles", bl.HotspotCycles, 0x414369dbffee9c34},
		{"Threshold", bl.Threshold, 0x3fb19f56c80209e3},
	} {
		if bits := math.Float64bits(c.got); bits != c.want {
			t.Errorf("%s = %v (%#x), want %v (%#x)", c.name, c.got, bits, math.Float64frombits(c.want), c.want)
		}
	}
}

// trapSrc stores big*big, which overflows to +Inf at kind 4 but not at
// kind 8; with big at 1e300 it overflows at kind 8 too.
const trapSrc = `
module m
  implicit none
  real(kind=8) :: out(1)
  real(kind=8) :: big
contains
  subroutine run()
    big = BIG
    out(1) = big * big
  end subroutine run
end module m

program main
  use m
  implicit none
  call run()
end program main
`

// trapModel is a ThresholdUniform32 model of trapSrc with big = lit.
func trapModel(lit string) *models.Model {
	return &models.Model{
		Name:    "trap",
		Source:  strings.Replace(trapSrc, "BIG", lit, 1),
		Hotspot: "m",
		Extract: func(in *interp.Interp) ([]float64, error) {
			xs, ok := in.GlobalFloats("m.out")
			if !ok {
				return nil, fmt.Errorf("no m.out")
			}
			return append([]float64(nil), xs...), nil
		},
		Compare: func(base, v []float64) (float64, error) {
			return math.Abs(v[0]-base[0]) / math.Abs(base[0]), nil
		},
		ThresholdMode: models.ThresholdUniform32,
		NRuns:         1,
	}
}

// TestUniform32FailureLeavesNothingRunning checks set-up's errors when
// the uniform-32 run traps: alone, New reports it; when the baseline
// run traps too, New reports the baseline's error. Either way no
// goroutine outlives New.
func TestUniform32FailureLeavesNothingRunning(t *testing.T) {
	for _, c := range []struct{ lit, want string }{
		{"1.0d30", "core: uniform-32 run: "},
		{"1.0d300", "core: trap baseline run failed: "},
	} {
		before := runtime.NumGoroutine()
		_, err := New(trapModel(c.lit), Options{Seed: 1})
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("big = %s: New error = %v, want one starting %q", c.lit, err, c.want)
		}
		// The uniform-32 goroutine has handed over its result before New
		// returns; give it the moment it needs to exit.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("big = %s: %d goroutines after New, %d before", c.lit, n, before)
		}
	}
}
