package interp

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	ft "repro/internal/fortran"
	"repro/internal/perfmodel"
)

// A run built through a Pool takes the module arrays an earlier run of
// the pool released. These tests pin that the reuse cannot be observed:
// compiled unboxed and boxed, with numerics off and on, a pooled run
// shows exactly what the same run through New shows.

// poolProgram declares the module arrays of the pool tests at real
// kind kind: rank 1 and rank 2, a lower bound other than 1, and two
// arrays of 12 elements, one of each rank. body is the main program's.
func poolProgram(kind int, body string) *ft.Program {
	src := fmt.Sprintf(`
module store
  implicit none
  real(kind=%d) :: a(7), c(-2:5), b(3, 4), w(12)
  real(kind=8) :: total
end module store

program p
  use store
  implicit none
  integer :: i, j
%s
end program p
`, kind, body)
	prog := ft.MustParse(src)
	ft.MustAnalyze(prog, ft.Options{})
	return prog
}

// poolFill writes a non-zero value to every element of every array.
// Each is a kind-8 expression, so a kind-4 array's shadow lane differs
// from its primary.
const poolFill = `
  do i = 1, 7
    a(i) = 0.1d0 * i + 1.0d0
  end do
  do i = -2, 5
    c(i) = 0.3d0 * i - 5.0d0
  end do
  do j = 1, 4
    do i = 1, 3
      b(i, j) = 0.7d0 * i + j
    end do
  end do
  do i = 1, 12
    w(i) = 1.0d0 / i
  end do
`

// poolRead reads every element before writing it: total sums their
// magnitudes, so it stays 0 only if every element reads zero, and a
// stale shadow lane shows as divergence.
const poolRead = `
  total = 0.0d0
  do i = 1, 7
    total = total + abs(a(i))
    a(i) = a(i) + 1.0d0
  end do
  do i = -2, 5
    total = total + abs(c(i))
    c(i) = c(i) + 2.0d0
  end do
  do j = 1, 4
    do i = 1, 3
      total = total + abs(b(i, j))
      b(i, j) = b(i, j) + 3.0d0
    end do
  end do
  do i = 1, 12
    total = total + abs(w(i))
    w(i) = w(i) + 4.0d0
  end do
`

// forPoolModes runs fn once per compile mode and numerics setting.
func forPoolModes(t *testing.T, fn func(t *testing.T, boxed, num bool)) {
	for _, boxed := range []bool{false, true} {
		for _, num := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/numerics=%v", compileName(boxed), num), func(t *testing.T) {
				fn(t, boxed, num)
			})
		}
	}
}

// moduleArrays returns a run's module arrays by qualified name.
func moduleArrays(t *testing.T, prog *ft.Program, in *Interp) map[string]*Array {
	t.Helper()
	out := make(map[string]*Array)
	for _, m := range prog.Modules {
		for _, d := range m.Decls {
			if !d.IsArray() {
				continue
			}
			v, ok := in.Global(d.QName())
			if !ok || v.Arr == nil {
				t.Fatalf("module array %s not allocated", d.QName())
			}
			out[d.QName()] = v.Arr
		}
	}
	return out
}

// reusedFrom fails unless every array of got is one of released.
func reusedFrom(t *testing.T, got, released map[string]*Array) {
	t.Helper()
	from := make(map[*Array]bool)
	for _, a := range released {
		from[a] = true
	}
	for q, a := range got {
		if !from[a] {
			t.Errorf("%s was allocated, not taken from the pool", q)
		}
	}
}

// checkPooledRead runs poolRead at kind readKind through pool, after
// poolFill at kind fillKind ran through it and was released, and checks
// it against poolRead through New: every element read zero, nothing
// diverged, and every array came from the fill run.
func checkPooledRead(t *testing.T, fillKind, readKind int, boxed, fillNum, readNum bool) {
	t.Helper()
	var pool Pool
	fill := poolProgram(fillKind, poolFill)
	first := runVM(t, fill, boxed, runOpts{numerics: fillNum, pool: &pool})
	if first.errStr != "" {
		t.Fatalf("fill run: %s", first.errStr)
	}
	filled := moduleArrays(t, fill, first.in)
	for q, a := range filled {
		for k, f := range a.Data {
			if f == 0 || fillNum && a.Shadow[k] == 0 {
				t.Fatalf("fill left %s[%d] zero (shadow %v)", q, k, a.Shadow)
			}
		}
	}
	first.in.Release()

	read := poolProgram(readKind, poolRead)
	o := runOpts{numerics: readNum}
	fresh := runVM(t, read, boxed, o)
	o.pool = &pool
	pooled := runVM(t, read, boxed, o)
	if v, _ := pooled.in.Global("store.total"); v.F != 0 || v.Sh != 0 {
		t.Errorf("pooled run read non-zero elements: total %g, shadow %g", v.F, v.Sh)
	}
	if readNum {
		if d := pooled.rec.Profile().MaxDivergence; d != 0 {
			t.Errorf("pooled run diverged: MaxDivergence %g", d)
		}
	}
	got := moduleArrays(t, read, pooled.in)
	for q, a := range got {
		if a.Kind != readKind {
			t.Errorf("%s has kind %d, declared %d", q, a.Kind, readKind)
		}
		if (a.Shadow != nil) != readNum {
			t.Errorf("%s: shadow lane present %v with numerics %v", q, a.Shadow != nil, readNum)
		}
	}
	reusedFrom(t, got, filled)
	diffRuns(t, read, readNum, pooled, fresh)
}

// TestPoolReadsZero fills every module array, shadow lane included,
// releases the run, and reads each array of a run of the same shapes
// through the same pool before writing it.
func TestPoolReadsZero(t *testing.T) {
	for _, kind := range []int{4, 8} {
		t.Run(fmt.Sprintf("kind=%d", kind), func(t *testing.T) {
			forPoolModes(t, func(t *testing.T, boxed, num bool) {
				checkPooledRead(t, kind, kind, boxed, num, num)
			})
		})
	}
}

// TestPoolShadowFlips runs a recorder run after a plain run, and a
// plain run after a recorder run: the taking run's arrays get a zeroed
// shadow lane, or none.
func TestPoolShadowFlips(t *testing.T) {
	forPoolModes(t, func(t *testing.T, boxed, num bool) {
		checkPooledRead(t, 8, 8, boxed, !num, num)
	})
}

// TestPoolKindChange has kind-4 declarations take a kind-8 run's
// arrays, and the reverse.
func TestPoolKindChange(t *testing.T) {
	forPoolModes(t, func(t *testing.T, boxed, num bool) {
		checkPooledRead(t, 8, 4, boxed, num, num)
		checkPooledRead(t, 4, 8, boxed, num, num)
	})
}

// TestPoolMatchesRank releases a rank-1 array of 12 elements: a rank-2
// array of 12 elements does not take it, and a rank-1 one does.
func TestPoolMatchesRank(t *testing.T) {
	decl := func(arr string) *ft.Program {
		prog := ft.MustParse(fmt.Sprintf(`
module store
  implicit none
  real(kind=8) :: %s
end module store

program p
  use store
  implicit none
  x = 1.0d0
end program p
`, arr))
		ft.MustAnalyze(prog, ft.Options{})
		return prog
	}
	rank1, rank2 := decl("x(12)"), decl("x(3, 4)")
	forPoolModes(t, func(t *testing.T, boxed, num bool) {
		var pool Pool
		o := runOpts{numerics: num, pool: &pool}
		first := runVM(t, rank1, boxed, o)
		released := moduleArrays(t, rank1, first.in)["store.x"]
		first.in.Release()

		second := runVM(t, rank2, boxed, o)
		if got := moduleArrays(t, rank2, second.in)["store.x"]; got == released {
			t.Fatal("a rank-2 declaration took a rank-1 array")
		}
		diffRuns(t, rank2, num, second, runVM(t, rank2, boxed, runOpts{numerics: num}))
		third := runVM(t, rank1, boxed, o)
		if got := moduleArrays(t, rank1, third.in)["store.x"]; got != released {
			t.Error("a rank-1 declaration of the same element count did not take the released array")
		}
		diffRuns(t, rank1, num, third, runVM(t, rank1, boxed, runOpts{numerics: num}))
	})
}

// TestPoolReleaseTwice releases a run twice: its arrays and frames go
// back once, so two later runs share none. After Release, Run, Global
// and GlobalFloats refuse.
func TestPoolReleaseTwice(t *testing.T) {
	prog := poolProgram(8, poolFill)
	forPoolModes(t, func(t *testing.T, boxed, num bool) {
		var pool Pool
		o := runOpts{numerics: num, pool: &pool}
		first := runVM(t, prog, boxed, o)
		want := 0
		for _, a := range moduleArrays(t, prog, first.in) {
			want += arrayBytes(a)
		}
		for _, fr := range runFrames(first.in) {
			want += frameBytes(fr)
		}
		first.in.Release()
		first.in.Release()
		if pool.held != want {
			t.Errorf("pool holds %d bytes after a double release, want %d", pool.held, want)
		}
		if res, err := first.in.Run(); res != nil || err == nil {
			t.Errorf("Run after Release = %v, %v; want no result and an error", res, err)
		}
		if _, ok := first.in.Global("store.total"); ok {
			t.Error("Global read a scalar after Release")
		}
		if _, ok := first.in.Global("store.a"); ok {
			t.Error("Global read an array after Release")
		}
		if _, ok := first.in.GlobalFloats("store.a"); ok {
			t.Error("GlobalFloats read after Release")
		}

		seen := make(map[*Array]string)
		for run := 0; run < 2; run++ {
			r := runVM(t, prog, boxed, o)
			for q, a := range moduleArrays(t, prog, r.in) {
				if prev, dup := seen[a]; dup {
					t.Errorf("run %d's %s shares its array with %s", run, q, prev)
				}
				seen[a] = fmt.Sprintf("run %d's %s", run, q)
			}
		}
	})
}

// runFrames returns the procedure frames a finished run holds.
func runFrames(in *Interp) []*vframe {
	var out []*vframe
	for _, cp := range in.vmr.cp.procs {
		out = append(out, cp.pool...)
	}
	return out
}

// TestPoolCap releases more bytes than the pool's cap: the pool ends
// at or under it, and holds what fits.
func TestPoolCap(t *testing.T) {
	prog := poolProgram(8, poolFill)
	// a(7) and c(-2:5) take 56 and 64 bytes, and b(3, 4) and w(12) 96
	// each; a shadow lane doubles them.
	for _, limit := range []int{1, 128, 255} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			forPoolModes(t, func(t *testing.T, boxed, num bool) {
				pool := Pool{limit: limit}
				o := runOpts{numerics: num, pool: &pool}
				for run := 0; run < 3; run++ {
					r := runVM(t, prog, boxed, o)
					r.in.Release()
					if pool.held > limit {
						t.Fatalf("after run %d the pool holds %d bytes, over its cap of %d", run, pool.held, limit)
					}
				}
				if limit >= 128 && pool.held == 0 {
					t.Errorf("the pool holds nothing under a cap of %d", limit)
				}
			})
		})
	}
}

// TestPoolClear empties a pool: it then holds nothing, and the next
// run allocates its arrays afresh.
func TestPoolClear(t *testing.T) {
	prog := poolProgram(8, poolFill)
	var pool Pool
	first := runVM(t, prog, false, runOpts{pool: &pool})
	released := moduleArrays(t, prog, first.in)
	first.in.Release()
	pool.Clear()
	if pool.held != 0 || len(pool.free) != 0 {
		t.Fatalf("a cleared pool holds %d bytes in %d lists", pool.held, len(pool.free))
	}
	second := runVM(t, prog, false, runOpts{pool: &pool})
	for q, a := range moduleArrays(t, prog, second.in) {
		if a == released[q] {
			t.Errorf("%s was taken from a cleared pool", q)
		}
	}
}

// runBytes returns the bytes and objects one Run of in allocates.
func runBytes(t *testing.T, in *Interp) (bytes, objects uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestPoolModelRunAllocs runs each bundled model the way a tuner
// evaluation does, through New and through a warmed pool: the pooled
// run allocates none of its module arrays, so it allocates at least
// their storage less, and no frame: every frame it runs in is one the
// warm run released. (MOM6's Run allocates 310,624 B in 184 objects
// through New, 302,176 B of it module arrays.)
func TestPoolModelRunAllocs(t *testing.T) {
	files, err := filepath.Glob("../models/src/*.ft")
	if err != nil || len(files) == 0 {
		t.Fatalf("no model sources found: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			prog := parseModelFile(t, f)
			cfg := Config{Model: perfmodel.Default(), TrapNonFinite: true, Profile: true}
			var pool Pool
			warm, err := pool.New(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.Run(); err != nil {
				t.Fatal(err)
			}
			released := moduleArrays(t, prog, warm)
			storage := uint64(0)
			for _, a := range released {
				storage += 8 * uint64(len(a.Data))
			}
			warm.Release()
			frames := pooledFrames(&pool)

			fresh, pooled := ^uint64(0), ^uint64(0)
			var freshObjs, pooledObjs uint64
			for try := 0; try < 3; try++ {
				in, err := New(prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if b, n := runBytes(t, in); b < fresh {
					fresh, freshObjs = b, n
				}
				in, err = pool.New(prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, n := runBytes(t, in)
				if b < pooled {
					pooled, pooledObjs = b, n
				}
				reusedFrom(t, moduleArrays(t, prog, in), released)
				for _, fr := range runFrames(in) {
					if !frames[fr] {
						t.Fatal("a warmed-pool run allocated a frame")
					}
				}
				in.Release()
			}
			if fresh < pooled+storage {
				t.Errorf("Run allocates %d B through New and %d B through a warmed pool: %d B less, want at least the %d B of module arrays",
					fresh, pooled, fresh-min(fresh, pooled), storage)
			}
			t.Logf("Run: %d B in %d objects through New, %d B in %d through a warmed pool (module arrays %d B)",
				fresh, freshObjs, pooled, pooledObjs, storage)
		})
	}
}
