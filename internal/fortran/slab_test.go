package fortran

import (
	"slices"
	"testing"
)

// TestSlab checks the slab's chunks: none for a slab that takes
// nothing, a first chunk of N, and past it a chunk of the take plus a
// quarter of what the slab holds, with every list ending at its
// capacity and every earlier pointer still reading what was stored.
func TestSlab(t *testing.T) {
	var empty Slab[int]
	if allocs := testing.AllocsPerRun(10, func() {
		if empty.List(0) != nil {
			t.Error("List(0) is not nil")
		}
	}); allocs != 0 || empty.held != 0 {
		t.Errorf("a slab of N = 0 that takes nothing allocated %.0f times, %d elements", allocs, empty.held)
	}

	s := Slab[int]{N: 4}
	p := s.Put(1)
	l := s.List(3)
	copy(l, []int{2, 3, 4})
	chunk := func(size, held int) {
		t.Helper()
		if len(s.chunk) != size || s.held != held {
			t.Errorf("newest chunk %d of %d held, want %d of %d", len(s.chunk), s.held, size, held)
		}
	}
	chunk(4, 4)
	m := s.List(5) // past N: 5 + 4/4
	copy(m, []int{5, 6, 7, 8, 9})
	chunk(6, 10)
	q := s.Put(10) // the sixth element of that chunk
	r := s.Put(11) // past it: 1 + 10/4
	chunk(3, 13)
	for _, list := range [][]int{l, m} {
		if len(list) != cap(list) {
			t.Errorf("list of %d has capacity %d", len(list), cap(list))
		}
	}
	m = append(m, -1) // must not write over *q
	got, want := []int{*p, l[0], l[1], l[2], m[0], m[4], *q, *r}, []int{1, 2, 3, 4, 5, 9, 10, 11}
	if !slices.Equal(got, want) {
		t.Errorf("slab reads %v after two new chunks and an append, want %v", got, want)
	}

	first := Slab[int]{N: 2}
	first.List(3) // a first take past N: a chunk of the take
	if len(first.chunk) != 3 || first.held != 3 {
		t.Errorf("a first take of 3 past N = 2 allocated %d of %d held, want 3", len(first.chunk), first.held)
	}
}
