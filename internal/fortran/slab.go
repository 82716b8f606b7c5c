package fortran

// Slab hands out one node or list type's elements from a few chunks, so
// a builder allocates per type, not per node. N sizes the first chunk,
// which the first Put or List allocates; a take past the chunk
// allocates a new one of the take plus a quarter of what the slab
// already holds. A chunk never moves, so a pointer into it stays valid.
// Clone and transform's wrapper insertion count exactly what they take,
// so each allocates one chunk per slab; the VM compile counts its
// program's nodes, and takes more only for a form it compiles twice.
type Slab[T any] struct {
	N     int
	chunk []T // the newest chunk
	used  int // the elements of chunk taken
	held  int // the elements of every chunk
}

// Put stores v in the next element and returns it.
func (s *Slab[T]) Put(v T) *T {
	if s.used == len(s.chunk) {
		s.grow(1)
	}
	p := &s.chunk[s.used]
	s.used++
	*p = v
	return p
}

// List takes the next k elements as a list of capacity k; nil for k = 0.
func (s *Slab[T]) List(k int) []T {
	if k == 0 {
		return nil
	}
	if s.used+k > len(s.chunk) {
		s.grow(k)
	}
	s.used += k
	return s.chunk[s.used-k : s.used : s.used]
}

// grow allocates a chunk for a take of k elements: the first chunk is
// N elements when they hold the take.
func (s *Slab[T]) grow(k int) {
	n := k + s.held/4
	if s.held == 0 && s.N >= k {
		n = s.N
	}
	s.chunk, s.used = make([]T, n), 0
	s.held += n
}
