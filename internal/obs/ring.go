package obs

// Ring is a bounded buffer that keeps the newest entries: once it holds
// its capacity, each Push evicts the oldest entry and counts the eviction.
// It backs every evict-oldest observer buffer (flight recorder entries,
// sampler rows, partitioner decision records).
type Ring[T any] struct {
	buf     []T
	max     int
	head    int // oldest entry once the ring is full
	evicted uint64
}

// NewRing returns an empty ring retaining at most capacity (≥ 1) entries.
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{max: max(capacity, 1)}
}

// Push appends v. On a full ring it overwrites the oldest entry and returns
// that entry with evicted set.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
		return old, false
	}
	old = r.buf[r.head]
	r.buf[r.head] = v
	if r.head++; r.head == r.max {
		r.head = 0
	}
	r.evicted++
	return old, true
}

// Len returns the number of retained entries.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Evicted returns how many entries Push has evicted.
func (r *Ring[T]) Evicted() uint64 { return r.evicted }

// At returns the i-th retained entry, oldest first (0 ≤ i < Len). The
// pointer is valid until the next Push.
func (r *Ring[T]) At(i int) *T {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// Slice returns a copy of the retained entries, oldest first.
func (r *Ring[T]) Slice() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}
