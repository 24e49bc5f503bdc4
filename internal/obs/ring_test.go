package obs

import (
	"reflect"
	"testing"
)

// TestRingEvictsOldest checks the ring keeps the newest entries in order,
// hands back each evicted entry and counts the evictions.
func TestRingEvictsOldest(t *testing.T) {
	r := NewRing[int](3)
	var evicted []int
	for i := 1; i <= 7; i++ {
		if old, ok := r.Push(i); ok {
			evicted = append(evicted, old)
		}
	}
	if r.Len() != 3 || r.Evicted() != 4 {
		t.Fatalf("Len=%d Evicted=%d, want 3 and 4", r.Len(), r.Evicted())
	}
	if !reflect.DeepEqual(evicted, []int{1, 2, 3, 4}) {
		t.Fatalf("evicted %v, want [1 2 3 4]", evicted)
	}
	if got := r.Slice(); !reflect.DeepEqual(got, []int{5, 6, 7}) {
		t.Fatalf("Slice = %v, want [5 6 7]", got)
	}
	for i, want := range []int{5, 6, 7} {
		if got := *r.At(i); got != want {
			t.Fatalf("At(%d) = %d, want %d", i, got, want)
		}
	}

	one := NewRing[string](0) // clamped to one entry
	one.Push("a")
	if old, ok := one.Push("b"); !ok || old != "a" || one.Len() != 1 || *one.At(0) != "b" {
		t.Fatalf("capacity-1 ring: old=%q ok=%v len=%d", old, ok, one.Len())
	}
}
