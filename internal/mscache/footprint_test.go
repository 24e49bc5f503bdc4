package mscache

import (
	"reflect"
	"strings"
	"testing"

	"dap/internal/ckpt"
)

// occupied counts the table's non-empty slots.
func occupied(f *footprintTable) int {
	n := 0
	for _, k := range f.keys {
		if k != 0 {
			n++
		}
	}
	return n
}

// TestFootprintTableBudget records far more distinct sectors than the entry
// budget: the table must never hold more than its budget, and n must count
// exactly the occupied slots.
func TestFootprintTableBudget(t *testing.T) {
	f := newFootprintTable(64)
	for s := uint64(0); s < 20_000; s++ {
		f.record(s*7919, s|1)
		if f.n > f.cap || f.n != occupied(f) {
			t.Fatalf("after %d records: n=%d occupied=%d cap=%d", s+1, f.n, occupied(f), f.cap)
		}
	}
	if f.n != f.cap {
		t.Fatalf("n=%d after 20000 records, want the budget %d", f.n, f.cap)
	}
}

// footprintBlob saves f into a one-section checkpoint and returns its reader.
func footprintBlob(t *testing.T, save func(*ckpt.Enc)) *ckpt.Dec {
	t.Helper()
	w := ckpt.NewWriter()
	save(w.Section("fp"))
	r, err := ckpt.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := r.Section("fp")
	return d
}

// TestFootprintTableRoundTrip saves a table that has evicted entries at its
// budget and restores it: the restored table must equal the original slot
// for slot and stay equal to it as both record the same further sectors.
func TestFootprintTableRoundTrip(t *testing.T) {
	orig := newFootprintTable(64)
	for s := uint64(0); s < 5_000; s++ {
		orig.record(s*104729, s)
	}
	got := newFootprintTable(64)
	got.record(12345, 1) // restore must replace, not merge
	if err := loadFootprint(footprintBlob(t, func(e *ckpt.Enc) { saveFootprint(e, orig) }), got); err != nil {
		t.Fatal(err)
	}
	for s := uint64(5_000); s < 6_000; s++ {
		if !reflect.DeepEqual(got, orig) {
			t.Fatalf("restored table diverges after %d further records", s-5_000)
		}
		orig.record(s*104729, s)
		got.record(s*104729, s)
	}
}

// TestFootprintTableLoadRejectsDamage feeds loadFootprint tables no saver
// writes: more entries than the budget, a slot outside the table, and a
// slot given twice.
func TestFootprintTableLoadRejectsDamage(t *testing.T) {
	entry := func(e *ckpt.Enc, slot uint32, sector uint64) {
		e.U32(slot)
		e.U64(sector)
		e.U64(1)
	}
	cases := map[string]func(*ckpt.Enc){
		"cap": func(e *ckpt.Enc) { e.U32(65) },
		"outside": func(e *ckpt.Enc) {
			e.U32(1)
			entry(e, 128, 5)
		},
		"twice": func(e *ckpt.Enc) {
			e.U32(2)
			entry(e, 3, 5)
			entry(e, 3, 6)
		},
	}
	for want, save := range cases {
		err := loadFootprint(footprintBlob(t, save), newFootprintTable(64))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v", want, err)
		}
	}
}
