// Package mscache implements the three memory-side cache architectures the
// paper evaluates DAP on: the die-stacked sectored DRAM cache (Section
// VI-A), the Alloy cache (Section VI-B) and the sectored eDRAM cache
// (Section VI-C). Each controller implements cpu.Backend, owns its DRAM
// array device(s), shares the main-memory device, collects the per-window
// demand counts DAP learns from, and consults a core.Partitioner at every
// technique application point.
package mscache

import (
	"math/bits"

	"dap/internal/cpu"
	"dap/internal/mem"
	"dap/internal/stats"
)

// Controller is a memory-side cache plus its steering logic.
type Controller interface {
	cpu.Backend
	// MSStats exposes the memory-side cache statistics.
	MSStats() *stats.MemSideStats
	// CacheCAS returns the CAS operations performed by the cache array so
	// far (main-memory CAS comes from the shared device).
	CacheCAS() uint64
	// ResetStats clears statistics after warmup.
	ResetStats()
}

// footprintTable is the history table of the footprint prefetcher [26]:
// it remembers which blocks of a sector were touched during its last
// residency so that the next allocation of that sector fetches only those.
// footprintTable is an open-addressed hash table from sector to footprint
// mask: keys holds sector+1 (0 marks an empty slot), vals the masks, and
// the table is sized to twice the entry budget so linear probes terminate
// at an empty slot. Two flat slices replace the previous Go map: building
// a controller costs two allocations instead of a bucket tree, lookups
// never hash through the runtime, and the at-capacity eviction choice is
// deterministic (the new sector's home slot) where map iteration order was
// not.
type footprintTable struct {
	keys []uint64 // sector+1; 0 marks an empty slot
	vals []uint64
	mask uint64
	n    int // occupied slots
	cap  int // entry budget
}

func newFootprintTable(capacity int) *footprintTable {
	sz := 2
	for sz < 2*capacity {
		sz <<= 1
	}
	return &footprintTable{
		keys: make([]uint64, sz),
		vals: make([]uint64, sz),
		mask: uint64(sz - 1),
		cap:  capacity,
	}
}

// home returns a sector's preferred slot (Fibonacci hashing: multiply by
// the 64-bit golden ratio and fold the halves so high entropy reaches the
// low bits the mask keeps).
func (f *footprintTable) home(sector uint64) uint64 {
	h := sector * 0x9e3779b97f4a7c15
	return (h ^ h>>32) & f.mask
}

// predict returns the footprint recorded for a sector (0 when unknown).
func (f *footprintTable) predict(sector uint64) uint64 {
	k := sector + 1
	i := f.home(sector)
	for range f.keys {
		switch f.keys[i] {
		case k:
			return f.vals[i]
		case 0:
			return 0
		}
		i = (i + 1) & f.mask
	}
	return 0
}

// record stores a sector's observed footprint. At the entry budget a new
// sector deterministically evicts whatever occupies its home slot, and is
// not recorded when that slot is empty: filling it would raise n past the
// budget. The eviction never empties a slot, so other keys' probe chains
// stay intact.
func (f *footprintTable) record(sector uint64, mask uint64) {
	k := sector + 1
	i := f.home(sector)
	for range f.keys {
		switch f.keys[i] {
		case k:
			f.vals[i] = mask
			return
		case 0:
			if f.n >= f.cap {
				if i = f.home(sector); f.keys[i] == 0 {
					return
				}
			} else {
				f.n++
			}
			f.keys[i], f.vals[i] = k, mask
			return
		}
		i = (i + 1) & f.mask
	}
	// Physically full (unreachable while the budget is at most half the
	// table): still make deterministic progress by evicting the home slot.
	i = f.home(sector)
	f.keys[i], f.vals[i] = k, mask
}

// forEachBit invokes fn with each set bit index of mask.
func forEachBit(mask uint64, fn func(i uint)) {
	for mask != 0 {
		fn(uint(bits.TrailingZeros64(mask)))
		mask &= mask - 1
	}
}

// blockAddr returns the byte address of block i within the sector that
// contains addr, for a sector of sectorBlocks lines.
func blockAddr(addr mem.Addr, sectorBlocks uint64, i uint) mem.Addr {
	base := addr &^ mem.Addr(sectorBlocks*mem.LineBytes-1)
	return base + mem.Addr(uint64(i)*mem.LineBytes)
}
