package mscache

import (
	"fmt"

	"dap/internal/ckpt"
)

// Checkpoint serialization for the three memory-side cache controllers.
// Functional warmup (WarmRead/WarmWriteback) mutates only the structures
// serialized here: the sector/line tag arrays (including per-block
// valid/dirty masks and replacement metadata), the SRAM tag cache, the
// footprint history table, the Alloy dirty-bit cache and the Alloy
// predictors. The per-window demand counters and MemSideStats are reset by
// the harness before measurement on both the straight and the resumed
// path, so they are not serialized; the optional SBD/BATMAN policies are
// serialized as their own sections by the harness.

// SaveState serializes the sectored DRAM cache's warmup-visible state.
func (s *Sectored) SaveState(e *ckpt.Enc) {
	s.tags.SaveState(e)
	e.Bool(s.tagCache != nil)
	if s.tagCache != nil {
		s.tagCache.SaveState(e)
	}
	saveFootprint(e, s.fp)
}

// LoadState restores state saved by SaveState.
func (s *Sectored) LoadState(d *ckpt.Dec) error {
	if err := s.tags.LoadState(d); err != nil {
		return fmt.Errorf("mscache: sectored tags: %w", err)
	}
	hadTC := d.Bool()
	if hadTC != (s.tagCache != nil) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("mscache: checkpoint tag cache presence %v != built %v", hadTC, s.tagCache != nil)
	}
	if s.tagCache != nil {
		if err := s.tagCache.LoadState(d); err != nil {
			return fmt.Errorf("mscache: sectored tag cache: %w", err)
		}
	}
	return loadFootprint(d, s.fp)
}

// SaveState serializes the Alloy cache's warmup-visible state.
func (a *Alloy) SaveState(e *ckpt.Enc) {
	a.tags.SaveState(e)
	e.U32(uint32(a.dbc.sets))
	e.U32(uint32(a.dbc.ways))
	e.U64(a.dbc.tick)
	e.U64s(a.dbc.gv)
	e.U64s(a.dbc.bits)
	e.U64s(a.dbc.lru)
	e.Bytes(a.pred)
	e.Bytes(a.fillPred)
}

// LoadState restores state saved by SaveState.
func (a *Alloy) LoadState(d *ckpt.Dec) error {
	if err := a.tags.LoadState(d); err != nil {
		return fmt.Errorf("mscache: alloy tags: %w", err)
	}
	sets, ways := int(d.U32()), int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if sets != a.dbc.sets || ways != a.dbc.ways {
		return fmt.Errorf("mscache: checkpoint DBC %dx%d != built %dx%d", sets, ways, a.dbc.sets, a.dbc.ways)
	}
	a.dbc.tick = d.U64()
	d.U64s(a.dbc.gv)
	d.U64s(a.dbc.bits)
	d.U64s(a.dbc.lru)
	pred, fillPred := d.Bytes(), d.Bytes()
	if err := d.Err(); err != nil {
		return err
	}
	if len(pred) != len(a.pred) || len(fillPred) != len(a.fillPred) {
		return fmt.Errorf("mscache: checkpoint predictor sizes %d/%d != built %d/%d",
			len(pred), len(fillPred), len(a.pred), len(a.fillPred))
	}
	copy(a.pred, pred)
	copy(a.fillPred, fillPred)
	return nil
}

// SaveState serializes the eDRAM cache's warmup-visible state.
func (e *EDRAM) SaveState(enc *ckpt.Enc) {
	e.tags.SaveState(enc)
}

// LoadState restores state saved by SaveState.
func (e *EDRAM) LoadState(d *ckpt.Dec) error {
	if err := e.tags.LoadState(d); err != nil {
		return fmt.Errorf("mscache: edram tags: %w", err)
	}
	return nil
}

// saveFootprint serializes the footprint history table slot for slot as
// (slot, sector, mask) in slot order. Linear probing's layout depends on
// insertion order, and at the budget a new sector evicts its home slot's
// occupant, so re-inserting the entries would not rebuild the table an
// uninterrupted run holds; restoring each slot does.
func saveFootprint(e *ckpt.Enc, f *footprintTable) {
	e.U32(uint32(f.n))
	for i, k := range f.keys {
		if k != 0 {
			e.U32(uint32(i))
			e.U64(k - 1)
			e.U64(f.vals[i])
		}
	}
}

// loadFootprint restores a saveFootprint table, rejecting more entries than
// the budget, a slot outside the table, a slot given twice, and the one
// sector (2^64-1) whose key would mark an empty slot.
func loadFootprint(d *ckpt.Dec, f *footprintTable) error {
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if n > f.cap {
		return fmt.Errorf("mscache: checkpoint footprint table has %d entries, cap %d", n, f.cap)
	}
	clear(f.keys)
	clear(f.vals)
	f.n = n
	for j := 0; j < n; j++ {
		slot, k, v := uint64(d.U32()), d.U64()+1, d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		switch {
		case slot >= uint64(len(f.keys)):
			return fmt.Errorf("mscache: checkpoint footprint slot %d outside %d-slot table", slot, len(f.keys))
		case f.keys[slot] != 0:
			return fmt.Errorf("mscache: checkpoint footprint slot %d given twice", slot)
		case k == 0:
			return fmt.Errorf("mscache: checkpoint footprint sector out of range in slot %d", slot)
		}
		f.keys[slot], f.vals[slot] = k, v
	}
	return nil
}
