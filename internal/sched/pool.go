package sched

import (
	"math/bits"

	"dtsvliw/internal/isa"
)

// Allocation machinery of the Scheduler Unit hot path. The scheduler
// recycles element structs across block flushes (blocks take a compact
// copy of the slot grid, see flush), hands out Slot structs from chunked
// arenas, and takes back every block — with its slots — that the VLIW
// Cache replaces or invalidates (RecycleBlock). A slot owns its footprint
// and rename-pair lists for life, carved from its chunk: a recycled slot
// keeps them, so once the working set of slots is warm the insertion path
// performs no heap allocation at all.
//
// Every slot chunk is additionally tracked in a slab list, so Reset can
// reclaim the whole working set in O(slots) and a reused scheduler
// reaches a zero-allocation steady state across runs (the machine-pool
// reuse path, DESIGN.md §15).

const (
	slotChunkSize = 256 // Slots per arena chunk
	// maxReads and maxWrites bound the footprint of every instruction of
	// the subset (STD, MULSCC and the double-precision FP operations read
	// four locations; MULSCC writes three). Each slot gets its lists with
	// these capacities from its chunk's backings — reads and renamed
	// sources maxReads, writes, renamed outputs and copies maxWrites — so
	// a slot's lists never allocate on their own.
	maxReads  = 4
	maxWrites = 3
)

// newSlot returns a zeroed Slot from the free list or the arena chunk.
func (u *Scheduler) newSlot() *Slot {
	if n := len(u.slotFree); n > 0 {
		s := u.slotFree[n-1]
		u.slotFree = u.slotFree[:n-1]
		return s
	}
	if len(u.slotChunk) == 0 {
		u.slotChunk = make([]Slot, slotChunkSize)
		u.slotSlabs = append(u.slotSlabs, u.slotChunk)
		locs := make([]isa.Loc, (maxReads+maxWrites)*slotChunkSize)
		pairs := make([]RenamePair, (maxReads+2*maxWrites)*slotChunkSize)
		for i := range u.slotChunk {
			s := &u.slotChunk[i]
			s.reads, locs = locs[:0:maxReads], locs[maxReads:]
			s.writes, locs = locs[:0:maxWrites], locs[maxWrites:]
			s.SrcRenames, pairs = pairs[:0:maxReads], pairs[maxReads:]
			s.Renames, pairs = pairs[:0:maxWrites], pairs[maxWrites:]
			s.Copies, pairs = pairs[:0:maxWrites], pairs[maxWrites:]
		}
	}
	s := &u.slotChunk[0]
	u.slotChunk = u.slotChunk[1:]
	return s
}

// reset zeroes the slot for reuse, keeping the storage of its footprint
// and rename-pair lists.
func (s *Slot) reset() {
	*s = Slot{reads: s.reads[:0], writes: s.writes[:0],
		Renames: s.Renames[:0], SrcRenames: s.SrcRenames[:0], Copies: s.Copies[:0]}
}

// releaseSlot recycles a Slot that never escaped into a block (e.g. a
// candidate rebuilt after a flush started a fresh block).
func (u *Scheduler) releaseSlot(s *Slot) {
	s.reset()
	u.slotFree = append(u.slotFree, s)
}

// releaseElement resets an element and returns it to the pool. Its slot
// pointers have already been copied into the flushed block's backing
// array. The per-slot signature arrays need no reset: sigR/sigW entries
// are written before every slot install that reads them.
func (u *Scheduler) releaseElement(e *element) {
	for i := range e.slots {
		e.slots[i] = nil
	}
	e.branches = 0
	e.occ, e.ctis, e.mems, e.stores, e.loads = 0, 0, 0, 0, 0
	e.occMask = 0
	e.rsig.Reset()
	for lm := e.latMask; lm != 0; lm &= lm - 1 {
		e.wsigLat[bits.TrailingZeros64(lm)].Reset()
	}
	e.latMask = 0
	e.memW = e.memW[:0]
	u.elemPool = append(u.elemPool, e)
}

// takeBlock returns a Block whose LIs grid has n rows of Width slots,
// recycled from the block pool when possible. Pooled blocks carry a full
// Height×Width grid (one backing array), so any flush size fits, and keep
// their trace storage.
func (u *Scheduler) takeBlock(n int) *Block {
	if k := len(u.blockPool); k > 0 {
		b := u.blockPool[k-1]
		u.blockPool[k-1] = nil
		u.blockPool = u.blockPool[:k-1]
		*b = Block{LIs: b.LIs[:n], Trace: b.Trace[:0]}
		return b
	}
	w := u.cfg.Width
	backing := make([]*Slot, u.cfg.Height*w)
	lis := make([][]*Slot, u.cfg.Height)
	for i := range lis {
		lis[i] = backing[i*w : (i+1)*w : (i+1)*w]
	}
	return &Block{LIs: lis[:n]}
}

// Reset returns the scheduler to its post-New state while keeping every
// allocation it has accumulated: elements, slots (with their list
// storage) and pooled blocks all become available for the next run. It
// reclaims storage unconditionally, so it must only be called once no
// block the scheduler ever flushed is still in use (the machine's reset
// path drains the VLIW Cache first); any Block or Slot obtained before
// Reset is invalid after it. Stats are cleared except for the block
// geometry.
func (u *Scheduler) Reset() {
	for _, e := range u.elems {
		u.releaseElement(e)
	}
	u.elems = u.elems[:0]
	u.blockTag, u.blockCWP, u.blockSeq, u.blockIns = 0, 0, 0, 0
	u.haveTag = false
	u.renUsed = [NumRenameClasses]uint16{}
	u.order = 0
	u.splits = 0
	u.currentCon = false
	u.renEpoch++ // invalidates every renTab binding in O(1)
	u.renLive = 0
	if len(u.renameMap) > 0 {
		clear(u.renameMap)
	}
	if len(u.conservative) > 0 {
		clear(u.conservative)
	}
	u.trace = u.trace[:0]
	u.candR.Reset()
	u.candW.Reset()
	// Reclaim the slot arena wholesale: every slab slot is reset and put
	// back on the free list (slot pointers inside recycled blocks are
	// overwritten before use — flush copies a full row per long
	// instruction).
	u.slotFree = u.slotFree[:0]
	u.slotChunk = nil
	for _, slab := range u.slotSlabs {
		for i := range slab {
			slab[i].reset()
			u.slotFree = append(u.slotFree, &slab[i])
		}
	}
	u.Stats = Stats{Width: u.cfg.Width, Height: u.cfg.Height}
}

// RecycleBlock returns a block produced by this scheduler's Flush, and
// its slots, to the scheduler's pools once the caller is done with it:
// the machine recycles every block its VLIW Cache replaces or
// invalidates, and drains the rest at reset. Blocks whose grid no longer
// matches the full Height×Width pooled layout — hand-built test blocks,
// or blocks a repacking strategy rewrote with fresh rows — are ignored
// and left, slots included, to the garbage collector (Reset reclaims the
// slots).
func (u *Scheduler) RecycleBlock(b *Block) {
	if b == nil || cap(b.LIs) < u.cfg.Height {
		return
	}
	lis := b.LIs[:u.cfg.Height]
	for _, row := range lis {
		if len(row) != u.cfg.Width {
			return
		}
	}
	for _, row := range b.LIs {
		for _, s := range row {
			if s != nil {
				u.releaseSlot(s)
			}
		}
	}
	u.blockPool = append(u.blockPool, b)
}
