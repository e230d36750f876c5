package sched

import (
	"fmt"
	"math/bits"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/telemetry"
)

// element is one scheduling-list entry: one long instruction under
// construction. The candidate-instruction machinery of the hardware is
// simulated by the insertion-time journey in Insert; settled slots are
// "installed" in the paper's sense. Alongside the slot grid the element
// caches dependency signatures and occupancy aggregates of its installed
// slots (see sig.go), which stand in for the paper's per-slot comparator
// network: dependency queries test cached bitsets instead of scanning
// footprints.
type element struct {
	slots    []*Slot
	branches uint8 // conditional/indirect branches placed (tag counter)

	// Per-slot dependency signatures, parallel to slots. A slot's entry is
	// written when the slot is installed; entries of empty slots are stale
	// and never read.
	sigR []isa.Sig
	sigW []isa.Sig

	// Cached aggregates over installed slots (maintained by add/remove).
	occ     int        // occupied slots
	occMask uint64     // bit i set iff slots[i] != nil (Width ≤ 64, enforced by Validate)
	slotLat []uint8    // per-slot producer latency, parallel to slots
	ctis    int        // installed conditional/indirect branches
	mems    int        // slots touching memory (incl. memory copies)
	stores  int        // stores and memory copies (cohabitation rule)
	loads   int        // loads (cohabitation rule)
	rsig    isa.Sig    // OR of installed read signatures
	wsigLat []isa.Sig  // write signatures bucketed by producer latency (1..maxLat)
	latMask uint64     // bit l set iff wsigLat[l] is nonempty
	memW    []memWrite // LocMem write intervals, with producer latency
}

// renEntry is one binding of the direct-mapped rename table: the renaming
// register holding an architectural location's newest in-block value. A
// binding is live only if its epoch matches the scheduler's current block
// epoch, which makes clearing the table at block boundaries O(1).
type renEntry struct {
	reg   RenameReg
	epoch uint64
}

// Scheduler is the Scheduler Unit. Feed it Completed instructions with
// Insert; it returns finished Blocks when the scheduling list fills. Use
// Flush for externally triggered flushes (VLIW Cache hit, non-schedulable
// instruction).
type Scheduler struct {
	cfg    Config     //resetcheck:allow configuration is fixed at construction
	strat  Strategy   //resetcheck:allow placement policy (Config.Strategy; FCFS by default), fixed at construction
	maxLat int        //resetcheck:allow derived from cfg at construction
	nPhys  int        //resetcheck:allow physical integer registers (rename-table geometry), fixed at construction
	elems  []*element // index 0 is the scheduling-list head

	blockTag   uint32
	blockCWP   uint8
	blockSeq   uint64
	blockIns   uint64 // instructions inserted into the current block
	haveTag    bool
	renUsed    [NumRenameClasses]uint16
	order      uint16
	splits     int
	currentCon bool

	// Rename tracking (paper Figure 2): per architectural location, the
	// renaming register holding its newest value within the current block,
	// so that later consumers read the renaming register directly. Memory
	// locations are never forwarded (loads depend on the memory copy
	// instead). renTab is a direct-mapped epoch-stamped table covering
	// every register and singleton location; renameMap is the fallback for
	// locations outside the table's geometry (none in practice).
	renTab    []renEntry //resetcheck:allow epoch-stamped; Reset invalidates every binding via renEpoch++
	renEpoch  uint64
	renLive   int // live renTab bindings in the current block
	renameMap map[isa.Loc]RenameReg

	// acceptMask, per FU class, has bit i set iff slot i accepts the
	// class; free-slot lookup is then one AND-NOT against the element's
	// occupancy mask.
	acceptMask [isa.FUAny + 1]uint64 //resetcheck:allow pure function of cfg.FUs, computed at construction

	// conservative holds block tags (address plus entry window pointer)
	// that must be scheduled without load/store reordering after an
	// aliasing exception (paper §3.11).
	conservative map[uint64]bool

	// trace accumulates the current block's sequential instruction trace
	// under Config.RecordTrace; flush hands the slice to the block and
	// starts a fresh one.
	trace []Completed

	// Candidate signatures: the packed footprints of the instruction
	// currently journeying through Insert/moveUp (kept here, not in the
	// Slot, so block-resident slots stay small).
	candR isa.Sig
	candW isa.Sig

	// Allocation recycling (see pool.go). The slab list additionally
	// records every slot chunk ever allocated so Reset can reclaim the
	// whole working set.
	elemPool  []*element
	slotChunk []Slot
	slotSlabs [][]Slot //resetcheck:allow allocation registry; Reset remounts it wholesale
	slotFree  []*Slot
	blockPool []*Block //resetcheck:allow recycled-block pool, deliberately kept across runs

	// Reusable scratch buffers for the insertion hot path. Each buffer is
	// private to one phase of Insert/moveUp, so no two live uses alias;
	// every use truncates before writing, so stale contents are never
	// read and the buffers survive Reset on purpose (capacity reuse).
	scratchReads  []isa.Loc    //resetcheck:allow buildSlot: effects assembly
	scratchWrites []isa.Loc    //resetcheck:allow
	scratchLocs   []isa.Loc    //resetcheck:allow horizonOutputConflicts: horizon write set
	scratchOut    []isa.Loc    //resetcheck:allow horizonOutputConflicts result
	scratchAnti   []isa.Loc    //resetcheck:allow antiConflicts result
	scratchConf   []isa.Loc    //resetcheck:allow moveUp: deduplicated conflict set
	scratchRem    []isa.Loc    //resetcheck:allow split: surviving write set
	scratchCpR    []isa.Loc    //resetcheck:allow split: copy-instruction reads
	scratchCpW    []isa.Loc    //resetcheck:allow split: copy-instruction writes
	scratchPairsA []RenamePair //resetcheck:allow buildSlot SrcRenames / split Renames
	scratchPairsB []RenamePair //resetcheck:allow split Copies
	scratchSig    isa.Sig      //resetcheck:allow antiConflicts: exclusion signature, rebuilt per call

	tel *telemetry.Collector //resetcheck:allow nil when telemetry is disabled; pooled reuse refuses telemetry machines

	Stats Stats
}

// New builds a Scheduler Unit.
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	strat, err := newStrategy(cfg)
	if err != nil {
		return nil, err
	}
	u := &Scheduler{
		cfg:          cfg,
		strat:        strat,
		maxLat:       cfg.MaxLatency(),
		nPhys:        isa.NumPhysRegs(cfg.NWin),
		conservative: make(map[uint64]bool),
		renameMap:    make(map[isa.Loc]RenameReg),
		renEpoch:     1,
	}
	u.renTab = make([]renEntry, u.nPhys+64+renSingletons)
	for cl := range u.acceptMask {
		for i := 0; i < cfg.Width; i++ {
			if cfg.slotAccepts(i, isa.FUClass(cl)) {
				u.acceptMask[cl] |= 1 << i
			}
		}
	}
	// The stats carry the block geometry so derived metrics (slot
	// utilisation) never depend on callers re-supplying dimensions.
	u.Stats.Width = cfg.Width
	u.Stats.Height = cfg.Height
	return u, nil
}

// SetTelemetry attaches a telemetry collector (nil detaches). Hook sites
// are nil-guarded and outside the dependency-check hot paths, keeping
// the zero-alloc guarantee when detached.
func (u *Scheduler) SetTelemetry(t *telemetry.Collector) { u.tel = t }

// Config returns the scheduler's configuration.
func (u *Scheduler) Config() Config { return u.cfg }

// Empty reports whether the scheduling list has no active elements.
func (u *Scheduler) Empty() bool { return len(u.elems) == 0 }

// Len returns the number of active scheduling-list elements.
func (u *Scheduler) Len() int { return len(u.elems) }

// MarkConservative requests conservative (in-order memory) scheduling for
// the block starting at tag with entry window pointer cwp, after an
// aliasing exception invalidated it.
func (u *Scheduler) MarkConservative(tag uint32, cwp uint8) {
	u.conservative[conKey(tag, cwp)] = true
}

func conKey(tag uint32, cwp uint8) uint64 { return uint64(tag)<<8 | uint64(cwp) }

// renSingletons is the number of rename-table entries past the register
// files: ICC, FCC, Y, CWP and LocNone.
const renSingletons = 5

// renIdx maps an architectural location to its rename-table index, or -1
// for locations outside the table (memory, which is never forwarded, and
// renaming registers, which are never architectural effects).
func (u *Scheduler) renIdx(l isa.Loc) int {
	switch l.Kind {
	case isa.LocIReg:
		if int(l.Idx) < u.nPhys {
			return int(l.Idx)
		}
	case isa.LocFReg:
		if l.Idx < 64 {
			return u.nPhys + int(l.Idx)
		}
	case isa.LocICC:
		return u.nPhys + 64
	case isa.LocFCC:
		return u.nPhys + 65
	case isa.LocY:
		return u.nPhys + 66
	case isa.LocCWP:
		return u.nPhys + 67
	case isa.LocNone:
		return u.nPhys + 68
	}
	return -1
}

// renSet binds location l to renaming register reg for the current block.
func (u *Scheduler) renSet(l isa.Loc, reg RenameReg) {
	if i := u.renIdx(l); i >= 0 {
		if u.renTab[i].epoch != u.renEpoch {
			u.renLive++
		}
		u.renTab[i] = renEntry{reg: reg, epoch: u.renEpoch}
		return
	}
	u.renameMap[l] = reg
}

// renLookup returns the live binding of l, if any.
func (u *Scheduler) renLookup(l isa.Loc) (RenameReg, bool) {
	if i := u.renIdx(l); i >= 0 {
		if u.renTab[i].epoch == u.renEpoch {
			return u.renTab[i].reg, true
		}
		return RenameReg{}, false
	}
	reg, ok := u.renameMap[l]
	return reg, ok
}

// renDelete retires the binding of l (its architectural location was
// overwritten by a newer instruction).
func (u *Scheduler) renDelete(l isa.Loc) {
	if i := u.renIdx(l); i >= 0 {
		if u.renTab[i].epoch == u.renEpoch {
			u.renTab[i].epoch = 0
			u.renLive--
		}
		return
	}
	if len(u.renameMap) > 0 {
		delete(u.renameMap, l)
	}
}

// renAny reports whether any binding is live in the current block.
func (u *Scheduler) renAny() bool {
	return u.renLive > 0 || len(u.renameMap) > 0
}

// newElement appends a scheduling-list element, recycling a pooled one
// when available.
func (u *Scheduler) newElement() *element {
	var e *element
	if n := len(u.elemPool); n > 0 {
		e = u.elemPool[n-1]
		u.elemPool = u.elemPool[:n-1]
	} else {
		e = &element{
			slots:   make([]*Slot, u.cfg.Width),
			sigR:    make([]isa.Sig, u.cfg.Width),
			sigW:    make([]isa.Sig, u.cfg.Width),
			slotLat: make([]uint8, u.cfg.Width),
			wsigLat: make([]isa.Sig, u.maxLat+1),
		}
	}
	u.elems = append(u.elems, e)
	return e
}

// freeSlot returns the index of a free slot in e compatible with class cl,
// or -1.
func (u *Scheduler) freeSlot(e *element, cl isa.FUClass) int {
	m := u.acceptMask[cl] &^ e.occMask
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros64(m)
}

// overlapAny reports whether any location in a overlaps any in b: the
// naive pairwise predicate the dependency signatures accelerate. It
// remains the semantic reference (TestMaskOverlapMatchesNaive) and the
// fallback for signatures that overflowed the exact encoding.
func overlapAny(a, b []isa.Loc) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Overlaps(y) {
				return true
			}
		}
	}
	return false
}

// trueDepBlocked reports whether the candidate may not occupy element
// target: a producer in element j whose result arrives after target
// (j + latency > target) writes one of the candidate's read locations.
// With all latencies 1 this reduces to the paper's check against the
// single element above (multicycle extension, companion study [14]).
//
// Fast path: the candidate's read signature (candR) is tested against
// each horizon element's latency-bucketed write signatures; memory reads
// are compared against the element's LocMem side table. The naive
// per-slot scan runs only if a signature overflowed the exact encoding.
// The candidate must not be installed in any scanned element (all call
// sites check elements strictly above the candidate's position).
func (u *Scheduler) trueDepBlocked(cand *Slot, target int) bool {
	lo := target - u.maxLat + 1
	if lo < 0 {
		lo = 0
	}
	fallback := u.candR.Flags&isa.SigOver != 0
	candMem := u.candR.Flags&isa.SigMem != 0
	for j := lo; j <= target && j < len(u.elems); j++ {
		e := u.elems[j]
		if e.occ == 0 {
			continue
		}
		minLat := target - j + 1
		lm := e.latMask &^ (1<<uint(minLat) - 1)
		for lm != 0 {
			l := bits.TrailingZeros64(lm)
			lm &= lm - 1
			es := &e.wsigLat[l]
			if u.candR.Hit(es) {
				return true
			}
			if es.Flags&isa.SigOver != 0 {
				fallback = true
			}
		}
		if candMem {
			for _, mw := range e.memW {
				if int(mw.lat) >= minLat && memAnyOverlap(cand.reads, mw.loc) {
					return true
				}
			}
		}
	}
	if fallback {
		return u.trueDepBlockedSlow(cand, target)
	}
	return false
}

// trueDepBlockedSlow is the naive per-slot scan (the semantic reference).
func (u *Scheduler) trueDepBlockedSlow(cand *Slot, target int) bool {
	lo := target - u.maxLat + 1
	if lo < 0 {
		lo = 0
	}
	for j := lo; j <= target && j < len(u.elems); j++ {
		for _, w := range u.elems[j].slots {
			if w == nil || w == cand || j+w.LatOr1() <= target {
				continue
			}
			if overlapAny(cand.reads, w.writes) {
				return true
			}
		}
	}
	return false
}

// wawBlocked reports whether element target cannot hold cand because of a
// write-ordering hazard: an installed slot writing one of cand's write
// locations either shares the target element (two writes to one location
// cannot share a long instruction) or is an in-flight multicycle producer
// whose writeback lands strictly after cand's own (the delayed commit
// would clobber the younger value). With all latencies 1 this reduces to
// the paper's output-dependency rule against the tail element.
func (u *Scheduler) wawBlocked(cand *Slot, target int) bool {
	cl := cand.LatOr1()
	lo := target - u.maxLat + 1
	if lo < 0 {
		lo = 0
	}
	fallback := u.candW.Flags&isa.SigOver != 0
	candMem := u.candW.Flags&isa.SigMem != 0
	for j := lo; j <= target && j < len(u.elems); j++ {
		e := u.elems[j]
		if e.occ == 0 {
			continue
		}
		if j == target {
			// Sharing the target element: every installed write conflicts,
			// whatever its latency bucket.
			lm := e.latMask
			for lm != 0 {
				l := bits.TrailingZeros64(lm)
				lm &= lm - 1
				es := &e.wsigLat[l]
				if u.candW.Hit(es) {
					return true
				}
				if es.Flags&isa.SigOver != 0 {
					fallback = true
				}
			}
			if candMem {
				for _, mw := range e.memW {
					if memAnyOverlap(cand.writes, mw.loc) {
						return true
					}
				}
			}
			continue
		}
		// In-flight producer whose writeback lands strictly after cand's:
		// j + lat > target + cl.
		minLat := target + cl - j + 1
		if minLat > u.maxLat {
			continue
		}
		lm := e.latMask &^ (1<<uint(minLat) - 1)
		for lm != 0 {
			l := bits.TrailingZeros64(lm)
			lm &= lm - 1
			es := &e.wsigLat[l]
			if u.candW.Hit(es) {
				return true
			}
			if es.Flags&isa.SigOver != 0 {
				fallback = true
			}
		}
		if candMem {
			for _, mw := range e.memW {
				if int(mw.lat) >= minLat && memAnyOverlap(cand.writes, mw.loc) {
					return true
				}
			}
		}
	}
	if fallback {
		return u.wawBlockedSlow(cand, target)
	}
	return false
}

func (u *Scheduler) wawBlockedSlow(cand *Slot, target int) bool {
	cl := cand.LatOr1()
	lo := target - u.maxLat + 1
	if lo < 0 {
		lo = 0
	}
	for j := lo; j <= target && j < len(u.elems); j++ {
		for _, w := range u.elems[j].slots {
			if w == nil || w == cand {
				continue
			}
			if j != target && j+w.LatOr1() <= target+cl {
				continue // producer's writeback lands at or before cand's
			}
			if overlapAny(cand.writes, w.writes) {
				return true
			}
		}
	}
	return false
}

// wawCopyUnsafe reports whether moving cand out of element elemIdx is
// unsafe even with a split: an in-flight producer of one of cand's write
// locations commits strictly after the copy instruction (which stays
// behind in elemIdx) would, so renaming cannot restore write order and
// the candidate must be installed instead. Only latencies of three or
// more cycles can reach past the copy.
func (u *Scheduler) wawCopyUnsafe(cand *Slot, elemIdx int) bool {
	if u.maxLat < 3 {
		return false // no latency can reach past the copy instruction
	}
	lo := elemIdx - u.maxLat + 1
	if lo < 0 {
		lo = 0
	}
	fallback := u.candW.Flags&isa.SigOver != 0
	candMem := u.candW.Flags&isa.SigMem != 0
	for j := lo; j < elemIdx && j < len(u.elems); j++ {
		e := u.elems[j]
		if e.occ == 0 {
			continue
		}
		// Keep producers with j + lat - 1 > elemIdx.
		minLat := elemIdx - j + 2
		if minLat > u.maxLat {
			continue
		}
		lm := e.latMask &^ (1<<uint(minLat) - 1)
		for lm != 0 {
			l := bits.TrailingZeros64(lm)
			lm &= lm - 1
			es := &e.wsigLat[l]
			if u.candW.Hit(es) {
				return true
			}
			if es.Flags&isa.SigOver != 0 {
				fallback = true
			}
		}
		if candMem {
			for _, mw := range e.memW {
				if int(mw.lat) >= minLat && memAnyOverlap(cand.writes, mw.loc) {
					return true
				}
			}
		}
	}
	if fallback {
		return u.wawCopyUnsafeSlow(cand, elemIdx)
	}
	return false
}

func (u *Scheduler) wawCopyUnsafeSlow(cand *Slot, elemIdx int) bool {
	lo := elemIdx - u.maxLat + 1
	if lo < 0 {
		lo = 0
	}
	for j := lo; j < elemIdx && j < len(u.elems); j++ {
		for _, w := range u.elems[j].slots {
			if w == nil || w == cand || j+w.LatOr1()-1 <= elemIdx {
				continue
			}
			if overlapAny(cand.writes, w.writes) {
				return true
			}
		}
	}
	return false
}

// horizonOutputConflicts returns the candidate's write locations that
// collide with an in-flight producer whose completion would land at or
// after the candidate's (write-ordering hazard); such outputs must be
// renamed by a split. The returned slice aliases a scratch buffer valid
// until the next call.
//
// Fast path: signatures prove the common no-conflict case without
// touching any slot; only when a conflict is possible does the exact
// collection scan run (it allocates nothing either).
func (u *Scheduler) horizonOutputConflicts(cand *Slot, target int) []isa.Loc {
	lo := target - u.maxLat + 1
	if lo < 0 {
		lo = 0
	}
	possible := u.candW.Flags&isa.SigOver != 0
	candMem := u.candW.Flags&isa.SigMem != 0
	for j := lo; j <= target && j < len(u.elems) && !possible; j++ {
		e := u.elems[j]
		if e.occ == 0 {
			continue
		}
		minLat := target - j + 1
		lm := e.latMask &^ (1<<uint(minLat) - 1)
		for lm != 0 {
			l := bits.TrailingZeros64(lm)
			lm &= lm - 1
			es := &e.wsigLat[l]
			if u.candW.Hit(es) || es.Flags&isa.SigOver != 0 {
				possible = true
				break
			}
		}
		if !possible && candMem {
			for _, mw := range e.memW {
				if int(mw.lat) >= minLat && memAnyOverlap(cand.writes, mw.loc) {
					possible = true
					break
				}
			}
		}
	}
	if !possible {
		return nil
	}
	// Exact collection, identical to the original implementation but into
	// reusable scratch buffers.
	locs := u.scratchLocs[:0]
	for j := lo; j <= target && j < len(u.elems); j++ {
		for _, w := range u.elems[j].slots {
			if w == nil || w == cand || j+w.LatOr1() <= target {
				continue
			}
			locs = append(locs, w.writes...)
		}
	}
	u.scratchLocs = locs
	out := u.scratchOut[:0]
	for _, w := range cand.writes {
		for _, l := range locs {
			if w.Overlaps(l) {
				out = append(out, w)
				break
			}
		}
	}
	u.scratchOut = out
	return out
}

// antiConflicts returns the candidate's write locations that overlap the
// read footprints of the other installed slots of cur (the hardware
// disables the comparators of the companion slot, paper §3.7). The
// returned slice aliases a scratch buffer valid until the next call.
func (u *Scheduler) antiConflicts(cand *Slot, cur *element, slotIdx int) []isa.Loc {
	// Quick reject against the element's full read signature (a superset
	// of the exclusion set: it includes the candidate's own reads).
	if !u.candW.Hit(&cur.rsig) && !u.candW.MemBoth(&cur.rsig) && !u.candW.Over(&cur.rsig) {
		return nil
	}
	// The full signature intersected; rebuild the read signature without
	// the candidate's own slot and retest.
	ex := &u.scratchSig
	ex.Reset()
	for i, s := range cur.slots {
		if s == nil || i == slotIdx {
			continue
		}
		ex.Or(&cur.sigR[i])
	}
	if !u.candW.Hit(ex) && !u.candW.MemBoth(ex) && !u.candW.Over(ex) {
		return nil
	}
	// Exact collection, ordered by the candidate's write set like the
	// original conflictingWrites(cand, elemReads(cur, slotIdx)).
	out := u.scratchAnti[:0]
	for _, w := range cand.writes {
		conflict := false
		for i, s := range cur.slots {
			if s == nil || i == slotIdx {
				continue
			}
			for _, r := range s.reads {
				if w.Overlaps(r) {
					conflict = true
					break
				}
			}
			if conflict {
				break
			}
		}
		if conflict {
			out = append(out, w)
		}
	}
	u.scratchAnti = out
	return out
}

// memSerialized reports whether conservative scheduling forces an order
// dependency between the candidate and element e: after an aliasing
// exception the block keeps its loads and stores in insertion order by
// treating every memory pair as dependent (paper §3.11). The candidate is
// never installed in e at any call site, so the cached aggregate needs no
// exclusion.
func (u *Scheduler) memSerialized(cand *Slot, e *element) bool {
	return u.currentCon && !cand.IsCopy && cand.IsMem && e.mems > 0
}

func hasMemCopy(s *Slot) bool {
	for _, c := range s.Copies {
		if c.Loc.Kind == isa.LocMem {
			return true
		}
	}
	return false
}

// buildSlot constructs the Slot for a completed instruction, rewriting
// source operands whose newest in-block value lives in a renaming
// register, and retiring rename bindings superseded by this instruction's
// architectural writes. Footprints are assembled in scratch buffers and
// copied into the slot's own lists; the Slot itself comes from the slot
// pool. The candidate signatures candR/candW are left describing the new
// slot.
func (u *Scheduler) buildSlot(c Completed) *Slot {
	s := u.newSlot()
	s.Inst = c.Inst
	s.Addr = c.Addr
	s.CWP = c.CWP
	s.Seq = c.Seq
	s.Lat = int32(u.cfg.latencyOf(&c.Inst))
	reads, writes := c.Inst.EffectsAppend(c.CWP, u.cfg.NWin, c.Outcome.EA,
		u.scratchReads[:0], u.scratchWrites[:0])
	u.scratchReads, u.scratchWrites = reads, writes
	if u.renAny() && !u.cfg.NoForwarding {
		srcRen := u.scratchPairsA[:0]
		for i, r := range reads {
			if r.Kind == isa.LocMem {
				continue
			}
			if reg, ok := u.renLookup(r); ok {
				reads[i] = RenLoc(reg)
				srcRen = append(srcRen, RenamePair{Loc: r, Reg: reg})
			}
		}
		u.scratchPairsA = srcRen
		s.SrcRenames = append(s.SrcRenames[:0], srcRen...)
		for _, w := range writes {
			if w.Kind != isa.LocMem {
				u.renDelete(w)
			}
		}
	}
	s.reads = append(s.reads[:0], reads...)
	s.writes = append(s.writes[:0], writes...)
	u.candR.Reset()
	u.candR.AddSet(s.reads)
	u.candW.Reset()
	u.candW.AddSet(s.writes)
	if c.Inst.IsMem() {
		s.IsMem = true
		s.IsStore = c.Inst.IsStore()
		s.MemAddr = c.Outcome.EA
		s.MemSize = c.Inst.MemSize()
	}
	if c.Inst.IsCondBranch() || c.Inst.IsIndirectBranch() {
		s.BrTaken = c.Outcome.Taken
		s.BrTarget = c.Outcome.Target
	}
	return s
}

// cohabitCross updates the candidate's sticky cross bit on entering
// element e (paper §3.10; see DESIGN.md §5 for the store/load extension).
// The element aggregates include the candidate itself, matching the
// original slot scan which ran after placement.
func cohabitCross(cand *Slot, e *element) {
	if !cand.IsMem || cand.Cross {
		return
	}
	if e.stores > 0 {
		cand.Cross = true
		return
	}
	if cand.IsStore && e.loads > 0 {
		cand.Cross = true
	}
}

// place puts cand into a free slot of e with the element's current tag.
func (u *Scheduler) place(cand *Slot, e *element) int {
	idx := u.freeSlot(e, cand.Inst.Class())
	e.slots[idx] = cand
	e.sigR[idx] = u.candR
	e.sigW[idx] = u.candW
	e.add(cand, idx)
	cand.Tag = e.branches
	if cand.IsCondOrIndirectBranch() {
		e.branches++
	}
	cohabitCross(cand, e)
	return idx
}

// allocRename allocates a fresh renaming register for an architectural
// location.
func (u *Scheduler) allocRename(l isa.Loc) RenameReg {
	cl := classOf(l)
	r := RenameReg{Class: cl, Idx: u.renUsed[cl]}
	u.renUsed[cl]++
	if u.renUsed[cl] > u.Stats.MaxRenames[cl] {
		u.Stats.MaxRenames[cl] = u.renUsed[cl]
	}
	return r
}

// split renames the given outputs of cand and installs a copy instruction
// in cand's current slot of element e (paper §3.2). The copy keeps the
// element's current tag position and, for memory, the candidate's order
// and address for aliasing checks. The caller must recalc e afterwards.
func (u *Scheduler) split(cand *Slot, e *element, slotIdx int, conflicted []isa.Loc) {
	copySlot := u.newSlot()
	copySlot.Inst = cand.Inst
	copySlot.Addr = cand.Addr
	copySlot.CWP = cand.CWP
	copySlot.Seq = cand.Seq
	copySlot.Tag = cand.Tag
	copySlot.IsCopy = true
	remaining := u.scratchRem[:0]
	cpReads := u.scratchCpR[:0]
	cpWrites := u.scratchCpW[:0]
	renames := append(u.scratchPairsA[:0], cand.Renames...)
	copies := u.scratchPairsB[:0]
	faultedRename := false
	for _, w := range cand.writes {
		conflict := w.Kind != isa.LocRen
		if conflict {
			conflict = false
			for _, cw := range conflicted {
				if w == cw {
					conflict = true
					break
				}
			}
		}
		if !conflict {
			remaining = append(remaining, w)
			continue
		}
		reg := u.allocRename(w)
		if u.cfg.FaultDropRename && !faultedRename && w.Kind != isa.LocMem {
			// Fault injection (blockcheck meta-test): the split allocates
			// the renaming register and leaves the copy behind, but forgets
			// to redirect the producer's write — the copy commits a
			// renaming register nothing writes.
			faultedRename = true
			copies = append(copies, RenamePair{Loc: w, Reg: reg})
			cpReads = append(cpReads, RenLoc(reg))
			cpWrites = append(cpWrites, w)
			remaining = append(remaining, w)
			continue
		}
		renames = append(renames, RenamePair{Loc: w, Reg: reg})
		copies = append(copies, RenamePair{Loc: w, Reg: reg})
		cpReads = append(cpReads, RenLoc(reg))
		if w.Kind != isa.LocMem && !u.cfg.NoForwarding {
			u.renSet(w, reg)
			remaining = append(remaining, RenLoc(reg))
		}
		if w.Kind == isa.LocMem {
			cand.MemRenamed = true
			copySlot.IsMem = true
			copySlot.IsStore = true
			copySlot.MemAddr = cand.MemAddr
			copySlot.MemSize = cand.MemSize
			copySlot.Order = cand.Order
			copySlot.Cross = cand.Cross
		}
		cpWrites = append(cpWrites, w)
	}
	u.scratchRem, u.scratchCpR, u.scratchCpW = remaining, cpReads, cpWrites
	u.scratchPairsA, u.scratchPairsB = renames, copies
	cand.Renames = append(cand.Renames[:0], renames...)
	copySlot.Copies = append(copySlot.Copies[:0], copies...)
	cand.writes = append(cand.writes[:0], remaining...)
	u.candW.Reset()
	u.candW.AddSet(cand.writes)
	copySlot.reads = append(copySlot.reads[:0], cpReads...)
	copySlot.writes = append(copySlot.writes[:0], cpWrites...)
	if u.cfg.FaultDropCopy {
		// Fault injection (oracle meta-test): lose the copy instruction,
		// leaving the renamed values stranded in the renaming registers.
		e.slots[slotIdx] = nil
		u.releaseSlot(copySlot)
	} else {
		e.slots[slotIdx] = copySlot
		e.sigR[slotIdx].Reset()
		e.sigR[slotIdx].AddSet(copySlot.reads)
		e.sigW[slotIdx].Reset()
		e.sigW[slotIdx].AddSet(copySlot.writes)
	}
	u.splits++
	u.Stats.Splits++
	if u.tel != nil {
		u.tel.Split(cand.Addr)
	}
}

// Insert feeds one completed instruction to the Scheduler Unit. If the
// scheduling list is full, the current block is flushed and returned (its
// NBA address field is the incoming instruction's address, which starts
// the fall-through block, paper §3.3); the instruction then begins a new
// block. Nops and unconditional direct branches are ignored (paper §3.9).
// Non-schedulable instructions must be handled by the caller via Flush
// before calling Insert.
func (u *Scheduler) Insert(c Completed) (*Block, error) {
	if c.Inst.IsNop() || c.Inst.IsUncondBranch() {
		if u.cfg.RecordTrace && len(u.elems) > 0 {
			// Ignored instructions inside an open block belong to its trace
			// span; before the first placed instruction they belong to no
			// block.
			u.trace = append(u.trace, c)
		}
		u.Stats.Ignored++
		return nil, nil
	}
	if !c.Inst.IsSchedulable() {
		return nil, fmt.Errorf("sched: non-schedulable %v at %#08x reached Insert", c.Inst.Op, c.Addr)
	}

	var flushed *Block
	var cand *Slot

	if len(u.elems) > 0 && u.strat.WantFlushBefore(u, c) {
		// Strategy-requested early flush (degenerate strategies like
		// one-per-block): the candidate starts a fresh block below.
		flushed = u.flush(c.Addr, c.Seq)
	}

	if len(u.elems) == 0 {
		// Rename bindings never cross blocks: start the block first so the
		// slot is built against the fresh (empty) rename table.
		u.startBlock(c)
		cand = u.buildSlot(c)
	} else {
		cand = u.buildSlot(c)
		tail := u.elems[len(u.elems)-1]
		// The strategy is consulted only when the legality machinery has
		// proven the tail can hold the candidate (short-circuit): it may
		// open a new element anyway, but never prevent a forced one.
		if u.needsNewElement(cand, tail) || u.strat.WantNewElement(u) {
			if len(u.elems) >= u.cfg.Height {
				flushed = u.flush(c.Addr, c.Seq)
				u.startBlock(c)
				u.releaseSlot(cand)
				cand = u.buildSlot(c)
			} else {
				u.newElement()
				// Multicycle producers may require further padding
				// elements before the candidate's reads are satisfied and
				// in-flight writebacks of its output locations have landed.
				for u.trueDepBlocked(cand, len(u.elems)-1) ||
					u.wawBlocked(cand, len(u.elems)-1) {
					if len(u.elems) >= u.cfg.Height {
						flushed = u.flush(c.Addr, c.Seq)
						u.startBlock(c)
						u.releaseSlot(cand)
						cand = u.buildSlot(c)
						break
					}
					u.newElement()
				}
			}
		}
	}

	if cand.IsMem {
		cand.Order = u.order
		u.order++
	}

	tailIdx := len(u.elems) - 1
	slotIdx := u.place(cand, u.elems[tailIdx])
	u.Stats.Inserted++
	u.blockIns++
	if u.cfg.RecordTrace {
		// Record after the flush/startBlock decisions above, so the
		// instruction lands in the trace of the block it was placed in.
		u.trace = append(u.trace, c)
	}

	u.moveUp(cand, tailIdx, slotIdx)
	return flushed, nil
}

// needsNewElement applies the insertion rule: a new tail element is needed
// on a true dependency, an output dependency (two writes to one location
// cannot share a long instruction), a resource shortage, or conservative
// memory serialisation. Anti and control dependencies do not block
// placement in the tail: the read-before-write long-instruction semantics
// and the branch-tag system make such placement safe (paper §3.8). The
// latency horizon covers in-flight multicycle producers.
func (u *Scheduler) needsNewElement(cand *Slot, tail *element) bool {
	if u.freeSlot(tail, cand.Inst.Class()) < 0 {
		return true
	}
	t := len(u.elems) - 1
	if u.trueDepBlocked(cand, t) {
		return true
	}
	if u.wawBlocked(cand, t) {
		return true
	}
	return u.memSerialized(cand, tail)
}

// moveUp walks the candidate up the scheduling list until installed,
// applying the paper's install/split/move rules at each element boundary.
func (u *Scheduler) moveUp(cand *Slot, elemIdx, slotIdx int) {
	if cand.Inst.IsCTI() {
		u.Stats.Installs++
		return // control-transfer instructions never move (paper §3.8)
	}
	for elemIdx > 0 {
		cur := u.elems[elemIdx]
		prev := u.elems[elemIdx-1]

		// Install on true dependency or resource dependency (paper §3.7:
		// "if the install and the split signals are both true the
		// respective candidate instruction is only installed"). The
		// dependency horizon covers multicycle producers.
		if u.trueDepBlocked(cand, elemIdx-1) ||
			u.freeSlot(prev, cand.Inst.Class()) < 0 ||
			u.memSerialized(cand, prev) ||
			u.wawCopyUnsafe(cand, elemIdx) {
			break
		}

		// The move is legal; the strategy decides whether to take it (the
		// FCFS hardware always does).
		if !u.strat.WantMoveUp(u, elemIdx) {
			break
		}

		// Split on output dependency with i-1 (or any in-flight producer
		// completing at/after the candidate), anti dependency with i, or
		// control dependency with i (paper §3.2).
		outConf := u.horizonOutputConflicts(cand, elemIdx-1)
		antiConf := u.antiConflicts(cand, cur, slotIdx)
		needAll := cur.ctis > 0
		if len(outConf) > 0 || len(antiConf) > 0 || needAll {
			conflicted := u.scratchConf[:0]
			if needAll {
				for _, w := range cand.writes {
					if w.Kind != isa.LocRen {
						conflicted = append(conflicted, w)
					}
				}
			} else {
				for _, l := range outConf {
					if !locIn(conflicted, l) {
						conflicted = append(conflicted, l)
					}
				}
				for _, l := range antiConf {
					if !locIn(conflicted, l) {
						conflicted = append(conflicted, l)
					}
				}
			}
			u.scratchConf = conflicted
			// Remove the candidate from cur's aggregates before split can
			// flip its flags (MemRenamed): remove must see the flags the
			// candidate was added with.
			cur.remove(cand, slotIdx)
			if len(conflicted) > 0 {
				u.split(cand, cur, slotIdx, conflicted)
				if cs := cur.slots[slotIdx]; cs != nil {
					cur.add(cs, slotIdx)
				}
			} else {
				// Nothing left to protect (all outputs already renamed):
				// the move is safe without a new copy.
				cur.slots[slotIdx] = nil
			}
		} else {
			cur.remove(cand, slotIdx)
			cur.slots[slotIdx] = nil
		}

		// Move into the previous element.
		slotIdx = u.freeSlot(prev, cand.Inst.Class())
		prev.slots[slotIdx] = cand
		prev.sigR[slotIdx] = u.candR
		prev.sigW[slotIdx] = u.candW
		prev.add(cand, slotIdx)
		cand.Tag = prev.branches
		cohabitCross(cand, prev)
		elemIdx--
		u.Stats.MoveUps++
	}
	u.Stats.Installs++
}

// locIn reports whether l is already present in locs (small-set dedup
// replacing the previous per-decision map allocation).
func locIn(locs []isa.Loc, l isa.Loc) bool {
	for _, x := range locs {
		if x == l {
			return true
		}
	}
	return false
}

// startBlock begins a new block with c as its first instruction.
func (u *Scheduler) startBlock(c Completed) {
	u.newElement()
	u.blockTag = c.Addr
	u.blockCWP = c.CWP
	u.blockSeq = c.Seq
	u.blockIns = 0
	u.haveTag = true
	u.order = 0
	u.splits = 0
	u.renUsed = [NumRenameClasses]uint16{}
	u.renEpoch++
	u.renLive = 0
	if len(u.renameMap) > 0 {
		clear(u.renameMap)
	}
	u.currentCon = u.conservative[conKey(c.Addr, c.CWP)]
	if u.currentCon {
		u.Stats.ConservativeBl++
	}
}

// Flush ends the block under construction and returns it, or nil if the
// list is empty. nbaAddr is the SPARC address the block's next-block-
// address store receives: the address of the next instruction in the
// trace (on a VLIW Cache hit, the hit address, making the block point at
// the hit block, paper §3.6). endSeq is the sequence number of the
// instruction triggering the flush, which closes the block's trace span.
func (u *Scheduler) Flush(nbaAddr uint32, endSeq uint64) *Block {
	if len(u.elems) == 0 {
		return nil
	}
	return u.flush(nbaAddr, endSeq)
}

func (u *Scheduler) flush(nbaAddr uint32, endSeq uint64) *Block {
	if u.cfg.FaultSwapSlots || u.cfg.FaultLatencyViolation {
		u.injectFlushFaults()
	}
	// The block takes a compact copy of the slot grid (a pooled Height×Width
	// backing array, see takeBlock) so the element structs can be recycled
	// for the next block instead of being reallocated per long instruction.
	b := u.takeBlock(len(u.elems))
	b.Tag = u.blockTag
	b.EntryCWP = u.blockCWP
	b.NumLIs = len(u.elems)
	b.NBA = LongAddr{Addr: nbaAddr, Line: len(u.elems) - 1}
	b.Renames = u.renUsed
	b.Splits = u.splits
	b.FirstSeq = u.blockSeq
	b.EndSeq = endSeq
	b.Conservative = u.currentCon
	for i, e := range u.elems {
		copy(b.LIs[i], e.slots)
		b.ValidOps += e.occ
		u.releaseElement(e)
	}
	u.elems = u.elems[:0]
	u.haveTag = false
	if u.cfg.RecordTrace {
		b.Trace = append(b.Trace, u.trace...)
		u.trace = u.trace[:0]
	}
	// The strategy sees (and may rewrite) the finished block before flush
	// statistics and telemetry record its shape.
	u.strat.FinishBlock(u, b)
	u.Stats.BlocksFlushed++
	u.Stats.FlushedLIs += uint64(b.NumLIs)
	u.Stats.FlushedSlots += uint64(b.ValidOps)
	if u.tel != nil {
		u.tel.BlockFlushed(b.NumLIs, u.blockIns)
	}
	return b
}

// injectFlushFaults deliberately corrupts the finished schedule just
// before it is compacted into a Block, for blockcheck meta-tests. Each
// fault relocates one consumer into an illegal long instruction:
//
//   - FaultSwapSlots moves a consumer into the same long instruction as
//     one of its producers (a read-after-write violation);
//   - FaultLatencyViolation moves a consumer of a multicycle producer
//     into the producer's latency shadow.
//
// At most one slot is moved per block; blocks with no eligible victim
// pair flush unfaulted. The elements are about to be released, so only
// the aggregates flush still reads (slots, occ, occMask) are maintained;
// the moved slot's branch tag is recomputed for its destination so the
// injected violation stays surgical.
func (u *Scheduler) injectFlushFaults() {
	for i := 0; i < len(u.elems); i++ {
		p := u.elems[i]
		if p.occ == 0 {
			continue
		}
		for _, prod := range p.slots {
			if prod == nil || len(prod.writes) == 0 {
				continue
			}
			dstIdx := i
			if u.cfg.FaultLatencyViolation {
				if prod.LatOr1() < 2 {
					continue
				}
				dstIdx = i + 1 // strictly inside the latency shadow
			}
			for j := dstIdx + 1; j < len(u.elems); j++ {
				for cIdx, c := range u.elems[j].slots {
					if c == nil || c.IsCopy || c.IsMem || c.Inst.IsCTI() ||
						!overlapAny(c.reads, prod.writes) {
						continue
					}
					if u.relocateSlot(j, cIdx, dstIdx) {
						return
					}
				}
			}
		}
	}
}

// relocateSlot moves the slot at (srcElem, srcIdx) into a free
// class-compatible slot of dstElem, returning false if none is free.
func (u *Scheduler) relocateSlot(srcElem, srcIdx, dstElem int) bool {
	src, dst := u.elems[srcElem], u.elems[dstElem]
	c := src.slots[srcIdx]
	idx := u.freeSlot(dst, c.Inst.Class())
	if idx < 0 {
		return false
	}
	src.slots[srcIdx] = nil
	src.occ--
	src.occMask &^= 1 << uint(srcIdx)
	dst.slots[idx] = c
	dst.occ++
	dst.occMask |= 1 << uint(idx)
	var tag uint8
	for _, s := range dst.slots {
		if s != nil && s != c && s.IsCondOrIndirectBranch() && s.Seq < c.Seq {
			tag++
		}
	}
	c.Tag = tag
	return true
}

// Dump renders the scheduling list for debugging, in the style of the
// paper's Figure 2c.
func (u *Scheduler) Dump() string {
	out := ""
	for i, e := range u.elems {
		prefix := "     "
		if i == 0 {
			prefix = "slh->"
		}
		if i == len(u.elems)-1 {
			prefix = "slt->"
		}
		out += prefix
		for _, s := range e.slots {
			out += fmt.Sprintf(" | %-28s", s.String())
		}
		out += "\n"
	}
	return out
}
