package sched

import (
	"math/bits"
	"math/rand"
	"testing"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/progen"
)

// randLoc draws one footprint location the way real traces produce them,
// with occasional out-of-encoding strays to exercise the SigOver fallback.
func randLoc(r *rand.Rand) isa.Loc {
	switch r.Intn(10) {
	case 0, 1, 2, 3:
		return isa.IReg(uint16(r.Intn(isa.SigIntWords*64 + 8)))
	case 4:
		return isa.FReg(uint16(r.Intn(66)))
	case 5:
		return isa.Loc{Kind: isa.LocICC}
	case 6:
		return isa.Loc{Kind: isa.LocCWP}
	case 7, 8:
		return isa.MemLoc(uint32(r.Intn(128)), uint8(1+r.Intn(8)))
	default:
		return isa.Loc{Kind: isa.LocRen, Idx: uint16(r.Intn(68)), Addr: uint32(r.Intn(5))}
	}
}

func randLocs(r *rand.Rand) []isa.Loc {
	locs := make([]isa.Loc, r.Intn(5))
	for i := range locs {
		locs[i] = randLoc(r)
	}
	return locs
}

// sigOverlap is the scheduler's composite overlap decision: the exact bits
// first, then the memory-interval compare when both sides carry LocMem,
// then the naive scan when a side overflowed the encoding.
func sigOverlap(a, b []isa.Loc) bool {
	var sa, sb isa.Sig
	sa.AddSet(a)
	sb.AddSet(b)
	if sa.Hit(&sb) {
		return true
	}
	if sa.Over(&sb) {
		return overlapAny(a, b)
	}
	if sa.MemBoth(&sb) {
		for _, l := range a {
			if l.Kind == isa.LocMem && memAnyOverlap(b, l) {
				return true
			}
		}
	}
	return false
}

// TestMaskOverlapMatchesNaive: the bitset overlap predicate is equivalent
// to the naive pairwise Loc scan on random footprints.
func TestMaskOverlapMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		a, b := randLocs(r), randLocs(r)
		if got, want := sigOverlap(a, b), overlapAny(a, b); got != want {
			t.Fatalf("sig=%v naive=%v:\n a=%v\n b=%v", got, want, a, b)
		}
	}
}

// checkAggregates recomputes every element's cached signatures and
// counters from its installed slots and compares them with the
// incrementally maintained state.
func checkAggregates(t *testing.T, u *Scheduler, when string) {
	t.Helper()
	for ei, e := range u.elems {
		var rsig isa.Sig
		wsig := make([]isa.Sig, u.maxLat+1)
		var latMask, occMask uint64
		var occ, ctis, mems, stores, loads, memWrites int
		for i, s := range e.slots {
			if s == nil {
				continue
			}
			occ++
			occMask |= 1 << i
			var sr, sw isa.Sig
			sr.AddSet(s.reads)
			sw.AddSet(s.writes)
			if sr != e.sigR[i] || sw != e.sigW[i] {
				t.Fatalf("%s: elem %d slot %d: stale per-slot signature", when, ei, i)
			}
			lat := s.LatOr1()
			if int(e.slotLat[i]) != lat {
				t.Fatalf("%s: elem %d slot %d: slotLat %d != %d", when, ei, i, e.slotLat[i], lat)
			}
			rsig.Or(&sr)
			wsig[lat].Or(&sw)
			latMask |= 1 << lat
			memCopy := s.IsCopy && hasMemCopy(s)
			if s.IsCondOrIndirectBranch() {
				ctis++
			}
			if s.IsMem || memCopy {
				mems++
			}
			if (s.IsStore && !s.MemRenamed) || memCopy {
				stores++
			}
			if !s.IsCopy && s.IsMem && !s.IsStore {
				loads++
			}
			if s.IsMem || s.IsCopy {
				for _, w := range s.writes {
					if w.Kind == isa.LocMem {
						memWrites++
					}
				}
			}
		}
		if occ != e.occ || occMask != e.occMask {
			t.Fatalf("%s: elem %d: occupancy %d/%#x != cached %d/%#x",
				when, ei, occ, occMask, e.occ, e.occMask)
		}
		if ctis != e.ctis || mems != e.mems || stores != e.stores || loads != e.loads {
			t.Fatalf("%s: elem %d: counters (%d,%d,%d,%d) != cached (%d,%d,%d,%d)",
				when, ei, ctis, mems, stores, loads, e.ctis, e.mems, e.stores, e.loads)
		}
		if rsig != e.rsig {
			t.Fatalf("%s: elem %d: rsig aggregate stale", when, ei)
		}
		if latMask != e.latMask {
			t.Fatalf("%s: elem %d: latMask %#x != cached %#x", when, ei, latMask, e.latMask)
		}
		for lm := latMask; lm != 0; lm &= lm - 1 {
			l := bits.TrailingZeros64(lm)
			if wsig[l] != e.wsigLat[l] {
				t.Fatalf("%s: elem %d: wsigLat[%d] aggregate stale", when, ei, l)
			}
		}
		if memWrites != len(e.memW) {
			t.Fatalf("%s: elem %d: %d LocMem writes != %d side-table entries",
				when, ei, memWrites, len(e.memW))
		}
		for _, mw := range e.memW {
			s := e.slots[mw.slot]
			if s == nil {
				t.Fatalf("%s: elem %d: memW entry for empty slot %d", when, ei, mw.slot)
			}
			if int(mw.lat) != s.LatOr1() {
				t.Fatalf("%s: elem %d: memW lat %d != slot lat %d", when, ei, mw.lat, s.LatOr1())
			}
		}
	}
}

// TestElementAggregatesConsistent replays real traces and revalidates the
// incrementally maintained element aggregates against a from-scratch
// recomputation after every insertion (install, move-up and split paths
// all mutate them).
func TestElementAggregatesConsistent(t *testing.T) {
	for _, shape := range progen.Shapes() {
		t.Run(shape.String(), func(t *testing.T) {
			cfg := feedConfig()
			if shape == progen.ShapeMulticycle {
				cfg.LoadLatency = 2
				cfg.FPLatency = 3
				cfg.FPDivLatency = 8
			}
			events := recordTrace(t, shape, 2, 6_000)
			u, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range events {
				ev := &events[i]
				if ev.flush {
					u.Flush(ev.c.Addr, ev.c.Seq)
					continue
				}
				if _, err := u.Insert(ev.c); err != nil {
					t.Fatal(err)
				}
				checkAggregates(t, u, "after insert")
			}
		})
	}
}

// TestDependencyChecksZeroAlloc: once pools and scratch buffers are warm,
// the dependency-check core of the insertion path (true, output, anti and
// copy-safety queries) performs no heap allocation.
func TestDependencyChecksZeroAlloc(t *testing.T) {
	events := recordTrace(t, progen.ShapeMixed, 1, 20_000)
	u, err := New(feedConfig())
	if err != nil {
		t.Fatal(err)
	}
	replay(t, u, events) // warm pools, arenas and scratch buffers

	// Repopulate the scheduling list and stop with it non-empty.
	for i := range events {
		ev := &events[i]
		if ev.flush {
			continue
		}
		if _, err := u.Insert(ev.c); err != nil {
			t.Fatal(err)
		}
		if u.Len() >= u.cfg.Height-1 {
			break
		}
	}
	if u.Empty() {
		t.Fatal("scheduling list empty after repopulation")
	}
	tail := u.Len() - 1
	e := u.elems[tail]
	slotIdx := bits.TrailingZeros64(e.occMask)
	if slotIdx >= u.cfg.Width {
		t.Fatal("tail element has no installed slot")
	}
	cand := e.slots[slotIdx]
	u.candR.Reset()
	u.candR.AddSet(cand.reads)
	u.candW.Reset()
	u.candW.AddSet(cand.writes)

	allocs := testing.AllocsPerRun(200, func() {
		u.trueDepBlocked(cand, tail)
		u.wawBlocked(cand, tail)
		u.wawCopyUnsafe(cand, tail)
		u.horizonOutputConflicts(cand, tail)
		u.antiConflicts(cand, e, slotIdx)
		u.memSerialized(cand, e)
		u.freeSlot(e, cand.Inst.Class())
	})
	if allocs != 0 {
		t.Fatalf("dependency-check steady state allocated %.1f times per run", allocs)
	}
}

// TestInsertSteadyStateZeroAlloc: once a scheduler is warm, the whole
// Insert/Flush path allocates nothing when every flushed block is
// recycled the way the machine recycles evicted blocks — Insert's
// argument does not escape, slots keep their list storage, and blocks
// come back from the pool with their grids.
func TestInsertSteadyStateZeroAlloc(t *testing.T) {
	for _, shape := range progen.Shapes() {
		cfg := feedConfig()
		if shape == progen.ShapeMulticycle {
			cfg.LoadLatency, cfg.FPLatency, cfg.FPDivLatency = 2, 3, 8
		}
		events := recordTrace(t, shape, 1, 20_000)
		u, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		replay(t, u, events) // warm slots, blocks, elements and scratch buffers
		if allocs := testing.AllocsPerRun(5, func() { replay(t, u, events) }); allocs != 0 {
			t.Errorf("%s: steady-state Insert/Flush allocated %.1f times per replay", shape, allocs)
		}
	}
}
