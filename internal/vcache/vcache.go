// Package vcache implements the VLIW Cache (paper §3.4): a set-associative
// cache whose line is one block of long instructions, tagged with the SPARC
// ISA address of the first instruction placed in the block, with a next
// block address (nba) store per line. Long instructions within a block are
// addressed by {address field, line index} pairs.
//
// Beyond the paper's structure, lines carry direct chain links (DESIGN.md
// §16): each line records, per exit (PC, CWP), the index of the line
// holding the successor block, so the machine can stream from block to
// block without an associative lookup per transition — the software
// analogue of translation-block chaining in dynamic binary translators.
package vcache

import (
	"fmt"

	"dtsvliw/internal/sched"
	"dtsvliw/internal/telemetry"
	"dtsvliw/internal/vliw"
)

// Config sizes the VLIW Cache.
type Config struct {
	SizeKB int // total capacity in kilobytes
	Assoc  int
	// Width/Height of a block and DecodedBytes (paper Table 1: 6 bytes per
	// decoded instruction) determine how many blocks fit.
	Width, Height int
	DecodedBytes  int // bytes per decoded instruction slot
	NBABytes      int // bytes per nba store
}

// BlockBytes returns the line size of the cache in bytes.
func (c Config) BlockBytes() int {
	return c.Width*c.Height*c.DecodedBytes + c.NBABytes
}

// Blocks returns the number of block lines the cache holds.
func (c Config) Blocks() int {
	n := c.SizeKB * 1024 / c.BlockBytes()
	if n < c.Assoc {
		n = c.Assoc
	}
	return n
}

// chainMaxEdges bounds the per-line successor table. Hot blocks exit to
// very few distinct targets (the fall-through NBA plus a handful of trace
// exits); a full table keeps its first-installed edges — a deterministic
// policy, so runs are reproducible — and later targets simply keep paying
// the associative lookup.
const chainMaxEdges = 8

// chainEdge is one exit link: the block in this line, when it exits to
// (pc, cwp), continues in line to.
type chainEdge struct {
	pc  uint32
	cwp uint8
	to  int32
}

// NoLine is the line index returned when a lookup misses; Machine code
// uses it as the "not executing from a cached line" sentinel.
const NoLine int32 = -1

// SetGroups is the number of set-index buckets the per-set activity
// counters aggregate into. A large VLIW Cache has thousands of sets —
// far too many for one metric series each — so sets are folded into
// SetGroups contiguous groups (group g covers sets [g*sets/SetGroups,
// (g+1)*sets/SetGroups)), enough to see hot-set skew without exploding
// metric cardinality.
const SetGroups = 16

// Cache is the VLIW Cache.
type Cache struct {
	cfg     Config //resetcheck:allow configuration is fixed at construction
	sets    int    //resetcheck:allow derived from cfg at construction
	setMask uint32 //resetcheck:allow sets-1 (sets is a power of two), fixed at construction
	lines   []line // sets*assoc
	clock   uint64
	// used records the index of every line that has held a block since
	// the last Drain, so resetting a reused cache touches O(stores)
	// lines instead of zeroing the whole (multi-megabyte, mostly empty)
	// line array.
	used []int

	Hits       uint64
	Misses     uint64
	Stores     uint64 // blocks saved
	Replaced   uint64 // valid blocks evicted
	Invalidats uint64

	// Per-set-group activity (DESIGN.md §17): lookups (hits + misses,
	// chain hits included), hits, evictions and invalidations bucketed by
	// set index into SetGroups groups. groupShift maps a set index to its
	// group. Plain single-owner counters like the totals above; the
	// metrics publisher snapshots them at coarse sync points.
	SetLookups       [SetGroups]uint64
	SetHits          [SetGroups]uint64
	SetEvictions     [SetGroups]uint64
	SetInvalidations [SetGroups]uint64
	groupShift       uint //resetcheck:allow pure function of sets, computed at construction

	// Chain-link statistics: ChainHits counts transitions resolved by
	// Follow (each also counts in Hits — a chain hit is architecturally a
	// cache hit), ChainLinks edges installed, ChainUnlinks edges severed
	// by replacement or invalidation.
	ChainHits    uint64
	ChainLinks   uint64
	ChainUnlinks uint64

	tel *telemetry.Collector //resetcheck:allow nil when telemetry is disabled; pooled reuse refuses telemetry machines
}

// SetTelemetry attaches a telemetry collector (nil detaches).
func (c *Cache) SetTelemetry(t *telemetry.Collector) { c.tel = t }

type line struct {
	valid bool
	tag   uint32
	cwp   uint8
	ent   Entry
	lru   uint64

	// edges is the outbound successor table; inRefs lists every line
	// holding an edge that targets this line, so unlink can sever all
	// inbound links in O(degree) when the line is replaced or
	// invalidated. Both keep their capacity across clears.
	edges  []chainEdge
	inRefs []int32
}

// Entry is one cache line's payload: the scheduled block and its
// decode-once lowered form, the form the VLIW Engine executes (the
// software analogue of the paper's decoded-instruction line, §3.4). The
// machine saves only blocks that lower, so Low is never nil in its cache;
// the cache itself treats it as an opaque payload. Prof is the block's
// telemetry profile, resolved once at save time so the per-entry hook
// needs no map lookup; nil when telemetry is off.
type Entry struct {
	Blk  *sched.Block
	Low  *vliw.LoweredBlock
	Prof *telemetry.BlockProf
}

// New builds a VLIW Cache.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeKB <= 0 || cfg.Assoc <= 0 {
		return nil, fmt.Errorf("vcache: bad config %+v", cfg)
	}
	c := &Cache{cfg: cfg}
	c.sets = cfg.Blocks() / cfg.Assoc
	if c.sets == 0 {
		c.sets = 1
	}
	// Round the set count up to a power of two so the index computation
	// is a mask instead of a modulo. The capacity model rounds up with
	// it; DESIGN.md §16 records the deviation from the paper's exact
	// byte budget.
	pow := 1
	for pow < c.sets {
		pow <<= 1
	}
	c.sets = pow
	c.setMask = uint32(pow - 1)
	for (c.sets >> c.groupShift) > SetGroups {
		c.groupShift++
	}
	c.lines = make([]line, c.sets*cfg.Assoc)
	return c, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets (a power of two).
func (c *Cache) Sets() int { return c.sets }

// set maps a block tag (SPARC instruction address) to its set index.
func (c *Cache) set(tag uint32) int { return int((tag >> 2) & c.setMask) }

// group maps a set index to its set-group bucket.
func (c *Cache) group(set int) int { return set >> c.groupShift }

// lineGroup maps a line index to its set-group bucket.
func (c *Cache) lineGroup(line int32) int {
	return c.group(int(line) / c.cfg.Assoc)
}

// Lookup finds the block tagged with (addr, cwp). The window pointer is
// part of the tag: the physical register addresses recorded in a block are
// only valid at the window depth the block was scheduled at (see DESIGN.md
// §5). It counts a hit or miss.
func (c *Cache) Lookup(addr uint32, cwp uint8) (Entry, bool) {
	ent, _, ok := c.LookupLine(addr, cwp)
	return ent, ok
}

// LookupLine is Lookup returning also the index of the hit line (NoLine
// on a miss), so the machine can chain from it.
func (c *Cache) LookupLine(addr uint32, cwp uint8) (Entry, int32, bool) {
	set := c.set(addr)
	g := c.group(set)
	c.SetLookups[g]++
	base := set * c.cfg.Assoc
	for i := 0; i < c.cfg.Assoc; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == addr && l.cwp == cwp {
			c.clock++
			l.lru = c.clock
			c.Hits++
			c.SetHits[g]++
			return l.ent, int32(base + i), true
		}
	}
	c.Misses++
	if c.tel != nil {
		c.tel.CacheMiss(telemetry.EvVCacheMiss, addr)
	}
	return Entry{}, NoLine, false
}

// Probe is Lookup without statistics, for callers that only test presence.
func (c *Cache) Probe(addr uint32, cwp uint8) (Entry, bool) {
	base := c.set(addr) * c.cfg.Assoc
	for i := 0; i < c.cfg.Assoc; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == addr && l.cwp == cwp {
			return l.ent, true
		}
	}
	return Entry{}, false
}

// Follow consults line from's successor table for a link to (pc, cwp).
// On a hit it performs exactly Lookup's hit bookkeeping — clock advance,
// LRU touch, hit count — so a chained run leaves the cache in the state
// an unchained run would: replacement decisions, statistics and telemetry
// are identical either way (the architectural-invisibility contract).
// Precise unlinking guarantees a present edge always targets the valid
// line holding (pc, cwp), so no tag re-validation is needed.
func (c *Cache) Follow(from int32, pc uint32, cwp uint8) (Entry, int32, bool) {
	l := &c.lines[from]
	for i := range l.edges {
		e := &l.edges[i]
		if e.pc == pc && e.cwp == cwp {
			t := &c.lines[e.to]
			c.clock++
			t.lru = c.clock
			c.Hits++
			c.ChainHits++
			g := c.lineGroup(e.to)
			c.SetLookups[g]++
			c.SetHits[g]++
			return t.ent, e.to, true
		}
	}
	return Entry{}, NoLine, false
}

// Link installs the exit edge (pc, cwp) -> to on line from, recording the
// inbound reference on the target so unlink can sever it. Installing an
// edge that already exists, or one past the per-line table bound, is a
// no-op; either way the next Follow behaves deterministically.
func (c *Cache) Link(from int32, pc uint32, cwp uint8, to int32) {
	l := &c.lines[from]
	if !l.valid || !c.lines[to].valid || len(l.edges) >= chainMaxEdges {
		return
	}
	for i := range l.edges {
		if l.edges[i].pc == pc && l.edges[i].cwp == cwp {
			return
		}
	}
	l.edges = append(l.edges, chainEdge{pc: pc, cwp: cwp, to: to})
	c.lines[to].inRefs = append(c.lines[to].inRefs, from)
	c.ChainLinks++
	if c.tel != nil {
		c.tel.ChainLinked(l.tag, pc)
	}
}

// unlink severs every chain edge touching line v: inbound edges (other
// lines whose successor table targets v, found through v's back-pointer
// list) and v's own outbound edges (removing v from its successors'
// back-pointer lists). Called before any overwrite or invalidation of a
// valid line, so a window-pointer change, set replacement or aliasing
// invalidation can never leave a link to a stale line behind.
func (c *Cache) unlink(v int32) {
	l := &c.lines[v]
	severed := uint64(0)
	for _, from := range l.inRefs {
		f := &c.lines[from]
		for i := 0; i < len(f.edges); {
			if f.edges[i].to == v {
				f.edges[i] = f.edges[len(f.edges)-1]
				f.edges = f.edges[:len(f.edges)-1]
				severed++
			} else {
				i++
			}
		}
	}
	l.inRefs = l.inRefs[:0]
	// A self-loop edge was already removed by the inbound walk above, so
	// the outbound walk only sees edges to other lines.
	for _, e := range l.edges {
		t := &c.lines[e.to]
		for i := 0; i < len(t.inRefs); {
			if t.inRefs[i] == v {
				t.inRefs[i] = t.inRefs[len(t.inRefs)-1]
				t.inRefs = t.inRefs[:len(t.inRefs)-1]
			} else {
				i++
			}
		}
		severed++
	}
	l.edges = l.edges[:0]
	if severed > 0 {
		c.ChainUnlinks += severed
		if c.tel != nil {
			c.tel.ChainUnlinked(l.tag, severed)
		}
	}
}

// Save stores a block and its (possibly nil) lowered form, replacing the
// LRU way of its set (or an existing block with the same tag). It returns
// the entry the save displaced (zero if the line was empty), which the
// cache no longer references: the caller may recycle its storage.
func (c *Cache) Save(b *sched.Block, low *vliw.LoweredBlock) (displaced Entry) {
	c.Stores++
	c.clock++
	base := c.set(b.Tag) * c.cfg.Assoc
	victim := base
	for i := 0; i < c.cfg.Assoc; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == b.Tag && l.cwp == b.EntryCWP {
			victim = base + i
			break
		}
		if !c.lines[victim].valid {
			continue
		}
		if !l.valid || l.lru < c.lines[victim].lru {
			victim = base + i
		}
	}
	if c.lines[victim].valid {
		displaced = c.lines[victim].ent
		// Every overwrite severs the victim's chain edges — including a
		// same-tag reschedule, whose cached lowered form is replaced, so
		// a link must re-resolve through Lookup before it is trusted
		// again.
		c.unlink(int32(victim))
		if c.lines[victim].tag != b.Tag || c.lines[victim].cwp != b.EntryCWP {
			c.Replaced++
			c.SetEvictions[c.group(c.set(b.Tag))]++
			if c.tel != nil {
				c.tel.BlockEvicted(c.lines[victim].tag)
			}
		}
	}
	if !c.lines[victim].valid {
		c.used = append(c.used, victim)
	}
	ent := Entry{Blk: b, Low: low}
	if c.tel != nil {
		ent.Prof = c.tel.Profile(b.Tag)
	}
	vl := &c.lines[victim]
	*vl = line{valid: true, tag: b.Tag, cwp: b.EntryCWP,
		ent: ent, lru: c.clock,
		edges: vl.edges[:0], inRefs: vl.inRefs[:0]}
	return displaced
}

// Invalidate drops the block tagged (addr, cwp) (paper §3.11: aliasing
// exceptions invalidate the faulting block), severing its chain edges. It
// returns the dropped entry (zero if none was cached), which the cache no
// longer references.
func (c *Cache) Invalidate(addr uint32, cwp uint8) (dropped Entry) {
	base := c.set(addr) * c.cfg.Assoc
	for i := 0; i < c.cfg.Assoc; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == addr && l.cwp == cwp {
			c.unlink(int32(base + i))
			dropped = l.ent
			l.valid = false
			l.ent = Entry{}
			c.Invalidats++
			c.SetInvalidations[c.group(c.set(addr))]++
			if c.tel != nil {
				c.tel.BlockInvalidated(addr)
			}
		}
	}
	return dropped
}

// Reset clears the cache.
func (c *Cache) Reset() {
	c.Drain(nil)
}

// Drain clears the cache like Reset, handing every valid entry to fn (when
// non-nil) before it is dropped, so callers can recycle block storage —
// the machine pool returns drained blocks to the scheduler's block pool.
// Chain edges die with their lines wholesale (the per-edge unlink walk
// would be pure overhead when everything goes); edge and back-pointer
// storage keeps its capacity for the next run.
func (c *Cache) Drain(fn func(Entry)) {
	for _, i := range c.used {
		l := &c.lines[i]
		if fn != nil && l.valid {
			fn(l.ent)
		}
		*l = line{edges: l.edges[:0], inRefs: l.inRefs[:0]}
	}
	c.used = c.used[:0]
	c.clock = 0
	c.Hits, c.Misses, c.Stores, c.Replaced, c.Invalidats = 0, 0, 0, 0, 0
	c.ChainHits, c.ChainLinks, c.ChainUnlinks = 0, 0, 0
	c.SetLookups = [SetGroups]uint64{}
	c.SetHits = [SetGroups]uint64{}
	c.SetEvictions = [SetGroups]uint64{}
	c.SetInvalidations = [SetGroups]uint64{}
}
