//go:build !e2eonly

package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/core"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/primary"
	"dtsvliw/internal/sched"
	"dtsvliw/internal/telemetry"
	"dtsvliw/internal/vcache"
	"dtsvliw/internal/vliw"
)

// The traced run measures the layers that execute inside Machine.Run by
// recording the real streams of one machine run and replaying each stream
// alone through that layer's public functions.
//
// The recording run sets Config.VerifyBlocks, so every saved block carries
// its sequential trace, and observes the machine through its public hooks:
// BlockHook sees every saved block, and CheckpointHook sees every commit
// point. A shadow sequential interpreter follows the checkpoints, which
// yields each Primary Processor step with its decoded instruction and
// outcome, the engine handovers, and the window pointer at every VLIW Cache
// lookup. From these the recorder rebuilds two streams:
//
//   - the Scheduler Unit's input with its flush points (schedEv), which
//     also drives the Primary Processor pricing replay;
//   - the VLIW Cache dispatch sequence (dispEv): Fetch Unit probes, block
//     transitions, saves and invalidations.
//
// Each replay checks itself against the recording (same blocks flushed,
// same hits and misses), so a stale reconstruction shows in the report.

// Scheduler-stream event kinds.
const (
	evInsert       = iota // schedulable Primary step: Insert
	evNonSched            // non-schedulable Primary step: Flush before it
	evExcStep             // Primary step in exception mode: priced only
	evProbeFlush          // VLIW Cache probe hit: Flush, handover to VLIW
	evToPrimary           // handover back to the Primary Processor
	evConservative        // aliasing rollback: MarkConservative
)

type schedEv struct {
	kind uint8
	c    sched.Completed
}

// Dispatch-stream event kinds.
const (
	dvProbe      = iota // Fetch Unit probe before a Primary step
	dvChain             // successor lookup at a block transition
	dvSave              // block saved to the VLIW Cache
	dvInvalidate        // aliasing rollback invalidates the block
)

type dispEv struct {
	kind uint8
	hit  bool // recorded outcome of a probe or transition
	cwp  uint8
	pc   uint32
	blk  int32 // dvSave: index into recording.blocks
}

// recording is everything one recorded machine run yields.
type recording struct {
	cfg      core.Config
	schedCfg sched.Config
	stats    core.Stats
	sched    []schedEv
	disp     []dispEv
	blocks   []*sched.Block
	primary  uint64 // Primary Processor steps

	telEvents  [telemetry.NumKinds]uint64
	telDropped uint64
}

type recorder struct {
	rec       *recording
	shadow    *arch.State
	seq       uint64
	inVLIW    bool
	skipProbe bool
	excBudget uint64
	chain     int     // index in rec.disp of the unresolved transition, -1 if none
	pending   []int32 // saved blocks not yet placed in the dispatch stream
	spans     map[uint64]uint64
	err       error
}

// record runs one program on a recording machine. st must be freshly
// loaded; bound holds the Stats of an untraced run of the same program and
// sizes the telemetry ring so that it does not wrap.
func record(st *arch.State, cfg core.Config, bound core.Stats) (*recording, error) {
	shadow := st.Clone()
	shadow.LogStores = false
	cfg.VerifyBlocks = true
	cfg.Telemetry = &telemetry.Config{RingSize: ringBound(bound)}
	m, err := core.NewMachine(cfg, st)
	if err != nil {
		return nil, err
	}
	r := &recorder{rec: &recording{cfg: cfg}, shadow: shadow, chain: -1, spans: map[uint64]uint64{}}
	r.rec.schedCfg = m.Scheduler().Config()
	r.rec.schedCfg.RecordTrace = false
	m.BlockHook = r.saved
	m.CheckpointHook = r.checkpoint
	if err := m.Run(); err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	r.resolveChain(false)
	r.flushSaves()
	r.rec.stats = m.Stats
	tel := m.Telemetry()
	for _, ev := range tel.Events() {
		r.rec.telEvents[ev.Kind]++
	}
	r.rec.telDropped = tel.Dropped()
	return r.rec, nil
}

// ringBound is an upper bound on the telemetry events of a run with the
// given Stats: every event kind is bounded by one counter.
func ringBound(s core.Stats) int {
	n := s.ICacheMisses + s.DCacheMisses + s.VCacheMisses + s.Sched.Splits +
		3*s.Engine.BlocksEntered + 2*s.Switches + 3*s.BlocksSaved +
		s.VCacheChainLinks + s.VCacheChainUnlinks + s.ExitPredHits + s.ExitPredMisses +
		2*(s.AliasingExceptions+s.OtherExceptions)
	return int(n) + 4096
}

func spanKey(tag uint32, cwp uint8) uint64 { return uint64(tag)<<8 | uint64(cwp) }

func (r *recorder) saved(b *sched.Block) {
	r.pending = append(r.pending, int32(len(r.rec.blocks)))
	r.rec.blocks = append(r.rec.blocks, b)
	r.spans[spanKey(b.Tag, b.EntryCWP)] = b.EndSeq - b.FirstSeq
}

func (r *recorder) flushSaves() {
	for _, i := range r.pending {
		r.rec.disp = append(r.rec.disp, dispEv{kind: dvSave, blk: i})
	}
	r.pending = r.pending[:0]
}

func (r *recorder) resolveChain(hit bool) {
	if r.chain >= 0 {
		r.rec.disp[r.chain].hit = hit
		r.chain = -1
	}
}

// enterVLIW notes the probe hit that hands over to the VLIW Engine: the
// scheduling list is flushed and its block saved after the lookup.
func (r *recorder) enterVLIW() {
	if r.inVLIW {
		return
	}
	pc, cwp := r.shadow.PC, r.shadow.CWP()
	r.rec.disp = append(r.rec.disp, dispEv{kind: dvProbe, hit: true, pc: pc, cwp: cwp})
	r.rec.sched = append(r.rec.sched, schedEv{kind: evProbeFlush, c: sched.Completed{Addr: pc, Seq: r.seq}})
	r.flushSaves()
	r.inVLIW = true
}

func (r *recorder) toPrimary() {
	r.rec.sched = append(r.rec.sched, schedEv{kind: evToPrimary})
	r.inVLIW = false
	r.skipProbe = true
}

func (r *recorder) step() (isa.Inst, isa.Outcome, error) {
	in, out, err := r.shadow.StepOutcome()
	if err != nil {
		r.err = fmt.Errorf("shadow interpreter: %w", err)
	}
	return in, out, err
}

// checkpoint mirrors the machine's control flow between two commit
// points, in the order the machine performs it (see core.Machine's
// stepPrimary and runVLIW).
func (r *recorder) checkpoint(advance uint64, pc uint32, where string) error {
	if r.err != nil {
		return r.err
	}
	switch {
	case strings.HasPrefix(where, "primary"):
		r.resolveChain(false)
		if r.inVLIW {
			r.toPrimary()
		}
		pc0, cwp := r.shadow.PC, r.shadow.CWP()
		if !r.skipProbe && r.excBudget == 0 {
			r.rec.disp = append(r.rec.disp, dispEv{kind: dvProbe, pc: pc0, cwp: cwp})
		}
		r.skipProbe = false
		in, out, err := r.step()
		if err != nil {
			return err
		}
		kind := uint8(evInsert)
		switch {
		case r.excBudget > 0:
			r.excBudget--
			kind = evExcStep
		case !in.IsSchedulable():
			kind = evNonSched
		}
		r.rec.sched = append(r.rec.sched, schedEv{kind: kind,
			c: sched.Completed{Inst: in, Addr: pc0, CWP: cwp, Outcome: out, Seq: r.seq}})
		r.seq++
		r.rec.primary++
		r.flushSaves()
	case strings.HasPrefix(where, "rollback"):
		r.enterVLIW()
		r.resolveChain(true)
		cwp := r.shadow.CWP()
		if strings.Contains(where, "vliw: aliasing") {
			r.rec.disp = append(r.rec.disp, dispEv{kind: dvInvalidate, pc: pc, cwp: cwp})
			r.rec.sched = append(r.rec.sched, schedEv{kind: evConservative, c: sched.Completed{Addr: pc, CWP: cwp}})
		} else {
			r.excBudget = r.spans[spanKey(pc, cwp)]
		}
		r.toPrimary()
	default: // block end or trace exit in VLIW mode
		r.enterVLIW()
		r.resolveChain(true)
		for i := uint64(0); i < advance; i++ {
			if _, _, err := r.step(); err != nil {
				return err
			}
		}
		r.seq += advance
		r.rec.disp = append(r.rec.disp, dispEv{kind: dvChain, pc: pc, cwp: r.shadow.CWP()})
		r.chain = len(r.rec.disp) - 1
		r.skipProbe = true
	}
	if r.shadow.PC != pc {
		r.err = fmt.Errorf("shadow interpreter at %#08x, machine at %#08x (%s)", r.shadow.PC, pc, where)
	}
	return r.err
}

// timerCost is the bias of an individually timed call: the interval a
// time.Now/time.Since pair reports around nothing. traced sets it with
// calibrateTimer, and it is subtracted from every individually timed call.
var timerCost time.Duration

func calibrateTimer() time.Duration {
	const n = 100000
	var sum time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		sum += time.Since(t)
	}
	return sum / n
}

// layerTimes is what one replay of one recording measured.
type layerTimes struct {
	arch, price, sched, flush, lower, vcache, save, follow time.Duration

	archInstrs                       uint64
	inserts, flushes, saves, follows int
	schedAllocs, lowerAllocs         uint64

	schedMismatch, vcacheMismatch int
}

// replay replays every stream of rec alone; fresh builds the program's
// power-on state for the whole-program interpreter replay.
func replay(rec *recording, fresh func() (*arch.State, error)) (layerTimes, error) {
	var lt layerTimes
	st, err := fresh()
	if err != nil {
		return lt, err
	}
	start := time.Now()
	for !st.Halted {
		if _, _, err := st.StepOutcome(); err != nil {
			return lt, err
		}
		lt.archInstrs++
	}
	lt.arch = time.Since(start)

	lt.price = replayPrimary(rec)
	blocks, err := replaySched(rec, &lt)
	if err != nil {
		return lt, err
	}
	lows := replayLower(rec, blocks, &lt)
	lt.vcache, err = replayVCache(rec, blocks, lows, &lt, false)
	if err != nil {
		return lt, err
	}
	// Follow is too cheap to time call by call: its cost is the extra
	// time of a replay that repeats it followRepeat more times at every
	// transition (a repeat has the first call's outcome and LRU update).
	repeated, err := replayVCache(rec, blocks, lows, &layerTimes{}, true)
	if err != nil {
		return lt, err
	}
	lt.follow = (repeated - lt.vcache) / followRepeat
	return lt, nil
}

// replayPrimary prices every Primary Processor step the way stepPrimary
// does (footprint, then Pipeline.Price), flushing pipeline state at each
// engine handover.
func replayPrimary(rec *recording) time.Duration {
	pcfg := rec.cfg.Pipeline
	pcfg.LoadLatency = rec.cfg.LoadLatency
	pcfg.FPLatency = rec.cfg.FPLatency
	pcfg.FPDivLatency = rec.cfg.FPDivLatency
	pipe := primary.New(pcfg)
	nwin := rec.cfg.NWin
	var reads, writes []isa.Loc
	start := time.Now()
	for i := range rec.sched {
		e := &rec.sched[i]
		switch e.kind {
		case evInsert, evNonSched, evExcStep:
			reads, writes = e.c.Inst.EffectsAppend(e.c.CWP, nwin, e.c.Outcome.EA, reads[:0], writes[:0])
			pipe.Price(&e.c.Inst, isa.Effects{Reads: reads, Writes: writes}, e.c.Outcome)
		case evProbeFlush, evToPrimary:
			pipe.FlushState()
		}
	}
	return time.Since(start)
}

// replaySched feeds the Scheduler Unit's recorded input to a fresh
// scheduler with the machine's configuration. Blocks are never recycled,
// which is the lifetime the machine gives them within one run. It returns
// the flushed blocks, or the recorded ones if the replay did not reproduce
// them exactly.
func replaySched(rec *recording, lt *layerTimes) ([]*sched.Block, error) {
	u, err := sched.New(rec.schedCfg)
	if err != nil {
		return nil, err
	}
	out := make([]*sched.Block, 0, len(rec.blocks))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := range rec.sched {
		e := &rec.sched[i]
		var b *sched.Block
		switch e.kind {
		case evInsert:
			if b, err = u.Insert(e.c); err != nil {
				return nil, err
			}
			lt.inserts++
		case evNonSched, evProbeFlush:
			t := time.Now()
			b = u.Flush(e.c.Addr, e.c.Seq)
			lt.flush += time.Since(t) - timerCost
			lt.flushes++
		case evConservative:
			u.MarkConservative(e.c.Addr, e.c.CWP)
		}
		if b != nil {
			out = append(out, b)
		}
	}
	lt.sched = time.Since(start) - time.Duration(lt.flushes)*timerCost
	runtime.ReadMemStats(&m1)
	lt.schedAllocs = m1.Mallocs - m0.Mallocs

	if len(out) != len(rec.blocks) {
		lt.schedMismatch = max(len(out), len(rec.blocks))
		return rec.blocks, nil
	}
	for i, b := range out {
		w := rec.blocks[i]
		if b.Tag != w.Tag || b.EntryCWP != w.EntryCWP || b.NumLIs != w.NumLIs ||
			b.ValidOps != w.ValidOps || b.FirstSeq != w.FirstSeq || b.EndSeq != w.EndSeq {
			lt.schedMismatch++
		}
	}
	if lt.schedMismatch > 0 {
		return rec.blocks, nil
	}
	return out, nil
}

// replayLower lowers every block once, as saveBlock does.
func replayLower(rec *recording, blocks []*sched.Block, lt *layerTimes) []*vliw.LoweredBlock {
	lows := make([]*vliw.LoweredBlock, len(blocks))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i, b := range blocks {
		lows[i] = vliw.Lower(b, rec.cfg.NWin)
	}
	lt.lower = time.Since(start)
	runtime.ReadMemStats(&m1)
	lt.lowerAllocs = m1.Mallocs - m0.Mallocs
	return lows
}

// followRepeat is how many extra Follow calls per transition the
// differential Follow measurement makes.
const followRepeat = 8

// replayVCache replays the dispatch sequence on a fresh VLIW Cache:
// probes, block transitions resolved the way the chained dispatch loop
// resolves them (Follow, else lookup and Link), saves and invalidations.
func replayVCache(rec *recording, blocks []*sched.Block, lows []*vliw.LoweredBlock, lt *layerTimes, repeatFollow bool) (time.Duration, error) {
	vc, err := vcache.New(rec.cfg.VCacheConfig())
	if err != nil {
		return 0, err
	}
	cur := vcache.NoLine
	start := time.Now()
	for i := range rec.disp {
		d := &rec.disp[i]
		switch d.kind {
		case dvProbe:
			_, line, ok := vc.LookupLine(d.pc, d.cwp)
			if ok {
				cur = line
			}
			if ok != d.hit {
				lt.vcacheMismatch++
			}
		case dvChain:
			var line int32
			var ok bool
			if cur == vcache.NoLine {
				_, line, ok = vc.LookupLine(d.pc, d.cwp)
			} else {
				_, line, ok = vc.Follow(cur, d.pc, d.cwp)
				for k := 0; repeatFollow && k < followRepeat; k++ {
					_, line, ok = vc.Follow(cur, d.pc, d.cwp)
				}
				lt.follows++
				if !ok {
					if _, line, ok = vc.LookupLine(d.pc, d.cwp); ok {
						vc.Link(cur, d.pc, d.cwp, line)
					}
				}
			}
			cur = vcache.NoLine
			if ok {
				cur = line
			}
			if ok != d.hit {
				lt.vcacheMismatch++
			}
		case dvSave:
			t := time.Now()
			vc.Save(blocks[d.blk], lows[d.blk])
			lt.save += time.Since(t) - timerCost
			lt.saves++
		case dvInvalidate:
			vc.Invalidate(d.pc, d.cwp)
			cur = vcache.NoLine
		}
	}
	elapsed := time.Since(start) - time.Duration(lt.saves)*timerCost
	s := rec.stats
	if !repeatFollow && (vc.Hits != s.VCacheHits || vc.Misses != s.VCacheMisses || vc.ChainHits != s.VCacheChainHits) {
		lt.vcacheMismatch++
	}
	return elapsed, nil
}
