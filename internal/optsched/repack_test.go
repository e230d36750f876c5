package optsched_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dtsvliw/internal/blockcheck"
	"dtsvliw/internal/core"
	"dtsvliw/internal/optsched"
	"dtsvliw/internal/oracle"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/sched"
	"dtsvliw/internal/vliw"
)

// harvest runs src under cfg with the FCFS strategy and captures every
// block the machine saves, with its sequential trace attached (the
// save-time verifier needs it, and so does re-verification after
// repacking).
func harvest(t *testing.T, src string, cfg core.Config) ([]*sched.Block, sched.Config) {
	t.Helper()
	st, err := oracle.BuildState(src, cfg.NWin)
	if err != nil {
		t.Fatal(err)
	}
	cfg.VerifyBlocks = true
	cfg.MaxInstrs = 30_000
	cfg.MaxCycles = 1 << 40
	m, err := core.NewMachine(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []*sched.Block
	m.BlockHook = func(b *sched.Block) { blocks = append(blocks, b) }
	if err := m.Run(); err != nil {
		t.Fatalf("harvest run: %v", err)
	}
	return blocks, m.Scheduler().Config()
}

// exitComplete re-checks the one constraint blockcheck leaves to the
// scheduler by construction: no instruction older than a branch may sit
// below the branch's long instruction (a runtime trace exit at the
// branch must not lose any older op's effect).
func exitComplete(b *sched.Block) error {
	type placed struct {
		s  *sched.Slot
		li int
	}
	var all []placed
	for li, row := range b.LIs[:b.NumLIs] {
		for _, s := range row {
			if s != nil {
				all = append(all, placed{s, li})
			}
		}
	}
	for _, br := range all {
		if !br.s.IsCondOrIndirectBranch() {
			continue
		}
		for _, a := range all {
			if a.s.Seq < br.s.Seq && a.li > br.li {
				return fmt.Errorf("block %#x: op seq %d at li=%d below older branch seq %d at li=%d",
					b.Tag, a.s.Seq, a.li, br.s.Seq, br.li)
			}
		}
	}
	return nil
}

// repackConfigs are the machine variants the repack properties sweep:
// every mechanism that changes block shape or the constraint mix.
func repackConfigs() []oracle.NamedConfig {
	multi := core.IdealConfig(8, 8)
	multi.LoadLatency, multi.FPLatency, multi.FPDivLatency = 2, 2, 8
	nofwd := core.IdealConfig(8, 8)
	nofwd.NoSourceForwarding = true
	return []oracle.NamedConfig{
		{Name: "ideal-8x8", Cfg: core.IdealConfig(8, 8)},
		{Name: "ideal-4x4", Cfg: core.IdealConfig(4, 4)},
		{Name: "feasible", Cfg: core.FeasibleConfig()},
		{Name: "multicycle", Cfg: multi},
		{Name: "nofwd", Cfg: nofwd},
	}
}

// TestRepackNeverTallerAndLegal is the core repack property, over real
// scheduler blocks from generated programs: the repacked block is never
// taller than the FCFS schedule, still passes the full static
// block-legality verification, and keeps exit completeness.
func TestRepackNeverTallerAndLegal(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 17, 101}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, nc := range repackConfigs() {
		nc := nc
		t.Run(nc.Name, func(t *testing.T) {
			t.Parallel()
			repacked, improved := 0, 0
			for si, seed := range seeds {
				shape := progen.Shapes()[si%len(progen.Shapes())]
				src := progen.Generate(progen.ShapeParams(shape, seed))
				blocks, scfg := harvest(t, src, nc.Cfg)
				for _, b := range blocks {
					orig := b.NumLIs
					res := optsched.Repack(b, scfg, 0)
					repacked++
					if res.OrigLIs != orig || res.OptLIs != b.NumLIs {
						t.Fatalf("result disagrees with block: %+v vs orig=%d now=%d", res, orig, b.NumLIs)
					}
					if b.NumLIs > orig {
						t.Fatalf("repack grew block %#x: %d -> %d LIs", b.Tag, orig, b.NumLIs)
					}
					if b.NumLIs < orig {
						improved++
					}
					if rep := blockcheck.Verify(b, vliw.Lower(b, scfg.NWin), scfg); !rep.Ok() {
						t.Fatalf("repacked block fails verification:\n%s\n%s", rep, b.Dump())
					}
					if err := exitComplete(b); err != nil {
						t.Fatalf("repacked block loses exit completeness: %v\n%s", err, b.Dump())
					}
				}
			}
			if repacked == 0 {
				t.Fatal("no blocks harvested")
			}
			t.Logf("%s: %d blocks repacked, %d improved", nc.Name, repacked, improved)
		})
	}
}

// TestRepackTightBudgets runs the repacker under starvation budgets: the
// search must degrade to "best found so far" without panicking, and
// whatever it leaves behind must still verify.
func TestRepackTightBudgets(t *testing.T) {
	src := progen.Generate(progen.ShapeParams(progen.Shapes()[0], 99))
	for _, budget := range []int{1, 2, 7, 100} {
		blocks, scfg := harvest(t, src, core.IdealConfig(8, 8))
		for _, b := range blocks {
			orig := b.NumLIs
			res := optsched.Repack(b, scfg, budget)
			if b.NumLIs > orig {
				t.Fatalf("budget %d grew block %#x: %d -> %d", budget, b.Tag, orig, b.NumLIs)
			}
			if res.Proven && res.Nodes > uint64(budget) {
				t.Fatalf("budget %d: claimed proven after %d nodes", budget, res.Nodes)
			}
			if rep := blockcheck.Verify(b, vliw.Lower(b, scfg.NWin), scfg); !rep.Ok() {
				t.Fatalf("budget %d left an illegal block:\n%s", budget, rep)
			}
			if err := exitComplete(b); err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
		}
	}
}

// chainSource builds a pure dependence chain: every instruction reads the
// previous one's result, so no schedule can be shorter than the FCFS one.
func chainSource(n int) string {
	var sb strings.Builder
	sb.WriteString("start:\n\tset 1, %o0\n")
	for i := 0; i < n; i++ {
		sb.WriteString("\tadd %o0, 1, %o0\n")
	}
	sb.WriteString("\tta 0\n")
	return sb.String()
}

// TestPureChainHasNoGap pins the equality side of the optimality
// property: on a pure-chain program the FCFS schedule is already
// optimal, every repack is proven without expanding a single search node
// (the static bound closes it), and the machine's end-to-end result is
// unchanged.
func TestPureChainHasNoGap(t *testing.T) {
	src := chainSource(64)
	run := func(strategy string) *core.Machine {
		cfg := core.IdealConfig(8, 8)
		cfg.SchedStrategy = strategy
		cfg.VerifyBlocks = true
		cfg.TestMode = true
		cfg.MaxCycles = 1 << 40
		st, err := oracle.BuildState(src, cfg.NWin)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.NewMachine(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		return m
	}
	fcfs := run("")
	opt := run("optimal")
	s := &opt.Stats.Sched
	if s.RepackedBlocks == 0 {
		t.Fatal("optimal run repacked no blocks")
	}
	if s.RepackSavedLIs != 0 {
		t.Fatalf("pure chain: repacking saved %d LIs, want 0", s.RepackSavedLIs)
	}
	if s.RepackProven != s.RepackedBlocks {
		t.Fatalf("pure chain: %d of %d repacks proven", s.RepackProven, s.RepackedBlocks)
	}
	if s.RepackNodes != 0 {
		t.Fatalf("pure chain: %d search nodes spent, want 0 (static bound closes it)", s.RepackNodes)
	}
	if fcfs.Stats.Cycles != opt.Stats.Cycles {
		t.Fatalf("pure chain: cycles changed %d -> %d", fcfs.Stats.Cycles, opt.Stats.Cycles)
	}
}

// TestRepackIdempotent: repacking an already-optimal block again must
// change nothing (the incumbent can no longer be beaten).
func TestRepackIdempotent(t *testing.T) {
	src := progen.Generate(progen.ShapeParams(progen.Shapes()[1], 5))
	blocks, scfg := harvest(t, src, core.IdealConfig(8, 8))
	for _, b := range blocks {
		optsched.Repack(b, scfg, 0)
		h := b.NumLIs
		res := optsched.Repack(b, scfg, 0)
		if b.NumLIs != h || res.OptLIs != h {
			t.Fatalf("second repack changed block %#x: %d -> %d", b.Tag, h, b.NumLIs)
		}
	}
}

// FuzzStrategySchedule drives generated programs through the machine
// under the optimal strategy with fuzzed node budgets, block
// verification and lockstep comparison on: any illegal repacked block,
// divergence from sequential semantics, or panic under a starved budget
// fails. The seed corpus in testdata covers every program shape and
// budgets from starved to far past the default. Budgets always stay
// bounded: an unlimited search on an adversarial full-height block is
// legitimately intractable (that is what the budget exists for).
func FuzzStrategySchedule(f *testing.F) {
	f.Add(int64(1), int64(0), int64(0))
	f.Add(int64(2), int64(1), int64(1))
	f.Add(int64(3), int64(2), int64(2))
	f.Add(int64(5), int64(3), int64(64))
	f.Add(int64(17), int64(1), int64(977))
	f.Add(int64(101), int64(2), int64(1<<20-1))
	f.Fuzz(func(t *testing.T, seed, shapeIdx, budget int64) {
		shapes := progen.Shapes()
		shape := shapes[int(uint64(shapeIdx)%uint64(len(shapes)))]
		src := progen.Generate(progen.ShapeParams(shape, seed))

		cfg := core.IdealConfig(8, 8)
		cfg.SchedStrategy = "optimal"
		cfg.SchedNodeBudget = int(uint64(budget) % (1 << 20))
		cfg.VerifyBlocks = true
		cfg.TestMode = true
		cfg.MaxInstrs = 20_000
		cfg.MaxCycles = 1 << 30
		st, err := oracle.BuildState(src, cfg.NWin)
		if err != nil {
			t.Fatalf("progen emitted an unassemblable program: %v", err)
		}
		m, err := core.NewMachine(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			var ve *core.BlockVerifyError
			if errors.As(err, &ve) {
				t.Fatalf("seed=%d shape=%s budget=%d: illegal repacked block:\n%s",
					seed, shape, cfg.SchedNodeBudget, ve.Report)
			}
			t.Fatalf("seed=%d shape=%s budget=%d: machine fault: %v",
				seed, shape, cfg.SchedNodeBudget, err)
		}
	})
}
