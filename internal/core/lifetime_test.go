package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/sched"
	"dtsvliw/internal/workloads"
)

// evictConfig is the ideal 8x8 machine with a 1-KB direct-mapped VLIW
// Cache: two lines, so nearly every save replaces a block.
func evictConfig() Config {
	cfg := IdealConfig(8, 8)
	cfg.VCacheKB, cfg.VCacheAssoc = 1, 1
	return cfg
}

// loadProgram installs p into a power-on state with the workload
// loader's layout (sections, stack, entry PC, %sp, text range).
func loadProgram(st *arch.State, p *asm.Program) {
	p.Load(st.Mem)
	st.Mem.Map(0x7E000, 0x2000)
	st.PC = p.Entry
	st.SetReg(14, 0x7FF00)
	st.SetTextRange(p.TextBase, p.TextSize)
}

// runSource runs source on a fresh machine, observing saved blocks with
// hook when it is non-nil.
func runSource(t *testing.T, source string, cfg Config, hook func(*sched.Block)) *Machine {
	t.Helper()
	p, err := asm.Assemble(source)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewMachineContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loadProgram(ctx.State(), p)
	m, err := ctx.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	m.BlockHook = hook
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

// lifetimeSources is the eviction corpus: the three workloads with the
// largest block footprints (capped) and every progen shape, whose
// aliasing shape drives invalidations of the executing block.
func lifetimeSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	for _, name := range []string{"gcc", "xlisp", "compress"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		srcs[name] = w.Source
	}
	for _, shape := range progen.Shapes() {
		for seed := int64(1); seed <= 4; seed++ {
			srcs[fmt.Sprintf("%s/%d", shape, seed)] = progen.Generate(progen.ShapeParams(shape, seed))
		}
	}
	return srcs
}

// TestEvictionRecyclingInvisible: recycling replaced and invalidated
// blocks changes nothing observable. Every run is checked in lockstep
// against the sequential test machine, and its Stats must equal those of
// the same run with a BlockHook attached, under which nothing is
// recycled.
func TestEvictionRecyclingInvisible(t *testing.T) {
	var replaced, invalidated uint64
	for name, src := range lifetimeSources(t) {
		for _, chain := range []bool{true, false} {
			cfg := evictConfig()
			cfg.TestMode = true
			cfg.NoChain = !chain
			cfg.MaxInstrs = 50_000
			recycled := runSource(t, src, cfg, nil)
			kept := runSource(t, src, cfg, func(*sched.Block) {})
			if !reflect.DeepEqual(recycled.Stats, kept.Stats) {
				t.Errorf("%s (chain=%v): recycling changed Stats:\n%+v\nvs\n%+v", name, chain, recycled.Stats, kept.Stats)
			}
			replaced += recycled.VCache().Replaced
			invalidated += recycled.VCache().Invalidats
		}
	}
	if replaced == 0 || invalidated == 0 {
		t.Fatalf("corpus exercised %d replacements and %d invalidations; want both", replaced, invalidated)
	}
}

// TestBlockHookBlocksNeverMutated: a block a BlockHook has seen is never
// recycled, so its slot grid reads the same after the run as when it was
// saved, however often its line was replaced.
func TestBlockHookBlocksNeverMutated(t *testing.T) {
	w, _ := workloads.ByName("gcc")
	cfg := evictConfig()
	cfg.MaxInstrs = 30_000
	type seen struct {
		b    *sched.Block
		dump string
	}
	var blocks []seen
	m := runSource(t, w.Source, cfg, func(b *sched.Block) {
		blocks = append(blocks, seen{b, b.Dump()})
	})
	if m.VCache().Replaced == 0 {
		t.Fatal("no line was replaced; the test needs evictions")
	}
	for i, s := range blocks {
		if got := s.b.Dump(); got != s.dump {
			t.Fatalf("block %d changed after it was saved:\nsaved:\n%s\nnow:\n%s", i, s.dump, got)
		}
	}
}

// TestEvictedBlocksAreRecycled: on a machine that replaces a line on
// nearly every save, blocks, slots and lowered forms come back from their
// pools, so a run allocates far less than once per saved block.
func TestEvictedBlocksAreRecycled(t *testing.T) {
	w, _ := workloads.ByName("gcc")
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	cfg := evictConfig()
	cfg.MaxInstrs = 200_000
	ctx, err := NewMachineContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loadProgram(ctx.State(), p)
	m, err := ctx.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	allocs := m1.Mallocs - m0.Mallocs
	if m.Stats.BlocksSaved < 1000 || m.VCache().Replaced < m.Stats.BlocksSaved/2 {
		t.Fatalf("saved %d blocks, replaced %d: the test needs heavy eviction", m.Stats.BlocksSaved, m.VCache().Replaced)
	}
	if allocs*10 > m.Stats.BlocksSaved {
		t.Fatalf("%d allocations for %d saved blocks: evicted blocks are not recycled", allocs, m.Stats.BlocksSaved)
	}
}

// TestPooledWorkloadSteadyStateAllocs is the whole-workload steady-state
// allocation guard: on the second run of a pooled MachineContext, xlisp
// on the feasible machine — which evicts and reschedules blocks
// constantly — allocates less than once per hundred simulated
// instructions.
func TestPooledWorkloadSteadyStateAllocs(t *testing.T) {
	w, _ := workloads.ByName("xlisp")
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	cfg := FeasibleConfig()
	ctx, err := NewMachineContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() uint64 {
		loadProgram(ctx.State(), p)
		m, err := ctx.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if !m.St.Halted {
			t.Fatal("xlisp did not halt")
		}
		retired := m.Stats.Retired
		ctx.Recycle()
		return retired
	}
	run()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	retired := run()
	runtime.ReadMemStats(&m1)
	perInstr := float64(m1.Mallocs-m0.Mallocs) / float64(retired)
	t.Logf("xlisp/feasible second pooled run: %d allocations over %d instructions (%.5f/instr)",
		m1.Mallocs-m0.Mallocs, retired, perInstr)
	if perInstr >= 0.01 {
		t.Fatalf("second pooled run allocates %.4f times per instruction, want < 0.01", perInstr)
	}
}
