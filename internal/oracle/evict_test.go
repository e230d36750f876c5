package oracle

import (
	"sync"
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/core"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/progen"
)

// evictCounts tallies the VLIW Cache events of pooled differential runs.
type evictCounts struct {
	runs, replaced, invalidated, unlinks uint64
}

// runPooledEvict runs every program differentially on a machine borrowed
// from pool under the vc1k-dm configuration, failing on any divergence,
// and tallies the VLIW Cache events each run produced before its machine
// is reset.
func runPooledEvict(t *testing.T, pool *core.MachinePool, srcs []string) evictCounts {
	nc, ok := ConfigByName("vc1k-dm")
	if !ok {
		t.Error("vc1k-dm is not a selectable configuration")
		return evictCounts{}
	}
	cfg := normalizeDiffConfig(nc.Cfg)
	var c evictCounts
	for _, src := range srcs {
		p, err := asm.Assemble(src)
		if err != nil {
			t.Error(err)
			return c
		}
		refSt := arch.NewState(cfg.NWin, mem.NewMemory())
		loadProgram(refSt, p)
		ctx, err := pool.Get(cfg)
		if err != nil {
			t.Error(err)
			return c
		}
		st := ctx.State()
		loadProgram(st, p)
		st.LogStores = true
		m, err := ctx.Prepare()
		if err != nil {
			t.Error(err)
			return c
		}
		if _, err := runDiffOn(m, RefOver(refSt)); err != nil {
			t.Errorf("vc1k-dm diverged:\n%v\n%s", err, src)
		}
		vc := m.VCache()
		c.runs++
		c.replaced += vc.Replaced
		c.invalidated += vc.Invalidats
		c.unlinks += vc.ChainUnlinks
		pool.Put(ctx)
	}
	return c
}

// TestEvictionConfigRecyclesUnderChaining: the vc1k-dm sweep variant
// replaces lines, invalidates on aliasing and severs chain edges into
// replaced lines, on pooled machines reused across programs — so its
// evicted blocks are recycled and re-filled while chain edges from other
// lines still point at their old line. Two workers with their own pools
// run concurrently, as a parallel sweep does (CI runs this under -race).
func TestEvictionConfigRecyclesUnderChaining(t *testing.T) {
	var srcs [2][]string
	for seed := int64(1); seed <= 12; seed++ {
		for i, shape := range progen.Shapes() {
			k := (int(seed) + i) % 2
			srcs[k] = append(srcs[k], progen.Generate(progen.ShapeParams(shape, seed)))
		}
	}
	var counts [2]evictCounts
	var wg sync.WaitGroup
	for w := range srcs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			counts[w] = runPooledEvict(t, core.NewMachinePool(), srcs[w])
		}(w)
	}
	wg.Wait()
	total := counts[0]
	total.runs += counts[1].runs
	total.replaced += counts[1].replaced
	total.invalidated += counts[1].invalidated
	total.unlinks += counts[1].unlinks
	t.Logf("%d runs: %d lines replaced, %d invalidated, %d chain edges severed",
		total.runs, total.replaced, total.invalidated, total.unlinks)
	if total.replaced == 0 || total.invalidated == 0 || total.unlinks == 0 {
		t.Fatalf("vc1k-dm exercised %d replacements, %d invalidations and %d unlinks; want all three",
			total.replaced, total.invalidated, total.unlinks)
	}
}

// TestEvictionConfigInDefaultSweep: the default rotation includes the
// eviction-heavy configuration, so every plain and -verify-blocks sweep
// exercises recycle-on-evict.
func TestEvictionConfigInDefaultSweep(t *testing.T) {
	for _, nc := range DefaultConfigs() {
		if nc.Name == "vc1k-dm" {
			if nc.Cfg.VCacheConfig().Blocks() > 2 || nc.Cfg.VCacheAssoc != 1 {
				t.Fatalf("vc1k-dm holds %d blocks at associativity %d, want a two-line direct-mapped cache",
					nc.Cfg.VCacheConfig().Blocks(), nc.Cfg.VCacheAssoc)
			}
			return
		}
	}
	t.Fatal("DefaultConfigs has no eviction-heavy configuration")
}
