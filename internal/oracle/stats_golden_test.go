package oracle

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/core"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/workloads"
)

// statsGoldenPath holds one digest of the full core.Stats per golden run.
const statsGoldenPath = "testdata/stats_golden.json"

// statsWorkloadConfigs are the machine configurations every workload
// prefix runs under: the main ideal and feasible machines plus one
// variant per orthogonal mechanism whose timing the VLIW Engine decides.
var statsWorkloadConfigs = []string{
	"ideal-8x8", "feasible", "multicycle", "storelist",
	"exitpred", "nofwd", "nochain", "vc1k-dm",
}

// statsWorkloadInstrs caps each workload run.
const statsWorkloadInstrs = 20_000

// statsSeeds is the number of progen seeds per shape in the generated
// corpus.
const statsSeeds = 100

// writeStats hashes one run's complete statistics: cycle split, switch
// and cache counters, scheduler and engine statistics.
func writeStats(h hash.Hash, s *core.Stats) {
	fmt.Fprintf(h, "%+v\n", *s)
}

// runStats builds the machine for cfg over st, runs it, and returns its
// statistics.
func runStats(t *testing.T, cfg core.Config, st *arch.State) *core.Stats {
	t.Helper()
	if cfg.MaxCycles == 0 || cfg.MaxCycles > 50_000_000 {
		cfg.MaxCycles = 50_000_000
	}
	m, err := core.NewMachine(cfg, st)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return &m.Stats
}

// TestGoldenStats pins the timing the VLIW Engine produces: every golden
// run's full core.Stats — cycles, VLIW/Primary split, exceptions, cache
// and chaining counters, scheduler and engine statistics — must hash to
// the recorded digest. The corpus is the eight workloads (capped) under
// statsWorkloadConfigs, and a progen corpus (every shape, statsSeeds
// seeds) under each DefaultConfigs entry, one digest per configuration.
// Run with -update to re-record (only legitimate when simulated timing
// is intentionally changed).
func TestGoldenStats(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus runs full machine simulations")
	}
	got := map[string]string{}

	for _, w := range workloads.All() {
		for _, cname := range statsWorkloadConfigs {
			nc, ok := ConfigByName(cname)
			if !ok {
				t.Fatalf("config %s missing", cname)
			}
			cfg := nc.Cfg
			cfg.MaxInstrs = statsWorkloadInstrs
			st, err := w.NewState(cfg.NWin)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			h := sha256.New()
			writeStats(h, runStats(t, cfg, st))
			got[fmt.Sprintf("workload/%s/%s", w.Name, cname)] = fmt.Sprintf("%x", h.Sum(nil))
		}
	}

	var progs []*asm.Program
	var names []string
	for _, shape := range progen.Shapes() {
		for seed := int64(1); seed <= statsSeeds; seed++ {
			p, err := asm.Assemble(progen.Generate(progen.ShapeParams(shape, seed)))
			if err != nil {
				t.Fatalf("%s/%d: %v", shape, seed, err)
			}
			progs = append(progs, p)
			names = append(names, fmt.Sprintf("%s/%d", shape, seed))
		}
	}
	for _, nc := range DefaultConfigs() {
		h := sha256.New()
		for i, p := range progs {
			st := arch.NewState(nc.Cfg.NWin, mem.NewMemory())
			loadProgram(st, p)
			fmt.Fprintf(h, "%s ", names[i])
			writeStats(h, runStats(t, nc.Cfg, st))
		}
		got["progen/"+nc.Name] = fmt.Sprintf("%x", h.Sum(nil))
	}

	compareGolden(t, statsGoldenPath, got, "Stats diverged from the recorded run")
}
