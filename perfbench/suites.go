package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"dtsvliw/internal/core"
	"dtsvliw/internal/experiments"
	"dtsvliw/internal/oracle"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/vliw"
	"dtsvliw/internal/workloads"
)

// suiteNames lists the workloads in report order.
var suiteNames = []string{"spec-feasible", "vcache-churn", "oracle-sweep"}

// sweepPrograms is the number of generated programs one oracle-sweep pass
// checks: a whole number of rotations (4 shapes x 8 configs), and enough
// programs that a pass takes about as long as one spec-feasible pass.
const sweepPrograms = 32 * 12

// sweepWorkers is the oracle-sweep fan-out: the two CPUs the benchmark
// host has.
const sweepWorkers = 2

// passStats is what one pass over a workload's inputs did.
type passStats struct {
	seconds         float64
	retired, cycles uint64
}

// suite is one benchmark workload. setup resolves its inputs and runs one
// validated warm-up pass; pass runs one measured pass. Both count every
// run they attempt and every run that fails a correctness check.
type suite interface {
	name() string
	setup() error
	pass() passStats
	runs() (attempted, failed int)
	// counts describes the exact simulated counts of every input, for
	// diffing two builds.
	counts() []string
}

func newSuite(name string, seed int64) (suite, error) {
	switch name {
	case "spec-feasible":
		// The Table 3 machine in steady state: 94-99.9% of simulated cycles
		// are VLIW cycles and most workloads save fewer than 30 blocks, so
		// the VLIW Engine and chained dispatch dominate host time.
		return newFixedSuite(name, seed, workloads.Names(), "feasible", core.FeasibleConfig()), nil
	case "vcache-churn":
		// gcc and xlisp are the two workloads whose block footprint exceeds
		// small VLIW Caches. On the smallest Figure 6 size at Figure 7's
		// lowest associativity they save 17.9k and 16.6k blocks, so block
		// scheduling, lowering and VLIW Cache writes dominate host time.
		cfg := core.IdealConfig(8, 8)
		cfg.VCacheKB, cfg.VCacheAssoc = 48, 1
		return newFixedSuite(name, seed, []string{"gcc", "xlisp"}, "ideal-8x8-vc48k-dm", cfg), nil
	case "oracle-sweep":
		// Programs retire about 1k instructions each, so per-program work —
		// generation, certification, assembly, machine and reference set-up,
		// the lock-step diff — dominates host time.
		return &sweepSuite{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(suiteNames, ", "))
}

// sweepConfigs is the benchmark's own pinned oracle-sweep rotation. It is
// fixed here rather than taken from oracle.DefaultConfigs, whose variants
// may be deleted, so that a change that simplifies the oracle is measured
// on unchanged work.
func sweepConfigs() []oracle.NamedConfig {
	multi := core.IdealConfig(8, 8)
	multi.LoadLatency, multi.FPLatency, multi.FPDivLatency = 2, 2, 8
	storelist := core.IdealConfig(8, 8)
	storelist.StoreScheme = vliw.SchemeStoreList
	exitpred := core.IdealConfig(8, 8)
	exitpred.ExitPrediction = true
	return []oracle.NamedConfig{
		{Name: "ideal-4x4", Cfg: core.IdealConfig(4, 4)},
		{Name: "ideal-8x8", Cfg: core.IdealConfig(8, 8)},
		{Name: "ideal-2x12", Cfg: core.IdealConfig(2, 12)},
		{Name: "ideal-16x4", Cfg: core.IdealConfig(16, 4)},
		{Name: "feasible", Cfg: core.FeasibleConfig()},
		{Name: "multicycle", Cfg: multi},
		{Name: "storelist", Cfg: storelist},
		{Name: "exitpred", Cfg: exitpred},
	}
}

// exact is one run's simulated outcome; a faster simulator must leave it
// unchanged.
type exact struct {
	Retired, Cycles, BlocksSaved uint64
}

// fixedSuite runs fixed workload programs to completion, one at a time,
// along the user path experiments.RunOne (assemble, build the machine,
// run, validate the final state against the workload's Go model).
type fixedSuite struct {
	label   string
	order   []string // workload names, permuted by the seed
	cfgName string
	cfg     core.Config

	inputs []*workloads.Workload
	want   map[string]exact // from the first validated run of each input

	attempted, failed int
}

func newFixedSuite(label string, seed int64, names []string, cfgName string, cfg core.Config) *fixedSuite {
	order := make([]string, len(names))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(names)) {
		order[i] = names[j]
	}
	return &fixedSuite{label: label, order: order, cfgName: cfgName, cfg: cfg, want: map[string]exact{}}
}

func (s *fixedSuite) name() string { return s.label }

func (s *fixedSuite) runs() (int, int) { return s.attempted, s.failed }

func (s *fixedSuite) setup() error {
	s.inputs = s.inputs[:0]
	for _, n := range s.order {
		w, ok := workloads.ByName(n)
		if !ok {
			return fmt.Errorf("workload %s not found", n)
		}
		if _, err := w.Program(); err != nil {
			return fmt.Errorf("workload %s: %w", n, err)
		}
		s.inputs = append(s.inputs, w)
	}
	s.pass()
	return nil
}

func (s *fixedSuite) pass() passStats {
	var ps passStats
	start := time.Now()
	for _, w := range s.inputs {
		got, err := s.runOne(w)
		s.attempted++
		if err != nil {
			s.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s on %s: %v\n", w.Name, s.cfgName, err)
			continue
		}
		ps.retired += got.Retired
		ps.cycles += got.Cycles
	}
	ps.seconds = time.Since(start).Seconds()
	return ps
}

// runOne runs one input and checks it: RunOne validates the final state
// on halt, the run must halt, and its simulated counts must equal those of
// the input's first run.
func (s *fixedSuite) runOne(w *workloads.Workload) (exact, error) {
	m, err := experiments.RunOne(w, s.cfg, experiments.Options{})
	if err != nil {
		return exact{}, err
	}
	if !m.St.Halted {
		return exact{}, fmt.Errorf("did not halt")
	}
	got := exact{m.Stats.Retired, m.Stats.Cycles, m.Stats.BlocksSaved}
	if want, ok := s.want[w.Name]; !ok {
		s.want[w.Name] = got
	} else if got != want {
		return exact{}, fmt.Errorf("simulated counts %+v differ from the first run's %+v", got, want)
	}
	return got, nil
}

func (s *fixedSuite) counts() []string {
	var out []string
	for _, n := range s.order {
		c := s.want[n]
		out = append(out, fmt.Sprintf("%s/%s: retired %d cycles %d blocks_saved %d",
			n, s.cfgName, c.Retired, c.Cycles, c.BlocksSaved))
	}
	return out
}

// sweepSuite runs oracle.Sweep with the pinned configuration rotation.
// Pass k checks sweepPrograms programs from base seed seed+k*sweepPrograms,
// so a run covers several thousand distinct programs and its figures do
// not hinge on one small program set; set-up warms up on block 0.
type sweepSuite struct {
	seed   int64
	next   int64 // block of the next measured pass
	blocks []*oracle.Report
	warm   *oracle.Report

	attempted, failed int
}

func (s *sweepSuite) name() string { return "oracle-sweep" }

func (s *sweepSuite) runs() (int, int) { return s.attempted, s.failed }

// setup runs block 0 as a warm-up; every repetition must reproduce the
// first one's totals exactly.
func (s *sweepSuite) setup() error {
	rep, _ := s.sweep(0)
	if s.warm == nil {
		s.warm = rep
	} else if rep.Instret != s.warm.Instret || rep.Cycles != s.warm.Cycles {
		s.failed += sweepPrograms
		fmt.Fprintf(os.Stderr, "perfbench: oracle-sweep totals %d/%d differ from the first set-up's %d/%d\n",
			rep.Instret, rep.Cycles, s.warm.Instret, s.warm.Cycles)
	}
	return nil
}

func (s *sweepSuite) pass() passStats {
	rep, ps := s.sweep(s.next)
	s.next++
	s.blocks = append(s.blocks, rep)
	return ps
}

// sweepOptions sweeps sweepPrograms programs from seed with the pinned
// rotation.
func sweepOptions(seed int64) oracle.SweepOptions {
	return oracle.SweepOptions{
		N: sweepPrograms, Seed: seed,
		Shapes: progen.Shapes(), Configs: sweepConfigs(),
		Workers: sweepWorkers,
		// Keep going past a failure so every failed program is counted;
		// one shrink step bounds the time a failure can cost.
		MaxFail: sweepPrograms, ShrinkEvals: 1,
	}
}

// sweep checks one block of programs, counting every program that
// diverges, fails certification or is a faulty program as failed.
func (s *sweepSuite) sweep(block int64) (*oracle.Report, passStats) {
	start := time.Now()
	rep := oracle.Sweep(sweepOptions(s.seed + block*sweepPrograms))
	ps := passStats{seconds: time.Since(start).Seconds(), retired: rep.Instret, cycles: rep.Cycles}
	s.attempted += sweepPrograms
	s.failed += sweepPrograms - rep.Runs + len(rep.Failures)
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "perfbench: oracle-sweep failure: %s\n", f.Render())
	}
	return rep, ps
}

func (s *sweepSuite) counts() []string {
	if s.warm == nil {
		return nil
	}
	out := []string{fmt.Sprintf("sweep set-up block 0 (seed %d): runs %d instret %d cycles %d failures %d",
		s.seed, s.warm.Runs, s.warm.Instret, s.warm.Cycles, len(s.warm.Failures))}
	for k, r := range s.blocks {
		out = append(out, fmt.Sprintf("sweep block %d (seed %d, %d programs, %d workers): runs %d instret %d cycles %d failures %d",
			k, s.seed+int64(k)*sweepPrograms, sweepPrograms, sweepWorkers, r.Runs, r.Instret, r.Cycles, len(r.Failures)))
	}
	return out
}
