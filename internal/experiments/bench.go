package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/core"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/metrics"
	"dtsvliw/internal/oracle"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/sched"
	"dtsvliw/internal/workloads"
)

// This file produces BENCH_SCHED.json, the repo's performance-trajectory
// baseline: simulator-side cost (wall time and heap allocation per
// simulated instruction) alongside the simulated IPC, over a fixed matrix
// of workloads×configurations and progen hazard shapes×seeds. Numbers are
// machine-dependent; the committed file records one reference machine so
// future hot-path changes have a trajectory to compare against (run
// scripts/bench.sh to regenerate).

// BenchEntry is one measured row of the benchmark matrix.
type BenchEntry struct {
	// Kind is "machine" (full DTSVLIW simulation of a workload),
	// "sched-feed" (pre-recorded trace replayed through the Scheduler
	// Unit alone, mirroring BenchmarkSchedulerFeed), or "sweep" (an
	// oracle conformance sweep measured end to end — the co-simulation
	// throughput the machine pool and parallel fan-out exist to raise).
	Kind   string `json:"kind"`
	Name   string `json:"name"`   // workload or progen shape
	Config string `json:"config"` // configuration label
	Seed   int64  `json:"seed,omitempty"`
	Instrs uint64 `json:"instrs"` // simulated instructions measured over

	// Workers is the sweep worker count a "sweep" row was measured at
	// (0 for the serial kinds). Throughput at different worker counts is
	// not comparable, so the diff gate keys on it.
	Workers int `json:"workers,omitempty"`

	IPC            float64 `json:"ipc,omitempty"` // simulated IPC (machine runs)
	NsPerInstr     float64 `json:"ns_per_instr"`
	AllocsPerInstr float64 `json:"allocs_per_instr"`
	BytesPerInstr  float64 `json:"bytes_per_instr"`
	ProgramsPerSec float64 `json:"programs_per_sec,omitempty"` // sweep rows
}

// BenchReport is the top-level BENCH_SCHED.json document.
type BenchReport struct {
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	NumCPU     int          `json:"num_cpu"`
	GoMaxProcs int          `json:"gomaxprocs,omitempty"`
	Entries    []BenchEntry `json:"entries"`
}

// measure runs f once and reports wall time and heap allocation. Runs are
// serial and preceded by a GC so ReadMemStats deltas attribute to f alone.
func measure(f func() error) (elapsed time.Duration, allocs, bytes uint64, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now() //determinism:allow timing is this function's purpose; the gate compares allocs, not wall time
	err = f()
	elapsed = time.Since(start) //determinism:allow see above
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// benchMachineConfigs is the fixed configuration matrix of the machine
// rows: the feasible machine (Table 3) and the ideal 8x8 geometry (the
// Figure 5/6/7 workhorse).
func benchMachineConfigs() []struct {
	label string
	cfg   core.Config
} {
	return []struct {
		label string
		cfg   core.Config
	}{
		{"feasible", core.FeasibleConfig()},
		{"ideal-8x8", core.IdealConfig(8, 8)},
	}
}

// benchFeedSeeds is the fixed seed list of the sched-feed rows.
var benchFeedSeeds = []int64{1, 2, 3}

const benchFeedInstrs = 40_000

// benchMachineReps runs each machine row this many times and keeps the
// fastest. A full workload run measures ~50ms, short enough that one
// scheduler preemption skews a single-shot number by tens of percent;
// min-of-N is the standard noise-robust estimator (the simulation is
// deterministic, so the fastest run is the least-disturbed one).
const benchMachineReps = 3

// benchMetricsReps is the interleaved rep count of BenchMetricsOverhead,
// higher than benchMachineReps because its gate threshold (2%) sits
// below the min-of-3 noise floor of the short workload runs.
const benchMetricsReps = 8

// BenchSched measures the benchmark matrix and returns the report.
// Measurements are intentionally serial (Options.Workers is ignored):
// parallel runs would contend for cache and allocator and corrupt the
// per-run numbers.
func BenchSched(o Options) (*BenchReport, error) {
	rep := &BenchReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, w := range workloads.All() {
		for _, mc := range benchMachineConfigs() {
			mc.cfg.NoChain = o.NoChain
			var m *core.Machine
			var elapsed time.Duration
			var allocs, bytes uint64
			for rep := 0; rep < benchMachineReps; rep++ {
				var mr *core.Machine
				e, a, b, err := measure(func() error {
					var err error
					mr, err = RunOne(w, mc.cfg, o)
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("bench %s/%s: %w", w.Name, mc.label, err)
				}
				if rep == 0 || e < elapsed {
					elapsed, allocs, bytes, m = e, a, b, mr
				}
			}
			n := m.Stats.Retired
			if n == 0 {
				return nil, fmt.Errorf("bench %s/%s: no instructions retired", w.Name, mc.label)
			}
			rep.Entries = append(rep.Entries, BenchEntry{
				Kind: "machine", Name: w.Name, Config: mc.label, Instrs: n,
				IPC:            m.Stats.IPC(),
				NsPerInstr:     float64(elapsed.Nanoseconds()) / float64(n),
				AllocsPerInstr: float64(allocs) / float64(n),
				BytesPerInstr:  float64(bytes) / float64(n),
			})
			o.note("bench %s/%s: %.0f ns/instr %.2f allocs/instr",
				w.Name, mc.label, rep.Entries[len(rep.Entries)-1].NsPerInstr,
				rep.Entries[len(rep.Entries)-1].AllocsPerInstr)
		}
	}
	for _, shape := range progen.Shapes() {
		for _, seed := range benchFeedSeeds {
			entry, err := benchFeed(shape, seed)
			if err != nil {
				return nil, err
			}
			rep.Entries = append(rep.Entries, *entry)
			o.note("bench feed %s seed %d: %.0f ns/instr %.2f allocs/instr",
				shape, seed, entry.NsPerInstr, entry.AllocsPerInstr)
		}
	}
	sweeps, err := BenchSweep(o)
	if err != nil {
		return nil, err
	}
	rep.Entries = append(rep.Entries, sweeps...)
	return rep, nil
}

// benchSweepN is the programs per measured sweep: large enough that the
// pool reaches steady state and per-program noise averages out, small
// enough for the CI smoke job.
const benchSweepN = 400

const benchSweepReps = 2

// benchSweepVariants is the fixed sweep-throughput matrix: the serial
// rebuild-everything baseline, the serial pooled path (context reuse in
// isolation), and the pooled path at one worker per CPU. On a single-CPU
// host the parallel row still exercises the fan-out machinery at one
// worker; its Workers field keeps it from being compared against a
// multi-CPU baseline.
func benchSweepVariants() []struct {
	label   string
	workers int
	noReuse bool
} {
	return []struct {
		label   string
		workers int
		noReuse bool
	}{
		{"serial-noreuse", 1, true},
		{"serial-pooled", 1, false},
		{"parallel", runtime.GOMAXPROCS(0), false},
	}
}

// BenchSweep measures the oracle co-simulation throughput rows
// (programs/sec over a fixed conformance sweep) — the tentpole metric of
// the pooled-context work. Any divergence during measurement is a hard
// error: a perf run must never paper over a conformance failure.
func BenchSweep(o Options) ([]BenchEntry, error) {
	var out []BenchEntry
	for _, v := range benchSweepVariants() {
		opts := oracle.SweepOptions{
			N: benchSweepN, Seed: 1,
			Workers: v.workers, NoReuse: v.noReuse,
		}
		var best BenchEntry
		for rep := 0; rep < benchSweepReps; rep++ {
			var sr *oracle.Report
			elapsed, allocs, bytes, err := measure(func() error {
				sr = oracle.Sweep(opts)
				if len(sr.Failures) > 0 {
					return fmt.Errorf("%d divergences (first: %s)",
						len(sr.Failures), sr.Failures[0].Render())
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("bench sweep %s: %w", v.label, err)
			}
			e := BenchEntry{
				Kind: "sweep", Name: "oracle", Config: v.label,
				Workers: v.workers, Instrs: sr.Instret,
				NsPerInstr:     float64(elapsed.Nanoseconds()) / float64(sr.Instret),
				AllocsPerInstr: float64(allocs) / float64(sr.Instret),
				BytesPerInstr:  float64(bytes) / float64(sr.Instret),
				ProgramsPerSec: float64(sr.Runs) / elapsed.Seconds(),
			}
			if rep == 0 || e.ProgramsPerSec > best.ProgramsPerSec {
				best = e
			}
		}
		out = append(out, best)
		o.note("bench sweep %s (%d workers): %.0f programs/sec %.0f ns/instr",
			v.label, best.Workers, best.ProgramsPerSec, best.NsPerInstr)
	}
	return out, nil
}

// GateSweepEntries enforces the co-simulation throughput contract within
// one report, so the gate is self-relative and holds on any host:
//
//   - context reuse must pay for itself: serial-pooled >= 1.05x the
//     serial-noreuse programs/sec (the measured serial reuse win is
//     ~1.1x; most of the historical 10x came from fixes shared by both
//     paths — see DESIGN.md §15);
//   - the parallel fan-out must scale when there are CPUs to scale onto:
//     with >= 2 workers on >= 2 CPUs, parallel >= 1.3x serial-pooled.
//     On a single-CPU host the scaling clause is vacuous and only the
//     no-regression bound (parallel >= 0.9x pooled) applies.
func GateSweepEntries(entries []BenchEntry) error {
	rows := make(map[string]BenchEntry)
	for _, e := range entries {
		if e.Kind == "sweep" {
			rows[e.Config] = e
		}
	}
	noreuse, okN := rows["serial-noreuse"]
	pooled, okP := rows["serial-pooled"]
	par, okPar := rows["parallel"]
	if !okN || !okP || !okPar {
		return fmt.Errorf("sweep gate: missing sweep rows (have %d)", len(rows))
	}
	var bad []string
	if pooled.ProgramsPerSec < 1.05*noreuse.ProgramsPerSec {
		bad = append(bad, fmt.Sprintf(
			"pooled %.0f p/s < 1.05x noreuse %.0f p/s", pooled.ProgramsPerSec, noreuse.ProgramsPerSec))
	}
	if par.Workers >= 2 && runtime.NumCPU() >= 2 {
		if par.ProgramsPerSec < 1.3*pooled.ProgramsPerSec {
			bad = append(bad, fmt.Sprintf(
				"parallel (%d workers) %.0f p/s < 1.3x pooled %.0f p/s",
				par.Workers, par.ProgramsPerSec, pooled.ProgramsPerSec))
		}
	} else if par.ProgramsPerSec < 0.9*pooled.ProgramsPerSec {
		bad = append(bad, fmt.Sprintf(
			"parallel (%d workers, 1 CPU) %.0f p/s < 0.9x pooled %.0f p/s",
			par.Workers, par.ProgramsPerSec, pooled.ProgramsPerSec))
	}
	if len(bad) > 0 {
		return fmt.Errorf("sweep gate failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// BenchTelemetryOverhead measures every machine row twice — telemetry
// off and on — and returns one delta per row (off as "old", on as
// "new"), for the ≤10% enabled-overhead gate. The off/on reps are
// interleaved pair by pair on the same runner, so slow host drift
// (thermal throttling, a noisy neighbour arriving mid-measurement)
// hits both sides near-equally; a sequential off-then-on comparison
// cannot guarantee that. Each side keeps its fastest rep, as in
// BenchSched.
func BenchTelemetryOverhead(o Options) ([]BenchDelta, error) {
	var out []BenchDelta
	for _, w := range workloads.All() {
		for _, mc := range benchMachineConfigs() {
			mc.cfg.NoChain = o.NoChain
			var ns, al [2]float64 // index 0 = telemetry off, 1 = on
			for rep := 0; rep < benchMachineReps; rep++ {
				for side, tel := range []bool{false, true} {
					oo := o
					oo.Telemetry = tel
					var m *core.Machine
					e, a, _, err := measure(func() error {
						var err error
						m, err = RunOne(w, mc.cfg, oo)
						return err
					})
					if err != nil {
						return nil, fmt.Errorf("bench overhead %s/%s: %w", w.Name, mc.label, err)
					}
					n := m.Stats.Retired
					if n == 0 {
						return nil, fmt.Errorf("bench overhead %s/%s: no instructions retired", w.Name, mc.label)
					}
					if v := float64(e.Nanoseconds()) / float64(n); rep == 0 || v < ns[side] {
						ns[side] = v
					}
					if v := float64(a) / float64(n); rep == 0 || v < al[side] {
						al[side] = v
					}
				}
			}
			out = append(out, BenchDelta{
				Kind: "machine", Name: w.Name, Config: mc.label,
				OldNs: ns[0], NewNs: ns[1], OldAllocs: al[0], NewAllocs: al[1],
				NsPct: pct(ns[0], ns[1]), AllocsPct: pct(al[0], al[1]),
			})
			o.note("bench overhead %s/%s: %.0f -> %.0f ns/instr (%+.1f%%)",
				w.Name, mc.label, ns[0], ns[1], pct(ns[0], ns[1]))
		}
	}
	return out, nil
}

// BenchMetricsOverhead measures every machine row twice — the always-on
// metrics publisher disabled (metrics.SetEnabled(false): machines are
// built without a publisher, the "compiled out" baseline) and enabled
// against the default registry — and returns one delta per row for the
// ≤2% metrics-overhead gate. Off/on reps interleave pair by pair like
// BenchTelemetryOverhead, so host drift hits both sides near-equally.
func BenchMetricsOverhead(o Options) ([]BenchDelta, error) {
	was := metrics.Enabled()
	defer metrics.SetEnabled(was)
	var out []BenchDelta
	for _, w := range workloads.All() {
		for _, mc := range benchMachineConfigs() {
			mc.cfg.NoChain = o.NoChain
			var ns, al [2]float64 // index 0 = metrics off, 1 = on
			// The expected overhead (a delta flush every 2^14 cycles) is far
			// below the run-to-run noise of these short workloads, and the
			// gate threshold is tight (2% vs telemetry's 10%), so this bench
			// takes more interleaved reps than BenchSched to let min-of-reps
			// converge; the whole matrix still measures in seconds.
			for rep := 0; rep < benchMetricsReps; rep++ {
				// Alternate which side runs first each rep: the second run of
				// a pair starts with warmer caches and branch predictors, and
				// always giving that position to one side biases the
				// comparison by more than the effect being measured.
				order := [2]int{0, 1}
				if rep%2 == 1 {
					order = [2]int{1, 0}
				}
				for _, side := range order {
					metrics.SetEnabled(side == 1)
					var m *core.Machine
					e, a, _, err := measure(func() error {
						var err error
						m, err = RunOne(w, mc.cfg, o)
						return err
					})
					if err != nil {
						return nil, fmt.Errorf("bench metrics %s/%s: %w", w.Name, mc.label, err)
					}
					n := m.Stats.Retired
					if n == 0 {
						return nil, fmt.Errorf("bench metrics %s/%s: no instructions retired", w.Name, mc.label)
					}
					if v := float64(e.Nanoseconds()) / float64(n); rep == 0 || v < ns[side] {
						ns[side] = v
					}
					if v := float64(a) / float64(n); rep == 0 || v < al[side] {
						al[side] = v
					}
				}
			}
			out = append(out, BenchDelta{
				Kind: "machine", Name: w.Name, Config: mc.label,
				OldNs: ns[0], NewNs: ns[1], OldAllocs: al[0], NewAllocs: al[1],
				NsPct: pct(ns[0], ns[1]), AllocsPct: pct(al[0], al[1]),
			})
			o.note("bench metrics %s/%s: %.0f -> %.0f ns/instr (%+.1f%%)",
				w.Name, mc.label, ns[0], ns[1], pct(ns[0], ns[1]))
		}
	}
	return out, nil
}

// feedConfig is the scheduler geometry of the sched-feed rows: the
// feasible machine's 10x8 block and heterogeneous functional units, with
// the multicycle extension active for the multicycle shape.
func feedConfig(shape progen.Shape) sched.Config {
	cfg := sched.Config{
		Width: 10, Height: 8, NWin: 8,
		FUs: []isa.FUClass{
			isa.FUInt, isa.FUInt, isa.FUInt, isa.FUInt,
			isa.FULoadStore, isa.FULoadStore,
			isa.FUFloat, isa.FUFloat,
			isa.FUBranch, isa.FUBranch,
		},
	}
	if shape == progen.ShapeMulticycle {
		cfg.LoadLatency = 2
		cfg.FPLatency = 3
		cfg.FPDivLatency = 8
	}
	return cfg
}

// benchFeed replays a pre-recorded progen trace through a Scheduler Unit
// alone, isolating the insertion hot path from Primary Processor
// execution (the Go twin of BenchmarkSchedulerFeed).
func benchFeed(shape progen.Shape, seed int64) (*BenchEntry, error) {
	src := progen.Generate(progen.ShapeParams(shape, seed))
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("bench feed %s seed %d: %w", shape, seed, err)
	}
	mm := mem.NewMemory()
	p.Load(mm)
	mm.Map(0x7E000, 0x2000)
	st := arch.NewState(8, mm)
	st.PC = p.Entry
	st.SetReg(14, 0x7FF00)
	st.SetTextRange(p.TextBase, p.TextSize)

	type event struct {
		flush bool
		c     sched.Completed
	}
	var events []event
	for i := 0; i < benchFeedInstrs && !st.Halted; i++ {
		pc := st.PC
		cwp := st.CWP()
		in, out, err := st.StepOutcome()
		if err != nil {
			return nil, fmt.Errorf("bench feed %s seed %d step %d: %w", shape, seed, i, err)
		}
		if !in.IsSchedulable() {
			events = append(events, event{flush: true, c: sched.Completed{Addr: pc, Seq: uint64(i)}})
			continue
		}
		events = append(events, event{
			c: sched.Completed{Inst: in, Addr: pc, CWP: cwp, Outcome: out, Seq: uint64(i)},
		})
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("bench feed %s seed %d: empty trace", shape, seed)
	}

	u, err := sched.New(feedConfig(shape))
	if err != nil {
		return nil, err
	}
	// One warm-up pass populates the pools, then the measured pass sees
	// the steady state the machine runs in. Every flushed block is
	// recycled at once, the way the machine recycles a block its VLIW
	// Cache replaces, so the rows charge no allocation the machine does
	// not pay.
	replayEvents := func() error {
		for i := range events {
			ev := &events[i]
			var b *sched.Block
			if ev.flush {
				b = u.Flush(ev.c.Addr, ev.c.Seq)
			} else if b, err = u.Insert(ev.c); err != nil {
				return err
			}
			u.RecycleBlock(b)
		}
		u.RecycleBlock(u.Flush(0, uint64(len(events))))
		return nil
	}
	if err := replayEvents(); err != nil {
		return nil, err
	}
	const reps = 5
	elapsed, allocs, bytes, err := measure(func() error {
		for r := 0; r < reps; r++ {
			if err := replayEvents(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := uint64(len(events)) * reps
	return &BenchEntry{
		Kind: "sched-feed", Name: shape.String(), Config: "feasible-10x8",
		Seed: seed, Instrs: n,
		NsPerInstr:     float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerInstr: float64(allocs) / float64(n),
		BytesPerInstr:  float64(bytes) / float64(n),
	}, nil
}

// WriteJSON renders the report as indented JSON with a trailing newline.
func (r *BenchReport) WriteJSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
