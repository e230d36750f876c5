//go:build !e2eonly

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/core"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/metrics"
	"dtsvliw/internal/oracle"
	"dtsvliw/internal/progcheck"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/telemetry"
)

// traceDir receives the spans and the CPU profile of a traced run.
const traceDir = ".bench_build/trace"

// span is one timed call into a layer, recorded from the benchmark's own
// code. Times are nanoseconds since the tracer started; Parent is 0 for a
// root; Run identifies the program (input) the call served.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	run   int
	spans []span
	open  []int
	roots []int // indices of root spans, in order
}

func (t *tracer) begin(name string) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	} else {
		t.roots = append(t.roots, len(t.spans))
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, len(t.spans))
}

func (t *tracer) end() {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// selfTimes returns, for every root span with the given name, its total
// duration and the self time (duration minus direct children) summed per
// span name over its subtree.
func (t *tracer) selfTimes(root string) (totals []float64, self []map[string]float64) {
	for k, ri := range t.roots {
		if t.spans[ri].Name != root {
			continue
		}
		end := len(t.spans)
		if k+1 < len(t.roots) {
			end = t.roots[k+1]
		}
		sub := t.spans[ri:end]
		child := map[int]int64{}
		for _, s := range sub[1:] {
			child[s.Parent] += s.End - s.Start
		}
		m := map[string]float64{}
		for _, s := range sub {
			m[s.Name] += float64(s.End - s.Start - child[s.ID])
		}
		totals = append(totals, float64(sub[0].End-sub[0].Start))
		self = append(self, m)
	}
	return totals, self
}

// medianOf returns the median over maps of the value under key.
func medianOf(ms []map[string]float64, key string) float64 {
	v := make([]float64, len(ms))
	for i, m := range ms {
		v[i] = m[key]
	}
	return median(v)
}

// program is one input of a traced pass.
type program struct {
	label  string
	source string
	cfg    core.Config
	// validate checks a halted state (fixed workloads only).
	validate func(*arch.State) error
	// shape and seed generate the program (oracle-sweep only).
	shape progen.Shape
	seed  int64

	stats   core.Stats // untraced run
	rec     *recording
	instret uint64
}

// loadState loads an assembled program into a power-on state with the
// memory layout that workloads.Workload.NewState and oracle.BuildState
// share, so that assembly and state construction are timed separately.
func loadState(p *asm.Program, nwin int) *arch.State {
	m := mem.NewMemory()
	p.Load(m)
	m.Map(0x7E000, 0x2000) // stack
	st := arch.NewState(nwin, m)
	st.PC = p.Entry
	st.SetReg(14, 0x7FF00) // %sp
	st.SetTextRange(p.TextBase, p.TextSize)
	return st
}

// tracedRun is the state of one traced run.
type tracedRun struct {
	s        suite
	sweep    bool
	progs    []*program
	tr       tracer
	attempts int
	failures int
	notes    []string

	sc            *oracle.SweepContext // the traced pass's one pooled context, as one sweep worker owns one
	analyses      []analysisSums
	asmAllocs     float64 // heap allocations per asm.Assemble call
	certifyAllocs float64 // heap allocations per progcheck.Certify call
}

func (r *tracedRun) fail(format string, args ...any) {
	r.failures++
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// traced runs the traced workload: it sets up once, runs the user-path
// pass with a span around every layer call (half of dur, under the CPU
// profiler), records every program once on a recording machine, replays
// the recorded streams layer by layer for the rest of dur, and reports the
// per-layer metrics with a reconciliation against the pass time.
func traced(s suite, dur time.Duration) (result, error) {
	timerCost = calibrateTimer()
	if err := s.setup(); err != nil {
		return result{}, err
	}
	r := &tracedRun{s: s, tr: tracer{t0: time.Now()}}
	switch ss := s.(type) {
	case *fixedSuite:
		for _, w := range ss.inputs {
			r.progs = append(r.progs, &program{label: w.Name, source: w.Source, cfg: ss.cfg, validate: w.Validate})
		}
	case *sweepSuite:
		r.sweep = true
		r.sc = oracle.NewSweepContext()
		shapes, cfgs := progen.Shapes(), sweepConfigs()
		for i := 0; i < sweepPrograms; i++ {
			shape := shapes[i%len(shapes)]
			nc := cfgs[(i/len(shapes))%len(cfgs)]
			p := &program{label: fmt.Sprintf("%s/%s", shape, nc.Name), cfg: nc.Cfg, shape: shape, seed: ss.seed + int64(i)}
			p.source = progen.Generate(progen.ShapeParams(shape, p.seed))
			r.progs = append(r.progs, p)
		}
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, err
	}

	// Phase 1: the user path, traced, profiled.
	profPath := filepath.Join(traceDir, s.name()+".cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return result{}, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return result{}, err
	}
	gc0 := readGC()
	passEnd := time.Now().Add(dur / 2)
	for first := true; first || time.Now().Before(passEnd); first = false {
		r.pass()
	}
	gc1 := readGC()
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return result{}, err
	}

	// Phase 2: record each program once, then replay until dur is used.
	if err := r.recordAll(); err != nil {
		return result{}, err
	}
	analysisEnd := r.tr.t0.Add(dur)
	for first := true; first || time.Now().Before(analysisEnd); first = false {
		if err := r.analyse(first); err != nil {
			return result{}, err
		}
	}
	var pool poolStats
	if r.sweep {
		pool = sweepPool(s.(*sweepSuite))
		if pool.divergences > 0 {
			r.fail("oracle-sweep: %d divergences in the pooled sweep", pool.divergences)
		}
		// The traced pass mirrors the sweep's cases one by one, so it must
		// check exactly the instructions the sweep checks.
		var traced uint64
		for _, p := range r.progs {
			traced += p.instret
		}
		if traced != pool.instret {
			r.fail("oracle-sweep: traced pass checked %d instructions, the sweep %d", traced, pool.instret)
		}
	}

	m, rows := r.layerMetrics(gc1.sub(gc0), pool)
	r.report(m, rows, profPath)
	if err := r.writeSpans(); err != nil {
		return result{}, err
	}
	sa, sf := s.runs()
	attempted, failed := sa+r.attempts, sf+r.failures
	fmt.Printf("  runs: attempted %d, failed %d\n", attempted, failed)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// pass runs every program once along the user path, with a span around
// each layer call: for fixed workloads what experiments.RunOne does, for
// oracle-sweep what one sweep worker does per case.
func (r *tracedRun) pass() {
	t := &r.tr
	t.run = 0
	t.begin("pass")
	for i, p := range r.progs {
		t.run = i + 1
		r.attempts++
		if r.sweep {
			r.sweepCase(p)
			continue
		}
		t.begin("input")
		t.begin("asm.assemble")
		prog, err := asm.Assemble(p.source)
		t.end()
		if err != nil {
			t.end()
			r.fail("%s: %v", p.label, err)
			continue
		}
		t.begin("core.build")
		st := loadState(prog, p.cfg.NWin)
		m, err := core.NewMachine(p.cfg, st)
		t.end()
		if err != nil {
			t.end()
			r.fail("%s: %v", p.label, err)
			continue
		}
		t.begin("core.run")
		err = m.Run()
		t.end()
		if err == nil {
			t.begin("workloads.validate")
			err = p.validate(st)
			t.end()
		}
		t.end()
		if err != nil || !st.Halted {
			r.fail("%s: run failed (halted %v): %v", p.label, st.Halted, err)
			continue
		}
		p.stats = m.Stats
		p.instret = m.Stats.Retired
	}
	t.run = 0
	t.end()
}

// sweepCase is one oracle-sweep case: generate, certify, run
// differentially on a pooled context.
func (r *tracedRun) sweepCase(p *program) {
	t := &r.tr
	t.begin("program")
	t.begin("progen.generate")
	src := progen.Generate(progen.ShapeParams(p.shape, p.seed))
	t.end()
	t.begin("progcheck.certify")
	err := progcheck.Certify(src)
	t.end()
	if err == nil {
		t.begin("oracle.rundiff")
		var res *oracle.Result
		res, err = r.sc.RunDiff(src, p.cfg)
		t.end()
		if err == nil {
			p.instret = res.Instret
		}
	}
	t.end()
	if err != nil {
		r.fail("%s: %v", p.label, err)
	}
}

// recordAll records every program once. Oracle programs first run
// untraced to size the telemetry ring.
func (r *tracedRun) recordAll() error {
	t := &r.tr
	t.run = 0
	t.begin("record")
	defer func() { t.run = 0; t.end() }()
	for i, p := range r.progs {
		t.run = i + 1
		prog, err := asm.Assemble(p.source)
		if err != nil {
			return fmt.Errorf("%s: %w", p.label, err)
		}
		if r.sweep {
			m, err := core.NewMachine(p.cfg, loadState(prog, p.cfg.NWin))
			if err != nil {
				return err
			}
			if err := m.Run(); err != nil {
				return fmt.Errorf("%s: %w", p.label, err)
			}
			p.stats = m.Stats
		}
		t.begin("record.run")
		p.rec, err = record(loadState(prog, p.cfg.NWin), p.cfg, p.stats)
		t.end()
		r.attempts++
		if err != nil {
			r.fail("%s: recording run: %v", p.label, err)
			continue
		}
		got, want := p.rec.stats, p.stats
		if got.Retired != want.Retired || got.Cycles != want.Cycles || got.BlocksSaved != want.BlocksSaved {
			r.fail("%s: recording run counts %d/%d/%d differ from the untraced run's %d/%d/%d", p.label,
				got.Retired, got.Cycles, got.BlocksSaved, want.Retired, want.Cycles, want.BlocksSaved)
		}
	}
	return nil
}

// analysis results of one iteration, summed over programs.
type analysisSums struct {
	lt layerTimes
	// oracle-sweep only: the machine, the reference and assembly alone.
	asm, build, run, ref time.Duration
}

// analyse replays every recording once; oracle programs also run their
// machine, reference interpreter and assembly alone. The first iteration
// also counts allocations of assembly and certification calls.
func (r *tracedRun) analyse(first bool) error {
	t := &r.tr
	t.run = 0
	t.begin("analysis")
	defer func() { t.run = 0; t.end() }()
	var sum analysisSums
	for i, p := range r.progs {
		if p.rec == nil {
			continue
		}
		t.run = i + 1
		t.begin("replay")
		lt, err := replay(p.rec, func() (*arch.State, error) {
			prog, err := asm.Assemble(p.source)
			if err != nil {
				return nil, err
			}
			return loadState(prog, p.cfg.NWin), nil
		})
		t.end()
		if err != nil {
			return fmt.Errorf("%s: replay: %w", p.label, err)
		}
		addLayerTimes(&sum.lt, lt)
		if r.sweep {
			if err := r.alone(p, &sum); err != nil {
				return err
			}
		}
	}
	r.analyses = append(r.analyses, sum)
	if first {
		r.countAllocs()
	}
	return nil
}

// alone times one oracle program's parts separately: assembly, a fresh
// machine's construction and run, and the reference interpreter.
func (r *tracedRun) alone(p *program, sum *analysisSums) error {
	start := time.Now()
	prog, err := asm.Assemble(p.source)
	sum.asm += time.Since(start)
	if err != nil {
		return err
	}
	st := loadState(prog, p.cfg.NWin)
	start = time.Now()
	m, err := core.NewMachine(p.cfg, st)
	sum.build += time.Since(start)
	if err != nil {
		return err
	}
	start = time.Now()
	err = m.Run()
	sum.run += time.Since(start)
	if err != nil {
		return err
	}
	ref, err := oracle.NewRef(p.source, p.cfg.NWin)
	if err != nil {
		return err
	}
	start = time.Now()
	for !ref.St.Halted {
		if err := ref.Step(); err != nil {
			return err
		}
	}
	sum.ref += time.Since(start)
	if ref.Retired() != m.Stats.Retired {
		r.fail("%s: reference retired %d, machine %d", p.label, ref.Retired(), m.Stats.Retired)
	}
	return nil
}

func addLayerTimes(a *layerTimes, b layerTimes) {
	a.arch += b.arch
	a.price += b.price
	a.sched += b.sched
	a.flush += b.flush
	a.lower += b.lower
	a.vcache += b.vcache
	a.save += b.save
	a.follow += b.follow
	a.archInstrs += b.archInstrs
	a.inserts += b.inserts
	a.flushes += b.flushes
	a.saves += b.saves
	a.follows += b.follows
	a.schedAllocs += b.schedAllocs
	a.lowerAllocs += b.lowerAllocs
	a.schedMismatch += b.schedMismatch
	a.vcacheMismatch += b.vcacheMismatch
}

// countAllocs measures heap allocations per assembly and per
// certification call over every program.
func (r *tracedRun) countAllocs() {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, p := range r.progs {
		_, _ = asm.Assemble(p.source) // counted only; the pass checked the result
	}
	runtime.ReadMemStats(&m1)
	r.asmAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(len(r.progs))
	if r.sweep {
		runtime.ReadMemStats(&m0)
		for _, p := range r.progs {
			_ = progcheck.Certify(p.source) // counted only; the pass checked the result
		}
		runtime.ReadMemStats(&m1)
		r.certifyAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(len(r.progs))
	}
}

// poolStats is what a real, metered oracle sweep over the traced programs
// reported.
type poolStats struct {
	hitRate     float64
	divergences int
	instret     uint64
}

// sweepPool runs the real sweep over block 0 with a private metrics
// registry and reads the machine-pool counters from it.
func sweepPool(s *sweepSuite) poolStats {
	o := sweepOptions(s.seed)
	o.Metrics = metrics.NewRegistry()
	rep := oracle.Sweep(o)
	snap := o.Metrics.Snapshot()
	hits, _ := snap.Value("dtsvliw_sweep_pool_hits_total", "")
	misses, _ := snap.Value("dtsvliw_sweep_pool_misses_total", "")
	ps := poolStats{divergences: len(rep.Failures) + sweepPrograms - rep.Runs, instret: rep.Instret}
	if hits+misses > 0 {
		ps.hitRate = float64(hits) / float64(hits+misses)
	}
	return ps
}

// gcCPU is a reading of the runtime's CPU-time classes.
type gcCPU struct{ gc, total, idle float64 }

func readGC() gcCPU {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return gcCPU{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

func (a gcCPU) sub(b gcCPU) gcCPU { return gcCPU{a.gc - b.gc, a.total - b.total, a.idle - b.idle} }

// row is one line of the reconciliation: a layer's host time per pass.
type row struct {
	name  string
	ns    float64
	note  string
	level int // nesting under the row it splits
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives every per-layer metric and the reconciliation rows.
func (r *tracedRun) layerMetrics(gc gcCPU, pool poolStats) (map[string]metric, []row) {
	totals, self := r.tr.selfTimes("pass")
	passNs := median(totals)
	med := func(name string) float64 { return medianOf(self, name) }
	an := r.analyses
	amed := func(f func(a analysisSums) float64) float64 {
		v := make([]float64, len(an))
		for i, a := range an {
			v[i] = f(a)
		}
		return median(v)
	}
	lt := func(f func(l layerTimes) time.Duration) float64 {
		return amed(func(a analysisSums) float64 { return float64(f(a.lt)) })
	}

	// Counts summed over the recorded runs (they repeat exactly).
	var st core.Stats
	var primarySteps, instret uint64
	var slotCap uint64
	var telMiss, telEnter, telToVLIW, telDropped uint64
	var replayMiss, probeHits uint64
	for _, p := range r.progs {
		if p.rec == nil {
			continue
		}
		s := p.rec.stats
		addStats(&st, s)
		slotCap += s.Sched.BlocksFlushed * uint64(s.Sched.Width*s.Sched.Height)
		primarySteps += p.rec.primary
		instret += s.Retired
		telMiss += p.rec.telEvents[telemetry.EvVCacheMiss]
		telEnter += p.rec.telEvents[telemetry.EvBlockEntered]
		telToVLIW += p.rec.telEvents[telemetry.EvHandoverToVLIW]
		telDropped += p.rec.telDropped
		for _, d := range p.rec.disp {
			if d.kind == dvProbe && d.hit {
				probeHits++
			}
			if (d.kind == dvProbe || d.kind == dvChain) && !d.hit {
				replayMiss++
			}
		}
	}
	a0 := an[0].lt
	r.notes = append(r.notes,
		fmt.Sprintf("replay exactness: scheduler %d block mismatches, VLIW Cache %d outcome mismatches",
			a0.schedMismatch, a0.vcacheMismatch),
		fmt.Sprintf("dispatch stream vs telemetry ring (%d events dropped): probe hits %d/%d, lookup misses %d/%d, block entries %d/%d",
			telDropped, probeHits, telToVLIW, replayMiss, telMiss, st.Engine.BlocksEntered, telEnter))

	n := float64(len(r.progs))
	archNs := ratio(lt(func(l layerTimes) time.Duration { return l.arch }), float64(a0.archInstrs))
	price := lt(func(l layerTimes) time.Duration { return l.price })
	schedT := lt(func(l layerTimes) time.Duration { return l.sched })
	flushT := lt(func(l layerTimes) time.Duration { return l.flush })
	lowerT := lt(func(l layerTimes) time.Duration { return l.lower })
	vcT := lt(func(l layerTimes) time.Duration { return l.vcache })

	var runNs, buildNs, asmNs float64
	var rows []row
	m := map[string]metric{}
	if r.sweep {
		asmNs = amed(func(a analysisSums) float64 { return float64(a.asm) })
		buildNs = amed(func(a analysisSums) float64 { return float64(a.build) })
		runNs = amed(func(a analysisSums) float64 { return float64(a.run) })
	} else {
		asmNs = med("asm.assemble")
		buildNs = med("core.build")
		runNs = med("core.run")
	}
	archPrim := archNs * float64(primarySteps)
	engine := runNs - archPrim - price - schedT - lowerT - vcT
	lvl := 1
	if r.sweep {
		lvl = 2
	}
	coreRows := []row{
		{"arch.step", archPrim, "replayed StepOutcome x Primary steps", lvl},
		{"primary.price", price, "replayed", lvl},
		{"sched", schedT, "replayed Insert/Flush", lvl},
		{"vliw.lower", lowerT, "replayed", lvl},
		{"vcache", vcT, "replayed dispatch sequence", lvl},
		{"vliw.engine", engine, "RESIDUAL: core.run minus the replayed layers (engine, memory caches, dispatch loop)", lvl},
	}
	var ref, diff float64
	if r.sweep {
		ref = amed(func(a analysisSums) float64 { return float64(a.ref) })
		rundiff := med("oracle.rundiff")
		diff = rundiff - asmNs - runNs - ref
		rows = append(rows,
			row{"progen.generate", med("progen.generate"), "", 0},
			row{"progcheck.certify", med("progcheck.certify"), "includes its own assembly", 0},
			row{"oracle.rundiff", rundiff, "span; split below from the parts run alone", 0},
			row{"asm.assemble", asmNs, "alone", 1},
			row{"core.run", runNs, "alone, fresh machine", 1})
		rows = append(rows, coreRows...)
		rows = append(rows,
			row{"oracle.ref", ref, "alone", 1},
			row{"oracle.diff", diff, "RESIDUAL: rundiff minus the parts above", 1})
	} else {
		rows = append(rows,
			row{"asm.assemble", asmNs, "", 0},
			row{"core.build", buildNs, "state load + NewMachine", 0},
			row{"core.run", runNs, "span; split below by replay", 0})
		rows = append(rows, coreRows...)
		rows = append(rows, row{"workloads.validate", med("workloads.validate"), "", 0})
	}
	// A pass's unattributed time is the self time of the pass and
	// per-program spans: loop overhead outside every layer call.
	unattr := make([]float64, len(self))
	for i, sm := range self {
		unattr[i] = sm["pass"] + sm["input"] + sm["program"]
	}
	unattributed := median(unattr)
	rows = append(rows, row{"unattributed", unattributed, "pass minus the self time of every layer span", 0})

	recNs := r.recordNs()
	untraced := runNs
	m["asm.assemble_us"] = metric{ratio(asmNs, n) / 1e3, "us"}
	m["asm.allocs_per_call"] = metric{r.asmAllocs, "allocs/call"}
	m["progen.generate_us"] = metric{0, "us"}
	m["progcheck.certify_us"] = metric{0, "us"}
	m["progcheck.allocs_per_call"] = metric{r.certifyAllocs, "allocs/call"}
	m["oracle.ref_ns_per_instr"] = metric{ratio(ref, float64(instret)), "ns/instr"}
	m["oracle.diff_us_per_program"] = metric{0, "us"}
	m["oracle.pool_hit_rate"] = metric{pool.hitRate, "ratio"}
	m["oracle.divergences"] = metric{float64(pool.divergences), "count"}
	if r.sweep {
		m["progen.generate_us"] = metric{med("progen.generate") / n / 1e3, "us"}
		m["progcheck.certify_us"] = metric{med("progcheck.certify") / n / 1e3, "us"}
		m["oracle.diff_us_per_program"] = metric{diff / n / 1e3, "us"}
	}
	m["core.build_us"] = metric{ratio(buildNs, n) / 1e3, "us"}
	m["core.run_ns_per_instr"] = metric{ratio(runNs, float64(instret)), "ns/instr"}
	m["core.switches_per_kinstr"] = metric{1000 * ratio(float64(st.Switches), float64(st.Retired)), "count/kinstr"}
	m["core.vliw_cycle_frac"] = metric{ratio(float64(st.VLIWCycles), float64(st.Cycles)), "ratio"}
	m["arch.step_ns_per_instr"] = metric{archNs, "ns/instr"}
	m["primary.instrs"] = metric{float64(primarySteps), "count"}
	m["primary.price_ns"] = metric{ratio(price, float64(primarySteps)), "ns/instr"}
	m["primary.cycle_frac"] = metric{ratio(float64(st.PrimaryCycles), float64(st.Cycles)), "ratio"}
	m["sched.inserts"] = metric{float64(a0.inserts), "count"}
	m["sched.insert_ns"] = metric{ratio(schedT-flushT, float64(a0.inserts)), "ns/call"}
	m["sched.insert_allocs"] = metric{ratio(float64(a0.schedAllocs), float64(a0.inserts)), "allocs/call"}
	m["sched.blocks_flushed"] = metric{float64(st.Sched.BlocksFlushed), "count"}
	m["sched.flush_ns"] = metric{ratio(flushT, float64(a0.flushes)), "ns/call"}
	m["sched.split_rate"] = metric{ratio(float64(st.Sched.Splits), float64(st.Sched.Inserted)), "ratio"}
	m["sched.slot_util"] = metric{ratio(float64(st.Sched.FlushedSlots), float64(slotCap)), "ratio"}
	m["vliw.lower_us"] = metric{ratio(lowerT, float64(blockCount(r.progs))) / 1e3, "us/block"}
	m["vliw.lower_allocs"] = metric{ratio(float64(a0.lowerAllocs), float64(blockCount(r.progs))), "allocs/block"}
	m["vliw.blocks_entered"] = metric{float64(st.Engine.BlocksEntered), "count"}
	m["vliw.lis_executed"] = metric{float64(st.Engine.LIsExecuted), "count"}
	m["vliw.trace_exit_rate"] = metric{ratio(float64(st.Engine.TraceExits), float64(st.Engine.BlocksEntered)), "ratio"}
	m["vliw.rollbacks"] = metric{float64(st.AliasingExceptions + st.OtherExceptions), "count"}
	m["vliw.engine_residual_ns_per_li"] = metric{ratio(engine, float64(st.Engine.LIsExecuted)), "ns/LI"}
	m["vcache.lookups"] = metric{float64(st.VCacheHits + st.VCacheMisses), "count"}
	m["vcache.hit_rate"] = metric{ratio(float64(st.VCacheHits), float64(st.VCacheHits+st.VCacheMisses)), "ratio"}
	m["vcache.chain_hit_rate"] = metric{ratio(float64(st.VCacheChainHits), float64(st.VCacheHits)), "ratio"}
	m["vcache.saves"] = metric{float64(st.BlocksSaved), "count"}
	m["vcache.unlinks"] = metric{float64(st.VCacheChainUnlinks), "count"}
	m["vcache.save_ns"] = metric{ratio(lt(func(l layerTimes) time.Duration { return l.save }), float64(a0.saves)), "ns/call"}
	m["vcache.follow_ns"] = metric{ratio(lt(func(l layerTimes) time.Duration { return l.follow }), float64(a0.follows)), "ns/call"}
	m["mem.icache_miss_rate"] = metric{ratio(float64(st.ICacheMisses), float64(st.ICacheAccesses)), "ratio"}
	m["mem.dcache_miss_rate"] = metric{ratio(float64(st.DCacheMisses), float64(st.DCacheAccesses)), "ratio"}
	m["runtime.gc_cpu_frac"] = metric{ratio(gc.gc, gc.total-gc.idle), "ratio"}
	m["trace.unattributed_frac"] = metric{ratio(unattributed, passNs), "ratio"}
	m["trace.overhead_frac"] = metric{ratio(recNs, untraced) - 1, "ratio"}
	rows = append([]row{{"pass", passNs, fmt.Sprintf("median of %d traced passes", len(totals)), 0}}, rows...)
	return m, rows
}

// recordNs is the recording runs' total host time.
func (r *tracedRun) recordNs() float64 {
	_, self := r.tr.selfTimes("record")
	return medianOf(self, "record.run")
}

func blockCount(progs []*program) int {
	n := 0
	for _, p := range progs {
		if p.rec != nil {
			n += len(p.rec.blocks)
		}
	}
	return n
}

func addStats(a *core.Stats, b core.Stats) {
	a.Cycles += b.Cycles
	a.PrimaryCycles += b.PrimaryCycles
	a.VLIWCycles += b.VLIWCycles
	a.Retired += b.Retired
	a.Switches += b.Switches
	a.BlocksSaved += b.BlocksSaved
	a.AliasingExceptions += b.AliasingExceptions
	a.OtherExceptions += b.OtherExceptions
	a.ICacheAccesses += b.ICacheAccesses
	a.ICacheMisses += b.ICacheMisses
	a.DCacheAccesses += b.DCacheAccesses
	a.DCacheMisses += b.DCacheMisses
	a.VCacheHits += b.VCacheHits
	a.VCacheMisses += b.VCacheMisses
	a.VCacheChainHits += b.VCacheChainHits
	a.VCacheChainUnlinks += b.VCacheChainUnlinks
	a.Sched.Inserted += b.Sched.Inserted
	a.Sched.Splits += b.Sched.Splits
	a.Sched.BlocksFlushed += b.Sched.BlocksFlushed
	a.Sched.FlushedSlots += b.Sched.FlushedSlots
	a.Engine.BlocksEntered += b.Engine.BlocksEntered
	a.Engine.LIsExecuted += b.Engine.LIsExecuted
	a.Engine.TraceExits += b.Engine.TraceExits
}

// predictions are the layer table's expectations: the workloads where a
// layer does its work and those where it should be near idle.
var predictions = []struct {
	layer      string
	work, idle []string
}{
	{"asm.assemble", []string{"oracle-sweep"}, []string{"spec-feasible"}},
	{"progen.generate", []string{"oracle-sweep"}, []string{"spec-feasible", "vcache-churn"}},
	{"progcheck.certify", []string{"oracle-sweep"}, []string{"spec-feasible", "vcache-churn"}},
	{"oracle", []string{"oracle-sweep"}, []string{"spec-feasible", "vcache-churn"}},
	{"arch.step", []string{"vcache-churn", "oracle-sweep"}, []string{"spec-feasible"}},
	{"primary.price", []string{"vcache-churn"}, []string{"spec-feasible"}},
	{"sched", []string{"vcache-churn"}, []string{"spec-feasible"}},
	{"vliw.lower", []string{"vcache-churn"}, []string{"spec-feasible"}},
	{"vliw.engine", []string{"spec-feasible"}, []string{"oracle-sweep"}},
	{"runtime.gc", []string{"vcache-churn", "oracle-sweep"}, []string{"spec-feasible"}},
}

// Thresholds on a layer's share of the pass: at least workShare where it
// should work, below idleShare where it should be near idle.
const (
	workShare = 0.10
	idleShare = 0.05
)

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func (r *tracedRun) report(m map[string]metric, rows []row, profPath string) {
	name := r.s.name()
	passNs := rows[0].ns
	fmt.Printf("perfbench %s: traced run, %d programs per pass\n", name, len(r.progs))
	for _, c := range r.s.counts() {
		fmt.Println("  exact", c)
	}
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  timer cost %v per individually timed call (subtracted)\n", timerCost)
	fmt.Println("  per-layer host time per pass:")
	shares := map[string]float64{}
	for _, rw := range rows {
		pad := strings.Repeat("  ", rw.level)
		fmt.Printf("    %-22s %10.3f ms %6.1f%%  %s\n", pad+rw.name, rw.ns/1e6, 100*ratio(rw.ns, passNs), rw.note)
		shares[rw.name] = ratio(rw.ns, passNs)
	}
	shares["oracle"] = shares["oracle.ref"] + shares["oracle.diff"]
	shares["runtime.gc"] = m["runtime.gc_cpu_frac"].Value
	un := m["trace.unattributed_frac"].Value
	fmt.Printf("  reconciliation: pass %.3f ms = layer span self times %.3f ms + unattributed %.3f ms (trace.unattributed_frac %.4f); recording run vs untraced run: trace.overhead_frac %.3f\n",
		passNs/1e6, (1-un)*passNs/1e6, un*passNs/1e6, un, m["trace.overhead_frac"].Value)

	fmt.Println("  predictions (layer share of pass host time; work >= 10%, near idle < 5%):")
	for _, p := range predictions {
		var role string
		switch {
		case contains(p.work, name):
			role = "work"
		case contains(p.idle, name):
			role = "idle"
		default:
			continue
		}
		sh := shares[p.layer]
		verdict := "unclear"
		switch {
		case role == "work" && sh >= workShare, role == "idle" && sh < idleShare:
			verdict = "held"
		case role == "work" && sh < idleShare, role == "idle" && sh >= workShare:
			verdict = "did not hold"
		}
		fmt.Printf("    %-18s predicted %-4s share %6.1f%%  %s\n", p.layer, role, 100*sh, verdict)
	}
	// mem moves simulated time, not host time: it works where the caches
	// are real (feasible) and is idle on the ideal machine's perfect ones.
	if name != "oracle-sweep" {
		mr := m["mem.dcache_miss_rate"].Value + m["mem.icache_miss_rate"].Value
		memRole, memHeld := "idle", mr == 0
		if name == "spec-feasible" {
			memRole, memHeld = "work", mr > 0
		}
		fmt.Printf("    %-18s predicted %-4s miss rates I %.4f D %.4f  held=%v\n", "mem", memRole,
			m["mem.icache_miss_rate"].Value, m["mem.dcache_miss_rate"].Value, memHeld)
	}
	// The VLIW Cache is read-mostly on spec-feasible and written often on
	// vcache-churn: compare saves per thousand lookups against 10.
	if name != "oracle-sweep" {
		w := 1000 * ratio(m["vcache.saves"].Value, m["vcache.lookups"].Value)
		role, held := "reads", w < 10
		if name == "vcache-churn" {
			role, held = "writes", w >= 10
		}
		fmt.Printf("    %-18s predicted %-4s saves per 1000 lookups %.1f  held=%v\n", "vcache", role, w, held)
	}
	fmt.Printf("    %-18s predicted work share %6.1f%% (machine build and run)  held=%v\n", "core",
		100*(shares["core.build"]+shares["core.run"]), shares["core.build"]+shares["core.run"] >= workShare)
	fmt.Printf("    %-18s spans cover the pass: unattributed %.2f%%  held=%v\n", "trace", 100*un, un < idleShare)

	r.crossCheck(profPath, shares)
	fmt.Println("  per-layer metrics:")
	printMetrics(m)
}

// crossCheck aggregates the CPU profile of the traced passes by package
// with go tool pprof and prints it beside the span shares, so that it is
// visible what the engine residual holds.
func (r *tracedRun) crossCheck(profPath string, shares map[string]float64) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", profPath).Output()
	if err != nil {
		fmt.Printf("  pprof cross-check unavailable: %v\n", err)
		return
	}
	flat := map[string]float64{}
	total := 0.0
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			continue
		}
		flat[pkgOf(f[5])] += d.Seconds()
		total += d.Seconds()
	}
	if total == 0 {
		fmt.Println("  pprof cross-check: empty profile")
		return
	}
	type kv struct {
		k string
		v float64
	}
	var list []kv
	for k, v := range flat {
		list = append(list, kv{k, v})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].v > list[j].v })
	fmt.Printf("  pprof cross-check (%s, %.2f s of samples over the traced passes), flat share by package:\n", profPath, total)
	for _, e := range list {
		if e.v/total < 0.005 {
			continue
		}
		fmt.Printf("    %-32s %6.1f%%\n", e.k, 100*e.v/total)
	}
	eng := (flat["dtsvliw/internal/vliw"] + flat["dtsvliw/internal/core"] + flat["dtsvliw/internal/mem"]) / total
	fmt.Printf("  span residual vliw.engine %.1f%% of the pass vs pprof flat vliw+core+mem %.1f%% (vliw also holds lowering, %.1f%% by replay)\n",
		100*shares["vliw.engine"], 100*eng, 100*shares["vliw.lower"])
}

// pkgOf returns the package of a profiled function name, folding the
// standard library other than the runtime into one bucket.
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	pkg := fn
	if dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "dtsvliw/"), pkg == "runtime":
		return pkg
	}
	return "other (standard library)"
}

func (r *tracedRun) writeSpans() error {
	path := filepath.Join(traceDir, r.s.name()+".spans.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  %d spans written to %s\n", len(r.tr.spans), path)
	return nil
}
