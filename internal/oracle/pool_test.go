package oracle

import (
	"fmt"
	"strings"
	"testing"

	"dtsvliw/internal/core"
	"dtsvliw/internal/progen"
)

// renderReport flattens a sweep report to one canonical string, so
// determinism tests can demand byte identity rather than field-by-field
// equality.
func renderReport(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "runs=%d instret=%d cycles=%d failures=%d\n",
		rep.Runs, rep.Instret, rep.Cycles, len(rep.Failures))
	for i := range rep.Failures {
		b.WriteString(rep.Failures[i].Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSweepParallelDeterminism: the sweep report — counters, failure
// order, shrunk reproducers, everything — is byte-identical for any
// worker count and for the pooled and rebuild-from-scratch paths, on
// both a clean sweep and one that trips the injected scheduler fault
// (which exercises shrinking inside workers).
func TestSweepParallelDeterminism(t *testing.T) {
	cases := []struct {
		name string
		opts SweepOptions
	}{
		{"clean", SweepOptions{N: 24, Seed: 7}},
		{"faulty", SweepOptions{
			N: 30, Seed: 0,
			Shapes:  []progen.Shape{progen.ShapeMixed},
			Configs: []NamedConfig{{Name: "faulty", Cfg: faultyConfig()}},
			MaxFail: 2,
			// A tight shrink budget keeps the 4-variant comparison fast;
			// determinism must hold at any budget.
			ShrinkEvals: 20,
		}},
	}
	variants := []struct {
		name string
		mod  func(*SweepOptions)
	}{
		{"serial-noreuse", func(o *SweepOptions) { o.Workers = 1; o.NoReuse = true }},
		{"serial-pooled", func(o *SweepOptions) { o.Workers = 1 }},
		{"par2", func(o *SweepOptions) { o.Workers = 2 }},
		{"par8", func(o *SweepOptions) { o.Workers = 8 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want string
			for _, v := range variants {
				opts := c.opts
				v.mod(&opts)
				got := renderReport(Sweep(opts))
				if c.name == "faulty" && !strings.Contains(got, "failures=2") {
					t.Fatalf("%s: faulty sweep did not hit MaxFail:\n%s", v.name, got)
				}
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Errorf("%s report differs from %s:\n--- want\n%s--- got\n%s",
						v.name, variants[0].name, want, got)
				}
			}
		})
	}
}

// TestSweepProgressCopy: the Progress callback's failure pointer must
// stay valid after the sweep appends more failures (it is a copy, not a
// pointer into the report's slice).
func TestSweepProgressCopy(t *testing.T) {
	var seen []*Failure
	rep := Sweep(SweepOptions{
		N: 30, Seed: 0,
		Shapes:  []progen.Shape{progen.ShapeMixed},
		Configs: []NamedConfig{{Name: "faulty", Cfg: faultyConfig()}},
		MaxFail: 2,
		Progress: func(done, total int, f *Failure) {
			if f != nil {
				seen = append(seen, f)
			}
		},
	})
	if len(seen) != len(rep.Failures) {
		t.Fatalf("progress saw %d failures, report has %d", len(seen), len(rep.Failures))
	}
	for i, f := range seen {
		if f == &rep.Failures[i] {
			t.Fatalf("progress failure %d aliases the report slice", i)
		}
		if f.Render() != rep.Failures[i].Render() {
			t.Fatalf("progress failure %d differs from report:\n%s\nvs\n%s",
				i, f.Render(), rep.Failures[i].Render())
		}
	}
}

func sameResult(a, b *Result) bool {
	return a.ExitCode == b.ExitCode && string(a.Output) == string(b.Output) &&
		a.Instret == b.Instret && a.Cycles == b.Cycles
}

// TestPooledRunDiffMatchesFresh: a reused context produces results
// indistinguishable from a freshly built machine, across shapes and
// seeds — reuse is a pure perf mechanism.
func TestPooledRunDiffMatchesFresh(t *testing.T) {
	sc := NewSweepContext()
	cfg := core.IdealConfig(8, 8)
	for seed := int64(0); seed < 6; seed++ {
		for _, shape := range []progen.Shape{progen.ShapeMixed, progen.ShapeAliasing} {
			src := progen.Generate(progen.ShapeParams(shape, seed))
			fresh, errF := RunDiff(src, cfg)
			pooled, errP := sc.RunDiff(src, cfg)
			if (errF == nil) != (errP == nil) {
				t.Fatalf("seed %d %s: fresh err %v, pooled err %v", seed, shape, errF, errP)
			}
			if errF != nil {
				continue
			}
			if !sameResult(fresh, pooled) {
				t.Fatalf("seed %d %s: fresh %+v != pooled %+v", seed, shape, fresh, pooled)
			}
		}
	}
	if sc.Pool().Hits == 0 {
		t.Fatal("pool recorded no hits — contexts were not actually reused")
	}
}

// TestPooledSteadyStateAllocBound: recycling a warm context must cost a
// small constant number of allocations — orders of magnitude below
// building a machine — or the pool has quietly stopped paying for
// itself. The bound covers poolKey formatting and map traffic; the
// reset paths themselves (scheduler slabs, vcache drain, page free
// list) must not allocate at all.
func TestPooledSteadyStateAllocBound(t *testing.T) {
	cfg := core.IdealConfig(8, 8)
	if !core.Poolable(cfg) {
		t.Fatal("ideal config not poolable")
	}
	pool := core.NewMachinePool()
	src := progen.Generate(progen.ShapeParams(progen.ShapeMixed, 1))
	// Warm the pool: one full differential run populates every arena.
	sc := NewSweepContext()
	if _, err := sc.RunDiff(src, cfg); err != nil {
		t.Fatal(err)
	}
	ctx, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Prepare(); err != nil {
		t.Fatal(err)
	}
	pool.Put(ctx)

	allocs := testing.AllocsPerRun(50, func() {
		c, err := pool.Get(cfg)
		if err != nil {
			panic(err)
		}
		if _, err := c.Prepare(); err != nil {
			panic(err)
		}
		pool.Put(c)
	})
	// A fresh NewMachineContext+Prepare costs thousands of allocations
	// (line arrays, scheduler tables, page maps); the recycle cycle must
	// stay under a small fixed budget.
	if allocs > 40 {
		t.Fatalf("steady-state get/prepare/put cycle allocates %.0f objects", allocs)
	}
}

// sweepCaseAllocBudget bounds the allocations of one whole sweep case on
// a warm context. A case costs about 150, mostly block lowering and
// per-program bookkeeping; one allocation per source line, CFG block or
// checkpoint anywhere in the front end would add hundreds.
const sweepCaseAllocBudget = 250

// TestSweepCaseAllocBound: once a worker's SweepContext is warm, one
// whole case — generate, assemble, certify, pooled differential run —
// costs a bounded number of allocations, so the sweep's front end stays
// allocated per program, not per line, block or checkpoint.
func TestSweepCaseAllocBound(t *testing.T) {
	configs := DefaultConfigs()
	r := newSweepRunner(SweepOptions{Seed: 1}, progen.Shapes(), configs, nil, 0)
	// Warm every (shape, config) pair of the rotation once.
	rotation := len(progen.Shapes()) * len(configs)
	for i := 0; i < rotation; i++ {
		if cr := r.runCase(i); cr.failure != nil {
			t.Fatalf("warm-up case %d failed:\n%s", i, cr.failure.Render())
		}
	}
	i := rotation
	allocs := testing.AllocsPerRun(rotation-1, func() {
		if cr := r.runCase(i); cr.failure != nil {
			panic(cr.failure.Render())
		}
		i++
	})
	t.Logf("%.0f allocations per sweep case", allocs)
	if allocs > sweepCaseAllocBudget {
		t.Fatalf("one sweep case allocates %.0f objects, budget %d", allocs, sweepCaseAllocBudget)
	}
}

// TestFastForwardEquivalence: fast-forwarding a warmup prefix changes
// cycle accounting only — the architectural outcome, instruction count
// and reference agreement are untouched, and cycles strictly drop.
func TestFastForwardEquivalence(t *testing.T) {
	cfg := core.IdealConfig(8, 8)
	for seed := int64(0); seed < 4; seed++ {
		src := progen.Generate(progen.ShapeParams(progen.ShapeMixed, seed))
		base, err := RunDiff(src, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ffCfg := cfg
		ffCfg.FastForward = base.Instret / 2
		ff, err := RunDiff(src, ffCfg)
		if err != nil {
			t.Fatalf("seed %d fast-forward: %v", seed, err)
		}
		if ff.ExitCode != base.ExitCode || string(ff.Output) != string(base.Output) || ff.Instret != base.Instret {
			t.Fatalf("seed %d: fast-forward changed the outcome: %+v vs %+v", seed, ff, base)
		}
		if ff.Cycles >= base.Cycles {
			t.Fatalf("seed %d: fast-forward did not reduce cycles (%d >= %d)", seed, ff.Cycles, base.Cycles)
		}
	}
}

// TestSweepFastForwardStillDiffs: a fast-forwarded sweep still catches
// the injected scheduler fault when the divergence happens after the
// warmup prefix — fast-forward trades coverage of the prefix for speed,
// not correctness of what it does simulate.
func TestSweepFastForwardStillDiffs(t *testing.T) {
	rep := Sweep(SweepOptions{
		N: 40, Seed: 0,
		Shapes:      []progen.Shape{progen.ShapeMixed},
		Configs:     []NamedConfig{{Name: "faulty", Cfg: faultyConfig()}},
		MaxFail:     1,
		FastForward: 20,
	})
	if len(rep.Failures) == 0 {
		t.Fatal("fast-forwarded sweep over the faulty machine reported no failures")
	}
}

// BenchmarkOracleSweep measures co-simulation throughput (programs/sec)
// in the three modes the BENCH_SCHED sweep rows track.
func BenchmarkOracleSweep(b *testing.B) {
	for _, v := range []struct {
		name string
		opts SweepOptions
	}{
		{"serial-noreuse", SweepOptions{Workers: 1, NoReuse: true}},
		{"serial-pooled", SweepOptions{Workers: 1}},
		{"parallel", SweepOptions{Workers: 0}},
	} {
		b.Run(v.name, func(b *testing.B) {
			const perIter = 50
			opts := v.opts
			opts.N = perIter
			opts.Seed = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := Sweep(opts)
				if len(rep.Failures) > 0 {
					b.Fatalf("divergence during benchmark:\n%s", rep.Failures[0].Render())
				}
			}
			b.ReportMetric(float64(perIter*b.N)/b.Elapsed().Seconds(), "programs/sec")
		})
	}
}
