// Command experiments regenerates the paper's tables and figures on the
// reproduced DTSVLIW. With no flags it runs every experiment in the
// paper's order and prints the result tables, fanning independent
// simulations out over all CPUs (-par 1 forces serial mode; output is
// identical either way).
//
// Usage:
//
//	experiments [-run fig5,table3] [-max N] [-csv] [-v] [-par N]
//	            [-profile] [-profile-top N]
//	            [-bench-out BENCH_SCHED.json] [-bench-nochain]
//	            [-bench-telemetry] [-bench-overhead-gate PCT]
//	            [-bench-diff OLD.json,NEW.json] [-bench-gate PCT]
//	            [-bench-win-gate PCT] [-sweep-gate]
//	            [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// -bench-diff compares two benchmark reports entry by entry (ns/instr and
// allocs/instr deltas); with -bench-gate it exits nonzero when any
// machine entry's ns/instr regressed by more than PCT percent.
// Machine rows always run the VLIW Engine on decode-once lowered blocks
// (DESIGN.md §11), its only execution form. -bench-nochain measures the machine rows with
// direct block chaining disabled, the baseline of the chaining perf gate;
// -bench-win-gate then requires at least half the machine rows to have
// improved ns/instr by PCT percent. -bench-telemetry measures the machine rows with
// the telemetry collector attached, giving overhead comparisons their
// enabled-side report. -bench-overhead-gate measures the machine rows
// telemetry-off and telemetry-on with interleaved reps in this one
// process (robust to host drift) and exits nonzero when enabling
// telemetry costs any row more than PCT percent ns/instr. -sweep-gate
// measures the oracle sweep-throughput rows (programs/sec, serial-noreuse
// vs serial-pooled vs parallel) and exits nonzero when the pooled or
// parallel paths fall below their speedup contract. -profile
// prints full per-workload hot-block and histogram telemetry dumps
// after the requested experiment tables (the "profile" experiment
// prints the one-line-per-workload summary table).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"dtsvliw/internal/experiments"
	"dtsvliw/internal/introspect"
)

func main() {
	run := flag.String("run", strings.Join(experiments.Order, ","),
		"comma-separated experiments: "+strings.Join(experiments.Order, ", "))
	max := flag.Uint64("max", 0, "cap sequential instructions per run (0 = to completion)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	verbose := flag.Bool("v", false, "print per-run progress")
	test := flag.Bool("testmode", false, "run with the lockstep test machine (slow)")
	par := flag.Int("par", 0, "simulation workers (0 = one per CPU, 1 = serial)")
	benchOut := flag.String("bench-out", "",
		"measure the benchmark matrix and write BENCH_SCHED.json to this path (skips -run)")
	benchTel := flag.Bool("bench-telemetry", false,
		"with -bench-out: measure machine rows with telemetry enabled (overhead comparison side)")
	benchNoChain := flag.Bool("bench-nochain", false,
		"with -bench-out: measure machine rows with direct block chaining disabled (chaining perf-gate baseline)")
	benchOverheadGate := flag.Float64("bench-overhead-gate", 0,
		"measure machine rows telemetry-off vs -on with interleaved reps; fail past this percent ns/instr overhead (skips -run)")
	profile := flag.Bool("profile", false,
		"print per-workload telemetry profile/histogram dumps after the tables")
	profileTop := flag.Int("profile-top", 5, "with -profile: hot blocks listed per workload")
	benchDiff := flag.String("bench-diff", "",
		"compare two benchmark reports: OLD.json,NEW.json (skips -run)")
	benchGate := flag.Float64("bench-gate", 0,
		"with -bench-diff: fail if any machine entry's ns/instr regressed by more than this percent")
	benchWinGate := flag.Float64("bench-win-gate", 0,
		"with -bench-diff: fail unless at least half the machine entries improved ns/instr by this percent")
	sweepGate := flag.Bool("sweep-gate", false,
		"measure the oracle sweep-throughput rows and enforce the pooled/parallel speedup contract (skips -run)")
	benchMetricsGate := flag.Float64("bench-metrics-gate", 0,
		"measure machine rows metrics-off vs -on with interleaved reps; fail past this percent ns/instr overhead (skips -run)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /statusz and /debug/pprof on this address for the duration of the run")
	flag.Parse()

	if *metricsAddr != "" {
		srv, err := introspect.Serve(*metricsAddr, introspect.Options{
			Program: "experiments",
			Args:    os.Args[1:],
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics-addr: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "experiments: introspection on http://%s\n", srv.Addr())
	}

	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		cpuFile = f
	}

	o := experiments.Options{MaxInstrs: *max, TestMode: *test, Workers: *par,
		NoChain: *benchNoChain, Telemetry: *benchTel}
	if *verbose {
		o.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	// exit routes every failure through the deferred profile writers
	// (os.Exit inside main would skip them).
	code := 0
	exit := func(c int) { code = c }
	defer func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			f.Close()
		}
		os.Exit(code)
	}()

	if *benchDiff != "" {
		parts := strings.Split(*benchDiff, ",")
		if len(parts) != 2 {
			fmt.Fprintln(os.Stderr, "bench-diff: want OLD.json,NEW.json")
			exit(2)
			return
		}
		oldRep, err := experiments.LoadBenchReport(strings.TrimSpace(parts[0]))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-diff: %v\n", err)
			exit(1)
			return
		}
		newRep, err := experiments.LoadBenchReport(strings.TrimSpace(parts[1]))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-diff: %v\n", err)
			exit(1)
			return
		}
		if note := experiments.BenchEnvNote(oldRep, newRep); note != "" {
			fmt.Fprintln(os.Stderr, "bench-diff:", note)
		}
		deltas := experiments.DiffBenchReports(oldRep, newRep)
		fmt.Print(experiments.FormatBenchDiff(deltas))
		if *benchGate > 0 {
			if err := experiments.GateBenchDiff(deltas, *benchGate); err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				exit(1)
				return
			}
			fmt.Fprintf(os.Stderr, "bench gate passed (threshold %+.1f%% ns/instr on machine entries)\n", *benchGate)
		}
		if *benchWinGate > 0 {
			if err := experiments.GateBenchWins(deltas, *benchWinGate); err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				exit(1)
				return
			}
			fmt.Fprintf(os.Stderr, "bench win gate passed (>= half the machine entries improved >= %.1f%% ns/instr)\n", *benchWinGate)
		}
		return
	}

	if *sweepGate {
		entries, err := experiments.BenchSweep(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep-gate: %v\n", err)
			exit(1)
			return
		}
		for _, e := range entries {
			fmt.Printf("sweep %-16s %d workers  %8.0f programs/sec  %6.1f ns/instr  %6.3f allocs/instr\n",
				e.Config, e.Workers, e.ProgramsPerSec, e.NsPerInstr, e.AllocsPerInstr)
		}
		if err := experiments.GateSweepEntries(entries); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			exit(1)
			return
		}
		fmt.Fprintln(os.Stderr, "sweep gate passed (pooled >= 1.05x noreuse; parallel scaling checked when CPUs allow)")
		return
	}

	if *benchMetricsGate > 0 {
		deltas, err := experiments.BenchMetricsOverhead(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-metrics-gate: %v\n", err)
			exit(1)
			return
		}
		fmt.Print(experiments.FormatBenchDiff(deltas))
		// Gate on the mean across rows, not per row: the publisher's cost is
		// uniform, so a real regression moves every row, while single rows
		// bounce past 2% on run-to-run noise alone.
		if err := experiments.GateBenchMean(deltas, *benchMetricsGate); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			exit(1)
			return
		}
		fmt.Fprintf(os.Stderr, "metrics overhead gate passed (threshold %+.1f%% mean ns/instr on machine entries)\n",
			*benchMetricsGate)
		return
	}

	if *benchOverheadGate > 0 {
		deltas, err := experiments.BenchTelemetryOverhead(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-overhead-gate: %v\n", err)
			exit(1)
			return
		}
		fmt.Print(experiments.FormatBenchDiff(deltas))
		if err := experiments.GateBenchDiff(deltas, *benchOverheadGate); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			exit(1)
			return
		}
		fmt.Fprintf(os.Stderr, "telemetry overhead gate passed (threshold %+.1f%% ns/instr on machine entries)\n",
			*benchOverheadGate)
		return
	}

	if *benchOut != "" {
		rep, err := experiments.BenchSched(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			exit(1)
			return
		}
		b, err := rep.WriteJSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			exit(1)
			return
		}
		if err := os.WriteFile(*benchOut, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			exit(1)
			return
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d entries)\n", *benchOut, len(rep.Entries))
		return
	}

	for _, name := range strings.Split(*run, ",") {
		name = strings.TrimSpace(name)
		r, ok := experiments.Runner[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have: %s)\n",
				name, strings.Join(experiments.Order, ", "))
			exit(2)
			return
		}
		t, err := r(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			exit(1)
			return
		}
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t)
		}
	}

	if *profile {
		dump, err := experiments.ProfileDumps(o, *profileTop)
		if err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			exit(1)
			return
		}
		fmt.Print(dump)
	}
}
