// Command dtsvliw runs a program on the DTSVLIW simulator and reports
// performance statistics.
//
// Run a built-in SPECint95-analogue workload:
//
//	dtsvliw -workload ijpeg -width 8 -height 8
//
// Or an assembly file:
//
//	dtsvliw -file prog.s -feasible
package main

import (
	"flag"
	"fmt"
	"os"

	"dtsvliw"
	"dtsvliw/internal/introspect"
)

func main() {
	workload := flag.String("workload", "", "built-in workload name (compress gcc go ijpeg m88ksim perl vortex xlisp)")
	file := flag.String("file", "", "SPARC V7 assembly file to run instead of a workload")
	width := flag.Int("width", 8, "instructions per long instruction")
	height := flag.Int("height", 8, "long instructions per block")
	feasible := flag.Bool("feasible", false, "use the paper's feasible machine configuration")
	vcacheKB := flag.Int("vcache", 0, "VLIW Cache size in KB (0 = configuration default)")
	vcacheAssoc := flag.Int("vcache-assoc", 0, "VLIW Cache associativity (0 = default)")
	max := flag.Uint64("max", 0, "stop after N sequential instructions (0 = run to halt)")
	testMode := flag.Bool("testmode", false, "lockstep-validate against the sequential test machine")
	strategy := flag.String("strategy", "", "scheduling strategy (fcfs one-per-block optimal; empty = fcfs)")
	schedBudget := flag.Int("sched-budget", 0, "search budget per block for the optimal strategy (0 = default, negative = unlimited)")
	noChain := flag.Bool("nochain", false, "disable direct block chaining: associative VLIW Cache lookup on every block transition")
	showOutput := flag.Bool("output", false, "print the program's trap output")
	dumpBlocks := flag.Int("dumpblocks", 0, "print the first N scheduled blocks (Figure 2c style)")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON timeline to this path (open in Perfetto)")
	profile := flag.Bool("profile", false, "print the hot-block profile and distribution histograms")
	profileTop := flag.Int("profile-top", 10, "with -profile: hot blocks listed")
	ringSize := flag.Int("trace-ring", 0, "telemetry event ring capacity (0 = 8k events; raise for long timeline exports)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /statusz and /debug/pprof on this address for the duration of the run")
	flag.Parse()

	var cfg dtsvliw.Config
	if *feasible {
		cfg = dtsvliw.Feasible()
	} else {
		cfg = dtsvliw.Ideal(*width, *height)
	}
	if *vcacheKB > 0 {
		cfg.VCacheKB = *vcacheKB
	}
	if *vcacheAssoc > 0 {
		cfg.VCacheAssoc = *vcacheAssoc
	}
	cfg.MaxInstrs = *max
	cfg.TestMode = *testMode
	cfg.NoChain = *noChain
	cfg.SchedStrategy = *strategy
	cfg.SchedNodeBudget = *schedBudget
	if *trace != "" || *profile {
		cfg.Telemetry = true
		cfg.TelemetryRingSize = *ringSize
	}

	if *metricsAddr != "" {
		srv, err := introspect.Serve(*metricsAddr, introspect.Options{
			Program: "dtsvliw",
			Args:    os.Args[1:],
			Status: func() introspect.Status {
				return introspect.Status{
					Config: map[string]string{
						"workload": *workload, "file": *file,
						"geometry": fmt.Sprintf("%dx%d", cfg.Width, cfg.Height),
						"strategy": *strategy,
					},
					Fingerprint: cfg.Fingerprint(),
				}
			},
		})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "dtsvliw: introspection on http://%s\n", srv.Addr())
	}

	var sys *dtsvliw.System
	var err error
	switch {
	case *workload != "":
		sys, err = dtsvliw.NewSystemFromWorkload(cfg, *workload)
	case *file != "":
		src, rerr := os.ReadFile(*file)
		if rerr != nil {
			fatal(rerr)
		}
		var p *dtsvliw.Program
		p, err = dtsvliw.Assemble(string(src))
		if err == nil {
			sys, err = dtsvliw.NewSystem(cfg, p)
		}
	default:
		fmt.Fprintln(os.Stderr, "need -workload or -file; workloads:", dtsvliw.WorkloadNames())
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	if *dumpBlocks > 0 {
		remaining := *dumpBlocks
		sys.OnBlockSaved(func(dump string) {
			if remaining > 0 {
				fmt.Print(dump)
				remaining--
			}
		})
	}
	if err := sys.Run(); err != nil {
		fatal(err)
	}

	s := sys.Stats()
	fmt.Printf("instructions:        %d\n", s.Retired)
	fmt.Printf("cycles:              %d\n", s.Cycles)
	fmt.Printf("IPC:                 %.3f\n", s.IPC())
	fmt.Printf("VLIW cycles:         %.2f%%\n", 100*s.VLIWCycleFraction())
	fmt.Printf("blocks saved:        %d\n", s.BlocksSaved)
	fmt.Printf("blocks entered:      %d\n", s.Engine.BlocksEntered)
	fmt.Printf("trace exits:         %d\n", s.Engine.TraceExits)
	fmt.Printf("splits/copies:       %d/%d\n", s.Sched.Splits, s.Engine.CopiesExecuted)
	fmt.Printf("aliasing exceptions: %d\n", s.AliasingExceptions)
	if s.VCacheChainLinks > 0 || s.VCacheChainHits > 0 {
		fmt.Printf("chain links/hits:    %d/%d (%.1f%% of vcache hits; %d unlinked)\n",
			s.VCacheChainLinks, s.VCacheChainHits, 100*s.ChainHitRate(), s.VCacheChainUnlinks)
	}
	if s.Sched.RepackedBlocks > 0 {
		fmt.Printf("repacked blocks:     %d (saved %d LIs, %d proven optimal, %d search nodes)\n",
			s.Sched.RepackedBlocks, s.Sched.RepackSavedLIs, s.Sched.RepackProven, s.Sched.RepackNodes)
	}
	fmt.Printf("renaming (int/fp/flag/mem): %d/%d/%d/%d\n",
		s.Sched.MaxRenames[0], s.Sched.MaxRenames[1], s.Sched.MaxRenames[2], s.Sched.MaxRenames[3])
	if sys.Halted() {
		fmt.Printf("exit code:           %d\n", sys.ExitCode())
	}
	if *showOutput && len(sys.Output()) > 0 {
		fmt.Printf("program output:      %q\n", sys.Output())
	}

	if tel := sys.Telemetry(); tel != nil {
		fmt.Printf("%s\n", tel.Summary())
		if *profile {
			fmt.Print(tel.ProfileReport(*profileTop))
			fmt.Print(tel.HistogramReport())
		}
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				fatal(err)
			}
			if err := tel.WriteChromeTrace(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("trace:               %s (%d events, %d dropped)\n",
				*trace, tel.Recorded(), tel.Dropped())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtsvliw:", err)
	os.Exit(1)
}
