package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run sets up: setup_s is the median.
const setupReps = 5

// ipcPasses is how many leading measured passes ipc covers. A fixed
// count keeps ipc a pure function of the seed even on oracle-sweep, whose
// passes check different programs: a faster simulator completes more
// passes but must report the same ipc.
const ipcPasses = 4

// endToEnd sets the suite up setupReps times, then runs measured passes
// until dur has elapsed (at least one), and reports the end-to-end
// metrics. Nothing is traced: these are the numbers a user sees.
func endToEnd(s suite, dur time.Duration) (result, error) {
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if err := s.setup(); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	toMeasure := time.Since(processStart).Seconds()
	runtime.GC()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(dur)
	var passes []passStats
	for len(passes) == 0 || time.Now().Before(deadline) {
		passes = append(passes, s.pass())
	}
	runtime.ReadMemStats(&after)

	var retired, cycles, ipcRetired, ipcCycles uint64
	rates := make([]float64, len(passes))
	times := make([]float64, len(passes))
	for i, p := range passes {
		retired += p.retired
		cycles += p.cycles
		if i < ipcPasses {
			ipcRetired += p.retired
			ipcCycles += p.cycles
		}
		times[i] = p.seconds
		rates[i] = float64(p.retired) / p.seconds / 1e6
	}
	if retired == 0 || cycles == 0 {
		return result{}, fmt.Errorf("%s: measured passes retired no instructions", s.name())
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return result{}, fmt.Errorf("getrusage: %w", err)
	}

	m := map[string]metric{
		"sim_minstr_per_s":      {median(rates), "Minstr/s"},
		"allocs_per_kinstr":     {1000 * float64(after.Mallocs-before.Mallocs) / float64(retired), "allocs/kinstr"},
		"alloc_bytes_per_instr": {float64(after.TotalAlloc-before.TotalAlloc) / float64(retired), "B/instr"},
		"peak_rss_mb":           {float64(ru.Maxrss) / 1024, "MB"},
		"setup_s":               {median(setups), "s"},
		"ipc":                   {float64(ipcRetired) / float64(ipcCycles), "instr/cycle"},
	}

	attempted, failed := s.runs()
	fmt.Printf("perfbench %s: end-to-end, %d measured passes in %.2f s host time\n",
		s.name(), len(passes), sum(times))
	for _, c := range s.counts() {
		fmt.Println("  exact", c)
	}
	fmt.Printf("  set-up: %d x median %.3f s (min %.3f, max %.3f); process start to measured pass %.3f s\n",
		len(setups), median(setups), minOf(setups), maxOf(setups), toMeasure)
	fmt.Printf("  pass host time: median %.4f s, min %.4f, max %.4f (n=%d; too few passes for a tail percentile)\n",
		median(times), minOf(times), maxOf(times), len(times))
	if s.name() == "oracle-sweep" {
		progs := make([]float64, len(times))
		for i, t := range times {
			progs[i] = sweepPrograms / t
		}
		fmt.Printf("  programs_per_s: median %.1f (%d programs per pass)\n", median(progs), sweepPrograms)
	}
	printMetrics(m)
	fmt.Printf("  runs: attempted %d, failed %d\n", attempted, failed)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func printMetrics(m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		m = min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		m = max(m, x)
	}
	return m
}
