// Command perfbench is the repository's benchmark. It drives the DTSVLIW
// simulator through its public Go packages on one workload for a fixed
// host time and prints the end-to-end metrics, or with -trace 1 the
// per-layer split of a traced run, as one JSON object on the last line of
// standard output:
//
//	perfbench -workload spec-feasible -seed 1 -seconds 10 -trace 0
//
// Workloads (see suites.go for why each was chosen):
//
//	spec-feasible  the eight SPECint95 analogues on the feasible machine
//	vcache-churn   gcc and xlisp on a 48-KB direct-mapped VLIW Cache
//	oracle-sweep   the differential oracle sweep over every progen shape
//	all            each of the above in its own process, then a summary
//
// The seed is the progen base seed of oracle-sweep; for the two
// fixed-program workloads it only permutes run order.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// processStart is when the process started, as near as the program can
// observe it.
var processStart = time.Now()

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable outcome, printed as the last
// line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(suiteNames, ", ")+" or all")
	seed := flag.Int64("seed", 1, "progen base seed (oracle-sweep) or run-order seed")
	seconds := flag.Int("seconds", 10, "host seconds of measured passes")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	s, err := newSuite(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = traced(s, dur)
	} else {
		res, err = endToEnd(s, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in its own child process, so each one's
// peak RSS and set-up time are its own, echoes their reports, and ends
// with a per-workload summary table and one combined JSON line whose
// metric names carry the workload as a prefix.
func runAll(seed int64, seconds, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	var rows []string
	for _, name := range suiteNames {
		var out bytes.Buffer
		cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		text := strings.TrimRight(out.String(), "\n")
		last := text
		if i := strings.LastIndexByte(text, '\n'); i >= 0 {
			fmt.Println(text[:i])
			last = text[i+1:]
		}
		var r result
		if runErr != nil || json.Unmarshal([]byte(last), &r) != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s produced no result (%v)\n", name, runErr)
			return 1
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := r.Metrics[k]
			all.Metrics[name+"/"+k] = m
			rows = append(rows, fmt.Sprintf("  %-14s %-34s %14.6g %s", name, k, m.Value, m.Unit))
		}
	}
	fmt.Println("summary:")
	for _, r := range rows {
		fmt.Println(r)
	}
	fmt.Printf("  attempted %d runs, failed %d\n", all.Attempted, all.Failed)
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
