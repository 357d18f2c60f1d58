// Command bench is the repository's wall-clock benchmark of the space
// operation path. It assembles cmd/master-shaped shard servers from the
// exported constructors inside its own process, drives them over real
// loopback TCP from closed-loop clients, checks every result, and prints
// each metric by name with its unit. See README.md for the glossary.
//
//	bash bench/run.sh -seed 1                      # all four workloads, timed then traced
//	bash bench/run.sh --workload pair_mem_tcp --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// procs is the GOMAXPROCS the benchmark runs at. On the 2-vCPU sandbox
// a goroutine hand-off between two Ps costs a hypervisor-mediated wake
// that swings between 50 and 300 µs from one second to the next: the
// same binary measured 6.1k to 9.2k ops/s on pair_mem_tcp in
// back-to-back 10 s runs, and its CPU time per op moved as much. On one
// P the hand-offs stay inside the Go scheduler and the same runs agree
// within 3 %. What is measured is then the program's own cost per
// operation, which is what a change to the program moves.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	var (
		name    = flag.String("workload", "all", "workload to run: all, or one of the four names")
		seed    = flag.Int64("seed", 1, "seed for payload bytes, key order and resident choice")
		seconds = flag.Float64("seconds", 20, "length of the timed window of a run")
		slice   = flag.Duration("slice", 250*time.Millisecond, "length of one slice of the timed window")
		out     = flag.String("out", "out", "directory for results, traces and the durable shard's files")
		compare = flag.Bool("compare", false, "compare two result files given as arguments and exit")
		spec    = flag.String("benchmark", "", "BENCHMARK.json with the bounds -compare applies (default: found next to or above the working directory)")
		mode    = "both"
	)
	flag.Func("trace", "0: timed run, end-to-end metrics; 1: traced pass and layer ladder, per-layer metrics (default: both)", func(s string) error {
		switch s {
		case "0", "false":
			mode = "timed"
		case "1", "true":
			mode = "traced"
		default:
			return fmt.Errorf("want 0 or 1")
		}
		return nil
	})
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1)))
	}

	var run []*workload
	if *name == "all" {
		for i := range workloads {
			run = append(run, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		run = append(run, w)
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), slice: *slice, outDir: *out}
	if cfg.seconds <= 0 || cfg.slice <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -slice must be positive")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	var reports []*report
	ok := true
	for _, w := range run {
		rep := &report{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Correct: true}
		if mode != "traced" {
			rep = timedRun(w, cfg)
		}
		if mode != "timed" && rep.Correct {
			t := tracedRun(w, cfg)
			rep.PerLayer = t.PerLayer
			rep.Attempted += t.Attempted
			rep.Failed += t.Failed
			if !t.Correct {
				rep.Correct, rep.Error = false, t.Error
			}
		}
		printReport(rep)
		reports = append(reports, rep)
		ok = ok && rep.Correct
	}
	file := filepath.Join(cfg.outDir, "result-"+*name+".json")
	if err := writeJSON(file, resultFile{Runs: reports}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println("results written to", file)
	if len(reports) == 1 {
		printContractLine(reports[0])
	}
	if !ok {
		os.Exit(1)
	}
}

// resultFile is what a run writes and -compare reads.
type resultFile struct {
	Runs []*report `json:"runs"`
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printReport lists every metric of one run by name, with its unit.
func printReport(r *report) {
	fmt.Printf("== %s  seed=%d  attempted=%d  failed=%d  correct=%v\n", r.Workload, r.Seed, r.Attempted, r.Failed, r.Correct)
	if r.Error != "" {
		fmt.Printf("   error: %s\n", r.Error)
	}
	for _, k := range sortedKeys(r.EndToEnd) {
		s := r.EndToEnd[k]
		fmt.Printf("   %-34s %14.3f %-10s [q1 %.3f, q3 %.3f]\n", k, s.Value, s.Unit, s.Q1, s.Q3)
	}
	for _, k := range sortedKeys(r.PerLayer) {
		m := r.PerLayer[k]
		fmt.Printf("   %-34s %14.3f %s\n", k, m.Value, m.Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printContractLine prints the one-line JSON result a harness reads off
// the end of standard output.
func printContractLine(r *report) {
	all := make(map[string]metric, len(r.EndToEnd)+len(r.PerLayer))
	for k, s := range r.EndToEnd {
		all[k] = metric{s.Value, s.Unit}
	}
	for k, m := range r.PerLayer {
		all[k] = m
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1 // a run that could not start still attempted to
	}
	b, _ := json.Marshal(map[string]interface{}{
		"correct": r.Correct, "attempted": attempted, "failed": r.Failed, "metrics": all,
	})
	fmt.Println(string(b))
}
