// Command perfbench is the repository's end-to-end benchmark. For one
// workload and seed it builds the workload's database in a server
// process, serves the real service.Handler() on a loopback port, drives
// it over at most two HTTP connections, checks every answer against an
// independent oracle and prints each metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is traced ("trace": true on every request) and the metrics are
// the per-layer ones. With -steady K the workload runs K times on the
// one seed and each end-to-end metric's median, quartiles and spread are
// printed against the bound in BENCHMARK.json; repeat it with a held-out
// seed.
//
//	bash perfbench/run.sh --workload scan_spill --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload scan_spill --seed 1 --seconds 15 --steady 5
//	bash perfbench/run.sh --workload scan_spill --seed 101 --seconds 15 --steady 5
//
// Workloads (see workload.go): paper_mix, scan_spill, live_ingest.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(clientMain(os.Args[1:]))
}

func clientMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper_mix, scan_spill or live_ingest")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same rows and requests")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	steady := fs.Int("steady", 0, "run K times on --seed and print each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (paper_mix|scan_spill|live_ingest), --seconds > 0, --trace 0|1:", err)
		return 2
	}
	if *steady > 0 {
		return steadyMain(w, *seed, *seconds, *steady)
	}
	// This process keeps every record in memory; collecting less often
	// keeps its GC off the CPUs the server is measured on.
	debug.SetGCPercent(400)
	window := time.Duration(*seconds * float64(time.Second))
	res, err := runWorkload(w, *seed, window, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(os.Stdout)
	return 0
}
