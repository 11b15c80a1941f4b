// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the simulator or the serve gateway, checks every
// output, and prints each metric by name with its unit; the last line of
// standard output is the JSON result.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with no instrumentation
// beyond the per-record timestamps. --trace 1 alternates untraced and
// traced slices of the window and reports the per-layer metrics,
// including the tracing overhead. README.md describes the workloads and
// which layer metric should move which end-to-end metric.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed uint64, window time.Duration, traced bool) (*result, error){
	"sim-ssca2-divaxx": runSim,
	"wire-pipelined-divaxx": func(seed uint64, window time.Duration, traced bool) (*result, error) {
		return runGateway(&wirePipelined, seed, window, traced)
	},
	"cluster-lockstep-fpvaxx": func(seed uint64, window time.Duration, traced bool) (*result, error) {
		return runGateway(&clusterLockstep, seed, window, traced)
	},
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	r, err := run(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err == nil {
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		err = r.write(os.Stdout, defs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
