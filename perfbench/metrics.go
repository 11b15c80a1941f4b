package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's metric contract; BENCHMARK.json at the repository root
// lists the same names and units (the tests hold the two together).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees. A "record" is one
// cache block moved end to end: a data packet delivered to its tile in
// the simulator, a completed request on the gateway workloads. Every
// workload reports every one of them, so none of them is ever zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"records_per_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p90_us", "us", "lower"},
	{"delivered_frac", "ratio", "higher"},
	{"compression_ratio", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// p99Note prints the 99th percentile of a window's latency. It is shown
// but not part of the result: on a shared host its run-to-run spread
// follows the hypervisor's CPU steal (30% and more between runs of the
// gateway workloads), wider than any bound a benchmark metric may carry,
// so latency_p90_us is the tail the result reports.
const p99Note = "latency_p99_us %.3f us (median of the slices' p99; shown, not part of the result)"

// perLayer are the traced run's numbers, measured from outside the
// program: wall time around calls into public functions and public
// counters. A layer a workload never enters reports 0.
var perLayer = []metricDef{
	// Simulator (sim-ssca2-divaxx only).
	{"noc.packet_latency_cycles", "cycles", "lower"},
	{"traffic.tick_ns_per_cycle", "ns", "lower"},
	{"noc.step_ns_per_cycle", "ns", "lower"},
	{"noc.step_self_ns_per_cycle", "ns", "lower"},
	{"noc.host_ns_per_flit", "ns", "lower"},
	{"compress.encode_ns_per_block", "ns", "lower"},
	{"compress.decode_ns_per_block", "ns", "lower"},
	{"noc.queue_latency_cycles", "cycles", "lower"},
	{"noc.net_latency_cycles", "cycles", "lower"},
	{"noc.decode_latency_cycles", "cycles", "lower"},
	{"noc.data_flits_per_block", "count", "lower"},
	// Gateway ledger: single-threaded replay through each entry point.
	{"compress.transfer_ns", "ns", "lower"},
	{"serve.gateway_do_ns", "ns", "lower"},
	{"serve.client_do_ns", "ns", "lower"},
	{"cluster.client_do_ns", "ns", "lower"},
	{"serve.queue_ns", "ns", "lower"},
	{"serve.wire_ns", "ns", "lower"},
	{"cluster.hop_ns", "ns", "lower"},
	{"ledger.unattributed_ns", "ns", "lower"},
	// Gateway counters.
	{"serve.client_go_ns", "ns", "lower"},
	{"serve.batch_size", "count", "higher"},
	{"serve.frames_per_write", "count", "higher"},
	{"serve.service_p50_us", "us", "lower"},
	{"serve.service_p99_us", "us", "lower"},
	{"serve.rejected", "count", "lower"},
	{"cluster.failovers", "count", "lower"},
	{"cluster.overload_retries", "count", "lower"},
	{"cluster.max_node_share", "ratio", "lower"},
	// Codec counters.
	{"compress.encoded_word_frac", "ratio", "higher"},
	{"approx.approx_word_frac", "ratio", "higher"},
	{"compress.notifications_per_block", "count", "lower"},
	{"approx.avcl_clips_per_block", "count", "lower"},
	{"approx.mean_rel_error_pct", "%", "lower"},
	// Go runtime and process, over the timed window.
	{"go.allocs_per_record", "count", "lower"},
	{"go.alloc_bytes_per_record", "B", "lower"},
	{"go.gc_count", "count", "lower"},
	{"proc.cpu_us_per_record", "us", "lower"},
	{"proc.cpu_util", "ratio", "lower"},
	// Tracing overhead: the traced slices against the untraced ones.
	{"trace.untraced_records_per_s", "1/s", "higher"},
	{"trace.traced_records_per_s", "1/s", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

// result is what one workload run produced: every metric it measured,
// and the outcome of its output checks.
type result struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	// problems lists failed output checks; any entry makes the run
	// incorrect.
	problems []string
	// notes are human-readable lines printed before the JSON result.
	notes []string
}

// newResult starts every per-layer metric at 0, the reading of a layer
// the workload never enters.
func newResult() *result {
	r := &result{metrics: map[string]float64{}}
	for _, d := range perLayer {
		r.metrics[d.name] = 0
	}
	return r
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) problem(format string, args ...any) {
	const maxProblems = 20
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the human-readable lines, then the metrics of defs as the
// final JSON line. A metric of defs the run did not measure is an error:
// the contract requires every one of them.
func (r *result) write(w io.Writer, defs []metricDef) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	rep := report{
		Correct:   len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(w, "%-34s %16.6g %s\n", d.name, v, d.unit)
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// ratio divides, reading 0 when the base is 0 (a layer the workload
// never entered).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile returns the q-quantile (nearest rank) of ns samples, in ns.
// It sorts xs in place.
func quantile(xs []uint32, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !slices.IsSorted(xs) {
		slices.Sort(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(xs[i])
}

// nsSample clamps a duration into a latency sample.
func nsSample(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// medianFloat returns the median of xs.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB is the process's peak resident set size. Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procWindow snapshots the Go heap counters and process CPU time at the
// start of a timed window.
type procWindow struct {
	ms  runtime.MemStats
	cpu time.Duration
	at  time.Time
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startWindow() procWindow {
	var w procWindow
	runtime.ReadMemStats(&w.ms)
	w.cpu = cpuTime()
	w.at = time.Now()
	return w
}

// finish sets the go.* and proc.* metrics for the window, per record.
func (w procWindow) finish(r *result, records float64) {
	wall := time.Since(w.at)
	cpu := cpuTime() - w.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("go.allocs_per_record", ratio(float64(ms.Mallocs-w.ms.Mallocs), records))
	r.set("go.alloc_bytes_per_record", ratio(float64(ms.TotalAlloc-w.ms.TotalAlloc), records))
	r.set("go.gc_count", float64(ms.NumGC-w.ms.NumGC))
	r.set("proc.cpu_us_per_record", ratio(float64(cpu.Microseconds()), records))
	r.set("proc.cpu_util", ratio(cpu.Seconds(), wall.Seconds()))
}
