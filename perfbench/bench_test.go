package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"approxnoc/internal/compress"
	"approxnoc/internal/serve"
	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

// corruptions returns copies of blk, each broken in a way the output
// check must catch whatever the block's class: a word far outside any
// threshold, and a dropped word.
func corruptions(blk *value.Block) []*value.Block {
	far := blk.Clone()
	far.Words[3] ^= 0x40000000
	short := blk.Clone()
	short.Words = short.Words[:len(short.Words)-1]
	return []*value.Block{far, short}
}

func TestOutputCheckCatchesCorruptBlocks(t *testing.T) {
	model, err := workload.ByName("ssca2")
	if err != nil {
		t.Fatal(err)
	}
	factory, err := compress.FactoryFor(compress.DIVaxx, endpoints, 10)
	if err != nil {
		t.Fatal(err)
	}
	fab := compress.NewFabric(endpoints, factory)
	exact, approx := 0, 0
	for i, req := range gatewayRequests(model, 7, 2000, endpoints, gwApproxRatio) {
		got := fab.Transfer(req.Src, req.Dst, req.Block)
		if _, err := checkBlock(compress.DIVaxx, req.Block, got, 10); err != nil {
			t.Fatalf("request %d: intact block rejected: %v", i, err)
		}
		if req.Block.Approximable {
			approx++
		} else {
			exact++
		}
		for j, bad := range corruptions(got) {
			if _, err := checkBlock(compress.DIVaxx, req.Block, bad, 10); err == nil {
				t.Fatalf("request %d: corruption %d passed the check", i, j)
			}
		}
	}
	if exact == 0 || approx == 0 {
		t.Fatalf("inputs lack a class: %d exact, %d approximable", exact, approx)
	}

	// An exact-class block must come back bit for bit: one flipped low
	// bit, well inside any threshold, still fails.
	blk := value.BlockFromI32([]int32{1000, 2000, 3000, 4000}, false)
	low := blk.Clone()
	low.Words[0] ^= 1
	if _, err := checkBlock(compress.DIVaxx, blk, low, 10); err == nil {
		t.Fatal("changed exact-class word passed the check")
	}
}

func TestTallyCountsCorruptResultAsFailed(t *testing.T) {
	w := &wirePipelined
	req := serve.Request{Src: 1, Dst: 2, Block: value.BlockFromI32([]int32{5, 6, 7, 8}, false)}
	var tl tally
	tl.record(w, req, serve.Result{Block: req.Block.Clone()}, nil, time.Microsecond)
	tl.record(w, req, serve.Result{Block: corruptions(req.Block)[0]}, nil, time.Microsecond)
	if tl.completed != 2 || tl.failed != 1 || tl.bad != 1 || tl.firstBad == nil {
		t.Fatalf("tally %+v: want 2 completed, 1 failed as a bad block", tl)
	}
	r := newResult()
	account(r, "test", &tl)
	if len(r.problems) == 0 {
		t.Fatal("a corrupt result did not make the run incorrect")
	}
}

func TestSimDeliveryCheckCatchesCorruptBlock(t *testing.T) {
	ins, err := newSimInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := buildSimEpisode(ins[0], false)
	if err != nil {
		t.Fatal(err)
	}
	run := ep.run(2000)
	if run.firstFailure != nil || len(ep.got) == 0 {
		t.Fatalf("episode: %d deliveries, failure %v", len(ep.got), run.firstFailure)
	}
	d := ep.got[len(ep.got)-1]
	for j, bad := range corruptions(d.blk) {
		if _, err := checkDelivery(d.enc, bad, simThreshold); err == nil {
			t.Fatalf("corruption %d of a delivered block passed the check", j)
		}
	}
}

func TestSeedsChangeInputs(t *testing.T) {
	for _, name := range []string{"ssca2", "blackscholes"} {
		model, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a := gatewayRequests(model, 1, 500, endpoints, gwApproxRatio)
		b := gatewayRequests(model, 2, 500, endpoints, gwApproxRatio)
		if !reflect.DeepEqual(a, gatewayRequests(model, 1, 500, endpoints, gwApproxRatio)) {
			t.Fatalf("%s: one seed gave two request streams", name)
		}
		if reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seeds 1 and 2 gave the same requests", name)
		}
	}
	a, _ := newSimInputs(1)
	b, _ := newSimInputs(2)
	for k := range a {
		if a[k].sourceSeed == b[k].sourceSeed || a[k].trafSeed == b[k].trafSeed {
			t.Fatalf("phase %d: seeds 1 and 2 share a simulator stream", k)
		}
		if a[k].model.NewSource(a[k].sourceSeed, simApproxRatio).NextBlock().Equal(
			b[k].model.NewSource(b[k].sourceSeed, simApproxRatio).NextBlock()) {
			t.Fatalf("phase %d: seeds 1 and 2 give the same first block", k)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the metric contract uses.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	same := func(what string, defs []metricDef, listed []struct{ Name, Unit, Better string }) {
		if len(defs) != len(listed) {
			t.Fatalf("%s: %d metrics in the program, %d in BENCHMARK.json", what, len(defs), len(listed))
		}
		for i, d := range defs {
			if l := listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s %d: program has %v, BENCHMARK.json has %+v", what, i, d, l)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)
	var names []string
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program runs %d workloads", names, len(workloads))
	}
}

// TestPrintedMetricsMatchBenchmarkJSON runs every workload briefly in
// both modes and checks the printed result: correct, and carrying
// exactly the metric names BENCHMARK.json lists for the mode.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := readBenchmarkJSON(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bj.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range bj.Workloads {
		for _, traced := range []bool{false, true} {
			r, err := workloads[w.Name](5, 200*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var out bytes.Buffer
			if err := r.write(&out, defs); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.Name, traced, rep.Correct, rep.Attempted, rep.Failed, out.String())
			}
			got := map[string]string{}
			for name, m := range rep.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want[traced]) {
				t.Fatalf("%s traced=%v: printed %v, BENCHMARK.json lists %v", w.Name, traced, got, want[traced])
			}
			if !traced {
				for name, m := range rep.Metrics {
					if m.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
					}
				}
			}
		}
	}
}
