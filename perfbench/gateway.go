package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"approxnoc/internal/cluster"
	"approxnoc/internal/compress"
	"approxnoc/internal/serve"
	"approxnoc/internal/workload"
)

// gatewayWorkload describes one of the two workloads that drive the
// serve gateway. All load comes from this process: at most two caller
// goroutines, each closed-loop (it issues a request only when one of its
// own has completed), with the gateways at their default shard count.
type gatewayWorkload struct {
	scheme    compress.Scheme
	threshold int
	model     string
	// nodes is the number of gateway nodes. With viaCluster they sit
	// behind a cluster View and every caller uses one cluster.Client;
	// otherwise there is one node and each caller owns a serve.Client
	// connection.
	nodes      int
	viaCluster bool
	callers    int
	depth      int // requests each caller keeps in flight
	warmup     int // requests per set-up, before timing
	pool       int // distinct generated requests, replayed in order
}

const (
	endpoints      = 32 // the Table 1 system's logical endpoints
	gwApproxRatio  = 0.75
	gwSetupReps    = 5
	ledgerWarm     = 2000
	ledgerRequests = 20000
)

var (
	// wirePipelined moves ssca2 blocks through one serve.Server over
	// loopback from two connections, eight requests in flight on each.
	wirePipelined = gatewayWorkload{
		scheme: compress.DIVaxx, threshold: 10, model: "ssca2",
		nodes: 1, callers: 2, depth: 8, warmup: 40000, pool: 1 << 16,
	}
	// clusterLockstep moves blackscholes blocks through a two-node
	// cluster, one request at a time from one caller.
	clusterLockstep = gatewayWorkload{
		scheme: compress.FPVaxx, threshold: 10, model: "blackscholes",
		nodes: 2, viaCluster: true, callers: 1, depth: 1, warmup: 10000, pool: 1 << 16,
	}
)

// gwNode is one gateway served over loopback TCP.
type gwNode struct {
	id     string
	addr   string
	gw     *serve.Gateway
	srv    *serve.Server
	served chan error
}

func startNode(id string, cfg serve.Config) (*gwNode, error) {
	gw, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		return nil, err
	}
	n := &gwNode{id: id, addr: ln.Addr().String(), gw: gw, srv: serve.NewServer(gw), served: make(chan error, 1)}
	n.srv.NodeID = id
	go func() { n.served <- n.srv.Serve(ln) }()
	return n, nil
}

func (n *gwNode) stop() {
	n.srv.Close()
	n.gw.Close()
	<-n.served
}

// gwStack is a running gateway deployment plus its callers.
type gwStack struct {
	w       *gatewayWorkload
	nodes   []*gwNode
	view    *cluster.View
	cc      *cluster.Client
	callers []*caller
}

// startStack builds the deployment and connects the callers.
//
// The cluster is assembled the way cluster.Cluster assembles itself
// (serve nodes on loopback joined healthy to a View, one cluster.Client
// over it) because cluster.Cluster does not hand out its nodes'
// gateways, and the end-of-run dictionary audit needs them.
func startStack(w *gatewayWorkload, reqs []serve.Request) (*gwStack, error) {
	st := &gwStack{w: w}
	cfg := serve.DefaultConfig(w.scheme, w.threshold)
	cfg.Nodes = endpoints
	for i := 0; i < w.nodes; i++ {
		n, err := startNode(fmt.Sprintf("n%d", i), cfg)
		if err != nil {
			st.close()
			return nil, err
		}
		st.nodes = append(st.nodes, n)
	}
	if w.viaCluster {
		st.view = cluster.NewView(cluster.ViewConfig{})
		for _, n := range st.nodes {
			if err := st.view.Join(n.id, n.addr, cluster.StateHealthy); err != nil {
				st.close()
				return nil, err
			}
		}
		st.cc = cluster.NewClient(st.view, cluster.ClientConfig{})
	}
	for i := 0; i < w.callers; i++ {
		c := &caller{w: w, reqs: reqs, pos: i, step: w.callers, cc: st.cc}
		if !w.viaCluster {
			cl, err := serve.Dial(st.nodes[0].addr)
			if err != nil {
				st.close()
				return nil, err
			}
			c.sc = cl
		}
		st.callers = append(st.callers, c)
	}
	return st, nil
}

func (st *gwStack) close() {
	for _, c := range st.callers {
		if c.sc != nil {
			c.sc.Close()
		}
	}
	if st.cc != nil {
		st.cc.Close()
	}
	for _, n := range st.nodes {
		n.stop()
	}
	if st.view != nil {
		st.view.Close()
	}
}

// tally is what callers observed.
type tally struct {
	lat       []uint32
	completed int64
	failed    int64
	bad       int64
	firstErr  error
	firstBad  error
	sumErr    float64
	words     int64
	goTime    time.Duration
	goCalls   int64
	elapsed   time.Duration
}

func (t *tally) record(w *gatewayWorkload, req serve.Request, res serve.Result, err error, d time.Duration) {
	t.completed++
	if err != nil {
		// A refused or failed request misses every latency limit.
		t.failed++
		t.lat = append(t.lat, nsSample(time.Duration(1<<32-1)))
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	t.lat = append(t.lat, nsSample(d))
	sum, cerr := checkBlock(w.scheme, req.Block, res.Block, w.threshold)
	if cerr != nil {
		t.failed++
		t.bad++
		if t.firstBad == nil {
			t.firstBad = fmt.Errorf("(%d->%d): %w", req.Src, req.Dst, cerr)
		}
		return
	}
	t.sumErr += sum
	t.words += int64(len(req.Block.Words))
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.completed += o.completed
	t.failed += o.failed
	t.bad += o.bad
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	if t.firstBad == nil {
		t.firstBad = o.firstBad
	}
	t.sumErr += o.sumErr
	t.words += o.words
	t.goTime += o.goTime
	t.goCalls += o.goCalls
}

// caller is one closed-loop load goroutine's state. It walks the request
// pool from pos in strides of step, so callers never share a request and
// each set-up and window continues where the last stopped.
type caller struct {
	w         *gatewayWorkload
	reqs      []serve.Request
	pos, step int
	sc        *serve.Client
	cc        *cluster.Client
}

func (c *caller) next() int {
	i := c.pos
	c.pos = (c.pos + c.step) % len(c.reqs)
	return i
}

// pump issues requests until limit have been issued (limit > 0) or the
// deadline passes (non-zero deadline), then waits for the outstanding
// ones. traced times each serve.Client.Go call.
func (c *caller) pump(limit int, deadline time.Time, traced bool, t *tally) {
	issued := 0
	more := func(now time.Time) bool {
		return (limit == 0 || issued < limit) && (deadline.IsZero() || now.Before(deadline))
	}
	if c.sc == nil {
		// Lock-step through the cluster client.
		for start := time.Now(); more(start); start = time.Now() {
			req := c.reqs[c.next()]
			issued++
			res, err := c.cc.Do(req)
			t.record(c.w, req, res, err, time.Since(start))
		}
		return
	}
	type slot struct {
		call *serve.Call
		idx  int
		t0   time.Time
	}
	done := make(chan *serve.Call, c.w.depth)
	slots := make([]slot, 0, c.w.depth)
	issue := func() {
		idx := c.next()
		issued++
		t0 := time.Now()
		call := c.sc.Go(c.reqs[idx], done)
		if traced {
			t.goTime += time.Since(t0)
			t.goCalls++
		}
		slots = append(slots, slot{call: call, idx: idx, t0: t0})
	}
	for len(slots) < c.w.depth && more(time.Now()) {
		issue()
	}
	for len(slots) > 0 {
		call := <-done
		now := time.Now()
		for i := range slots {
			if slots[i].call == call {
				s := slots[i]
				slots[i] = slots[len(slots)-1]
				slots = slots[:len(slots)-1]
				t.record(c.w, c.reqs[s.idx], call.Res, call.Err, now.Sub(s.t0))
				break
			}
		}
		if more(now) {
			issue()
		}
	}
}

// pumpAll runs every caller on its own goroutine and merges what they saw.
func (st *gwStack) pumpAll(limit int, window time.Duration, traced bool) *tally {
	start := time.Now()
	var deadline time.Time
	if window > 0 {
		deadline = start.Add(window)
	}
	tallies := make([]tally, len(st.callers))
	var wg sync.WaitGroup
	for i, c := range st.callers {
		wg.Add(1)
		go func(c *caller, t *tally) {
			defer wg.Done()
			c.pump(limit, deadline, traced, t)
		}(c, &tallies[i])
	}
	wg.Wait()
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	total.elapsed = time.Since(start)
	return total
}

// sliceLen is the unit a timed window is measured in. The window's rate
// and latency quantiles are medians over its slices, so one bad second
// of a shared host moves them less than it moves a pooled figure.
const sliceLen = time.Second

// windowStats is a timed window: everything the callers saw, and the
// medians over its slices. The latency samples of a slice are dropped
// once its quantiles are taken, so the benchmark's own memory does not
// grow with the window.
type windowStats struct {
	tally
	rate, p50, p90, p99 float64
	samples             int
}

// measure runs the callers for window, slice by slice. With interleave,
// every second slice is traced and goes to the second result, so the
// traced and untraced figures see the same host conditions.
func (st *gwStack) measure(window time.Duration, interleave bool) (plain, traced windowStats) {
	type quantiles struct{ rates, p50s, p90s, p99s []float64 }
	var qs [2]quantiles
	out := [2]*windowStats{&plain, &traced}
	start := time.Now()
	for i := 0; ; i++ {
		left := window - time.Since(start)
		if left <= 0 {
			break
		}
		mode := 0
		if interleave {
			mode = i % 2
		}
		t := st.pumpAll(0, min(sliceLen, left), mode == 1)
		q := &qs[mode]
		q.rates = append(q.rates, float64(t.completed)/t.elapsed.Seconds())
		q.p50s = append(q.p50s, quantile(t.lat, 0.50))
		q.p90s = append(q.p90s, quantile(t.lat, 0.90))
		q.p99s = append(q.p99s, quantile(t.lat, 0.99))
		ws := out[mode]
		ws.samples += len(t.lat)
		ws.elapsed += t.elapsed
		t.lat = nil
		ws.merge(t)
	}
	for mode, ws := range out {
		ws.rate = medianFloat(qs[mode].rates)
		ws.p50 = medianFloat(qs[mode].p50s)
		ws.p90 = medianFloat(qs[mode].p90s)
		ws.p99 = medianFloat(qs[mode].p99s)
	}
	return plain, traced
}

// counters are the gateway and wire counters summed over the nodes.
type counters struct {
	processed, batches, rejected uint64
	bitsIn, bitsOut              uint64
	frames, writes               uint64
	p50, p99                     time.Duration
}

func (st *gwStack) counters() counters {
	var c counters
	for _, n := range st.nodes {
		m := n.gw.Metrics()
		ws := n.srv.WireStats()
		c.processed += m.Processed
		c.batches += m.Batches
		c.rejected += m.Rejected
		c.bitsIn += m.BitsIn
		c.bitsOut += m.BitsOut
		c.frames += ws.WriteFrames
		c.writes += ws.WriteBatches
		// The slowest node's service quantiles.
		if m.P50 > c.p50 {
			c.p50 = m.P50
		}
		if m.P99 > c.p99 {
			c.p99 = m.P99
		}
	}
	return c
}

// runGateway measures wire-pipelined-divaxx or cluster-lockstep-fpvaxx.
func runGateway(w *gatewayWorkload, seed uint64, window time.Duration, traced bool) (*result, error) {
	r := newResult()
	model, err := workload.ByName(w.model)
	if err != nil {
		return nil, err
	}
	reqs := gatewayRequests(model, seed, w.pool, endpoints, gwApproxRatio)

	// Set-up: build the deployment, dial, and warm it (dictionary
	// learning, heap growth, connection buffers), several times; the
	// median is setup_s and the last deployment is measured.
	var setups []float64
	var st *gwStack
	for i := 0; i < gwSetupReps; i++ {
		if st != nil {
			st.close()
		}
		start := time.Now()
		if st, err = startStack(w, reqs); err != nil {
			return nil, err
		}
		warm := st.pumpAll(w.warmup/w.callers, 0, false)
		setups = append(setups, time.Since(start).Seconds())
		account(r, "warm-up", warm)
	}
	defer st.close()
	r.set("setup_s", medianFloat(setups))

	before := st.counters()
	pw := startWindow()
	plain, tr := st.measure(window, traced)
	pw.finish(r, float64(plain.completed+tr.completed))
	after := st.counters()
	account(r, "timed", &plain.tally)
	account(r, "traced", &tr.tally)

	rate, p50 := plain.rate, plain.p50
	r.set("records_per_s", rate)
	r.set("latency_p50_us", p50/1e3)
	r.set("latency_p90_us", plain.p90/1e3)
	r.note(p99Note, plain.p99/1e3)
	r.set("compression_ratio", ratio(float64(after.bitsIn-before.bitsIn), float64(after.bitsOut-before.bitsOut)))
	r.set("approx.mean_rel_error_pct", 100*ratio(plain.sumErr, float64(plain.words)))
	r.set("trace.untraced_records_per_s", rate)
	r.set("serve.batch_size", ratio(float64(after.processed-before.processed), float64(after.batches-before.batches)))
	r.set("serve.frames_per_write", ratio(float64(after.frames-before.frames), float64(after.writes-before.writes)))
	r.set("serve.service_p50_us", float64(after.p50)/1e3)
	r.set("serve.service_p99_us", float64(after.p99)/1e3)
	r.set("serve.rejected", float64(after.rejected-before.rejected))
	r.note("%s: %d callers x %d in flight, %d requests in %.3f s; %d latency samples",
		w.model, w.callers, w.depth, plain.completed, plain.elapsed.Seconds(), plain.samples)

	if st.view != nil {
		vs := st.view.Stats()
		r.set("cluster.failovers", float64(vs.Failovers))
		r.set("cluster.overload_retries", float64(vs.OverloadRetries))
		var total, most uint64
		for _, m := range st.view.Members() {
			total += m.Requests
			if m.Requests > most {
				most = m.Requests
			}
		}
		r.set("cluster.max_node_share", ratio(float64(most), float64(total)))
	}

	if traced {
		r.set("trace.traced_records_per_s", tr.rate)
		r.set("trace.overhead_pct", 100*ratio(rate-tr.rate, rate))
		r.set("serve.client_go_ns", ratio(float64(tr.goTime), float64(tr.goCalls)))
		if err := st.ledger(r, reqs, p50); err != nil {
			return nil, err
		}
	}

	// End-of-run audit: every pool of every node keeps its encoder and
	// decoder dictionaries in sync.
	var codec compress.OpStats
	for _, n := range st.nodes {
		err := n.gw.AuditDicts(func(pool int, fab *compress.Fabric) error {
			if err := auditPMTs(fab.Codec, fab.Nodes()); err != nil {
				return fmt.Errorf("node %s pool %d: %w", n.id, pool, err)
			}
			return nil
		})
		if err != nil {
			r.problem("dictionary audit: %v", err)
		}
		codec.Add(n.gw.CodecStats())
	}
	setCodecMetrics(r, codec)
	r.set("delivered_frac", 1-ratio(float64(r.failed), float64(r.attempted)))
	r.set("peak_rss_mb", peakRSSMB())
	return r, nil
}

// account adds a tally to the run's attempted/failed counts and records
// its check failures.
func account(r *result, phase string, t *tally) {
	r.attempted += t.completed
	r.failed += t.failed
	if t.firstErr != nil {
		r.note("%s: %d requests failed, first: %v", phase, t.failed-t.bad, t.firstErr)
	}
	if t.firstBad != nil {
		r.problem("%s: %d returned blocks failed the output check, first: %v", phase, t.bad, t.firstBad)
	}
}

// ledger replays the workload's own request stream single-threaded
// through each entry point in turn, from the innermost out, and reports
// the median time of each and the differences between them.
//
// It replays instead of decorating the codecs as the simulator's traced
// run does: serve builds its codecs itself (it has no codec-factory
// hook), and its shard path type-asserts compress.ScratchEncoder and
// compress.ThresholdAdjuster on them, so a wrapper would change which
// encode path runs.
func (st *gwStack) ledger(r *result, reqs []serve.Request, e2eP50 float64) error {
	w := st.w
	stream := reqs[:ledgerWarm+ledgerRequests]
	owner := make([]*gwNode, len(stream))
	for i, req := range stream {
		owner[i] = st.nodes[0]
		if st.view != nil {
			id, _, ok := st.view.Route(req.Src, req.Dst, nil)
			if !ok {
				return fmt.Errorf("ledger: no node owns flow (%d,%d)", req.Src, req.Dst)
			}
			for _, n := range st.nodes {
				if n.id == id {
					owner[i] = n
				}
			}
		}
	}
	direct := map[*gwNode]*serve.Client{}
	for _, n := range st.nodes {
		cl, err := serve.Dial(n.addr)
		if err != nil {
			return err
		}
		defer cl.Close()
		direct[n] = cl
	}
	factory, err := compress.FactoryFor(w.scheme, endpoints, w.threshold)
	if err != nil {
		return err
	}
	fab := compress.NewFabric(endpoints, factory)

	type entry struct {
		metric string
		do     func(i int, req serve.Request) (serve.Result, error)
	}
	entries := []entry{
		{"compress.transfer_ns", func(_ int, req serve.Request) (serve.Result, error) {
			return serve.Result{Block: fab.Transfer(req.Src, req.Dst, req.Block)}, nil
		}},
		{"serve.gateway_do_ns", func(i int, req serve.Request) (serve.Result, error) { return owner[i].gw.Do(req) }},
		{"serve.client_do_ns", func(i int, req serve.Request) (serve.Result, error) { return direct[owner[i]].Do(req) }},
	}
	if st.cc != nil {
		entries = append(entries, entry{"cluster.client_do_ns", func(_ int, req serve.Request) (serve.Result, error) { return st.cc.Do(req) }})
	}
	medians := map[string]float64{}
	top := 0.0
	for _, e := range entries {
		t := &tally{}
		for i, req := range stream {
			start := time.Now()
			res, err := e.do(i, req)
			t.record(w, req, res, err, time.Since(start))
		}
		account(r, "ledger "+e.metric, t)
		top = quantile(t.lat[ledgerWarm:], 0.5)
		medians[e.metric] = top
		r.set(e.metric, top)
	}
	r.set("serve.queue_ns", medians["serve.gateway_do_ns"]-medians["compress.transfer_ns"])
	r.set("serve.wire_ns", medians["serve.client_do_ns"]-medians["serve.gateway_do_ns"])
	hop := 0.0
	if st.cc != nil {
		hop = medians["cluster.client_do_ns"] - medians["serve.client_do_ns"]
	}
	r.set("cluster.hop_ns", hop)
	r.set("ledger.unattributed_ns", e2eP50-top)

	r.note("ledger (median ns of %d single-threaded replays per entry point):", ledgerRequests)
	r.note("  compress.Fabric.Transfer   %10.0f", medians["compress.transfer_ns"])
	r.note("  + serve queue/batch        %10.0f  = serve.Gateway.Do %.0f", medians["serve.gateway_do_ns"]-medians["compress.transfer_ns"], medians["serve.gateway_do_ns"])
	r.note("  + wire round trip          %10.0f  = serve.Client.Do %.0f", medians["serve.client_do_ns"]-medians["serve.gateway_do_ns"], medians["serve.client_do_ns"])
	if st.cc != nil {
		r.note("  + cluster hop              %10.0f  = cluster.Client.Do %.0f", hop, medians["cluster.client_do_ns"])
	}
	r.note("  unattributed vs end-to-end p50 %.0f: %.0f", e2eP50, e2eP50-top)
	return nil
}
