package noc

import (
	"fmt"
	"strings"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/sim"
	"approxnoc/internal/topology"
	"approxnoc/internal/value"
)

func baselineNet(t *testing.T, w, h, c int) *Network {
	t.Helper()
	topo, err := topology.NewCMesh(w, h, c)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(topo, DefaultConfig(), func(int) compress.Codec { return compress.NewBaseline() })
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func schemeNet(t *testing.T, w, h, c int, scheme compress.Scheme, threshold int) *Network {
	t.Helper()
	topo, err := topology.NewCMesh(w, h, c)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := compress.FactoryFor(scheme, topo.Tiles(), threshold)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(topo, DefaultConfig(), factory)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testBlock() *value.Block {
	return value.BlockFromI32(make([]int32, value.WordsPerBlock), false)
}

func TestControlPacketDelivery(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	p, err := n.SendControl(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Drain(1000) {
		t.Fatal("network did not drain")
	}
	if p.DeliveredAt == 0 {
		t.Fatal("packet never delivered")
	}
	s := n.Stats()
	if s.PacketsDelivered != 1 || s.ControlDelivered != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// An uncontended control packet crossing h hops should take roughly
// 3 cycles per hop (3-stage router) plus injection/ejection overhead.
func TestUncontendedLatency(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	p, _ := n.SendControl(0, 3) // 3 hops along the top row, 4 routers
	n.Drain(1000)
	lat := int(p.TotalLatency())
	// 4 routers * 3 stages + injection link + serialization ~ 13-16.
	if lat < 10 || lat > 20 {
		t.Fatalf("uncontended 3-hop latency %d cycles, expected ~13", lat)
	}
	if p.DecodeLatency() != 0 {
		t.Fatal("control packet has decode latency")
	}
}

func TestLatencyScalesWithDistance(t *testing.T) {
	n := baselineNet(t, 8, 8, 1)
	near, _ := n.SendControl(0, 1)
	n.Drain(2000)
	n2 := baselineNet(t, 8, 8, 1)
	far, _ := n2.SendControl(0, 63)
	n2.Drain(2000)
	if far.TotalLatency() <= near.TotalLatency() {
		t.Fatalf("far latency %d <= near latency %d", far.TotalLatency(), near.TotalLatency())
	}
}

func TestDataPacketBaselineFlits(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	p, err := n.SendData(0, 5, testBlock())
	if err != nil {
		t.Fatal(err)
	}
	// 64B block at 8B flits: 8 payload + 1 header.
	if p.Flits != 9 {
		t.Fatalf("baseline data packet %d flits, want 9", p.Flits)
	}
	if !n.Drain(2000) {
		t.Fatal("drain failed")
	}
	s := n.Stats()
	if s.FlitsInjected != 9 || s.FlitsEjected != 9 || s.DataFlitsInjected != 9 {
		t.Fatalf("flit accounting: %+v", s)
	}
}

func TestSelfAndOutOfRangeRejected(t *testing.T) {
	n := baselineNet(t, 2, 2, 1)
	if _, err := n.SendControl(1, 1); err == nil {
		t.Fatal("self-addressed packet accepted")
	}
	if _, err := n.SendControl(0, 99); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if _, err := n.SendData(-1, 0, testBlock()); err == nil {
		t.Fatal("negative source accepted")
	}
}

func TestAllPairsDelivery(t *testing.T) {
	n := baselineNet(t, 3, 3, 2) // 18 tiles, concentrated
	tiles := n.Topology().Tiles()
	want := 0
	for s := 0; s < tiles; s++ {
		for d := 0; d < tiles; d++ {
			if s == d {
				continue
			}
			if _, err := n.SendControl(s, d); err != nil {
				t.Fatal(err)
			}
			want++
		}
	}
	if !n.Drain(20000) {
		t.Fatalf("network did not drain; in flight %d", n.InFlight())
	}
	if got := n.Stats().PacketsDelivered; got != uint64(want) {
		t.Fatalf("delivered %d of %d", got, want)
	}
}

func TestHeavyRandomTrafficDrains(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	r := sim.NewRand(1234)
	sent := 0
	for cycle := 0; cycle < 2000; cycle++ {
		for tile := 0; tile < 16; tile++ {
			if r.Bool(0.05) {
				dst := r.Intn(16)
				if dst == tile {
					continue
				}
				if r.Bool(0.3) {
					n.SendData(tile, dst, testBlock())
				} else {
					n.SendControl(tile, dst)
				}
				sent++
			}
		}
		n.Step()
	}
	if !n.Drain(100000) {
		t.Fatalf("congested network failed to drain; %d in flight", n.InFlight())
	}
	if got := int(n.Stats().PacketsDelivered); got != sent {
		t.Fatalf("delivered %d of %d", got, sent)
	}
}

// heldTracker steps a network and records the most packets of one flow
// its destination NI held out of sequence at once. A network holding a
// packet must not report itself quiescent.
type heldTracker struct {
	t        *testing.T
	n        *Network
	src, dst int
	max      int
}

func (h *heldTracker) step() {
	h.t.Helper()
	h.n.Step()
	held := HeldPackets(h.n, h.src, h.dst)
	if held > 0 && h.n.Quiescent() {
		h.t.Fatalf("cycle %d: quiescent with %d packets held", h.n.Now(), held)
	}
	h.max = max(h.max, held)
}

// drain steps until the network is quiescent or maxCycles elapse.
func (h *heldTracker) drain(maxCycles int) bool {
	for i := 0; i < maxCycles && !h.n.Quiescent(); i++ {
		h.step()
	}
	return h.n.Quiescent()
}

func TestPerPairInOrderDelivery(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	var deliveries []uint64
	n.SetDeliveryHandler(func(p *Packet, _ *value.Block) {
		if p.Src == 0 && p.Dst == 15 {
			deliveries = append(deliveries, p.Seq)
		}
	})
	h := &heldTracker{t: t, n: n, src: 0, dst: 15}
	r := sim.NewRand(7)
	for i := 0; i < 50; i++ {
		if r.Bool(0.5) {
			n.SendData(0, 15, testBlock())
		} else {
			n.SendControl(0, 15)
		}
		// Cross traffic over the flow's east and south links stalls its
		// VCs unevenly, so later packets overtake earlier ones.
		n.SendData(1, 11, testBlock())
		h.step()
		h.step()
	}
	if !h.drain(50000) {
		t.Fatal("drain failed")
	}
	if h.max == 0 {
		t.Fatal("no packet was ejected out of sequence; the test exercised no reordering")
	}
	for i, seq := range deliveries {
		if seq != uint64(i) {
			t.Fatalf("delivery %d has seq %d: order violated", i, seq)
		}
	}
	if len(deliveries) != 50 {
		t.Fatalf("delivered %d of 50", len(deliveries))
	}
}

func TestCompressedSchemeReducesDataFlits(t *testing.T) {
	mk := func(scheme compress.Scheme) uint64 {
		n := schemeNet(t, 4, 4, 1, scheme, 10)
		// Highly compressible traffic: blocks of zeros and tiny ints.
		for i := 0; i < 50; i++ {
			blk := value.BlockFromI32([]int32{0, 0, 0, 0, 1, 2, 3, -1, 0, 0, 0, 0, 5, 5, 5, 5}, false)
			n.SendData(0, 15, blk)
			n.Step()
		}
		if !n.Drain(50000) {
			t.Fatal("drain failed")
		}
		return n.Stats().DataFlitsInjected
	}
	base := mk(compress.Baseline)
	fp := mk(compress.FPComp)
	if fp >= base {
		t.Fatalf("FP-COMP injected %d data flits, baseline %d", fp, base)
	}
	if fp > base/2 {
		t.Fatalf("compressible traffic only reduced flits %d -> %d", base, fp)
	}
}

func TestDecompressionLatencyAccounted(t *testing.T) {
	n := schemeNet(t, 4, 4, 1, compress.FPComp, 0)
	p, _ := n.SendData(0, 5, testBlock())
	n.Drain(5000)
	if p.DecodeLatency() != sim.Cycle(DefaultConfig().DecompressLatency) {
		t.Fatalf("decode latency %d, want %d", p.DecodeLatency(), DefaultConfig().DecompressLatency)
	}
}

func TestCompressionLatencyVisibleWhenQueueEmpty(t *testing.T) {
	// With an empty queue the compression overhead cannot be hidden: the
	// FP-COMP packet must be injected effectiveCompressLatency cycles
	// after an equivalent baseline packet.
	nb := baselineNet(t, 4, 4, 1)
	pb, _ := nb.SendData(0, 5, testBlock())
	nb.Drain(5000)

	nf := schemeNet(t, 4, 4, 1, compress.FPComp, 0)
	pf, _ := nf.SendData(0, 5, testBlock())
	nf.Drain(5000)

	diff := int(pf.QueueLatency()) - int(pb.QueueLatency())
	want := DefaultConfig().effectiveCompressLatency()
	if diff != want {
		t.Fatalf("queue latency difference %d, want %d", diff, want)
	}
}

func TestOverlapOptimizationsReduceLatency(t *testing.T) {
	run := func(cfg Config) float64 {
		topo, _ := topology.NewMesh(4, 4)
		factory, _ := compress.FactoryFor(compress.FPComp, 16, 0)
		n, err := New(topo, cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		r := sim.NewRand(42)
		for cycle := 0; cycle < 3000; cycle++ {
			for tile := 0; tile < 16; tile++ {
				if r.Bool(0.02) {
					dst := r.Intn(16)
					if dst != tile {
						n.SendData(tile, dst, testBlock())
					}
				}
			}
			n.Step()
		}
		n.Drain(100000)
		return n.Stats().AvgPacketLatency()
	}
	on := DefaultConfig()
	off := DefaultConfig()
	off.OverlapVCArb = false
	off.OverlapQueueing = false
	lOn, lOff := run(on), run(off)
	if lOn >= lOff {
		t.Fatalf("latency with optimizations %.2f >= without %.2f", lOn, lOff)
	}
}

func TestDictionaryProtocolOverNetwork(t *testing.T) {
	n := schemeNet(t, 4, 4, 1, compress.DIComp, 0)
	var wrong int
	want := value.BlockFromI32([]int32{0x7ABBCCDD >> 1, 0x7ABBCCDD >> 1, 0x7ABBCCDD >> 1, 0x7ABBCCDD >> 1}, false)
	n.SetDeliveryHandler(func(p *Packet, blk *value.Block) {
		if p.Kind == DataPacket && !blk.Equal(want) {
			wrong++
		}
	})
	// Repeatedly send the same block so the dictionary learns and the
	// later packets compress; correctness must hold throughout.
	for i := 0; i < 40; i++ {
		n.SendData(2, 13, want.Clone())
		n.Run(30)
	}
	if !n.Drain(50000) {
		t.Fatal("drain failed")
	}
	if wrong != 0 {
		t.Fatalf("%d corrupted data deliveries", wrong)
	}
	cs := n.CodecStats()
	if cs.WordsExact == 0 {
		t.Fatal("dictionary never compressed over the network")
	}
	if n.Stats().NotifDelivered == 0 {
		t.Fatal("no dictionary notifications crossed the network")
	}
}

func TestDIVaxxOverNetworkRespectsThreshold(t *testing.T) {
	n := schemeNet(t, 4, 4, 1, compress.DIVaxx, 10)
	r := sim.NewRand(5)
	base := int32(1 << 20)
	var worst float64
	n.SetDeliveryHandler(func(p *Packet, blk *value.Block) {
		if p.Kind != DataPacket {
			return
		}
		orig := p.Enc.Words
		for i := range blk.Words {
			e := value.RelError(orig[i].Orig, blk.Words[i], value.Int32)
			if e > worst {
				worst = e
			}
		}
	})
	for i := 0; i < 60; i++ {
		words := make([]int32, 16)
		for j := range words {
			// A few hot reference values plus jitter well inside the 10%
			// threshold: the exact patterns recur (so the dictionary
			// learns) and the jittered variants only match via the TCAM's
			// don't-care families.
			words[j] = base + int32(r.Intn(6))*100000 + int32(r.Intn(4))*500
		}
		n.SendData(1, 14, value.BlockFromI32(words, true))
		n.Run(25)
	}
	if !n.Drain(50000) {
		t.Fatal("drain failed")
	}
	if worst > 0.10+1e-9 {
		t.Fatalf("worst delivered error %g exceeds 10%% threshold", worst)
	}
	if n.CodecStats().WordsApprox == 0 {
		t.Fatal("DI-VAXX never approximated over the network")
	}
}

func TestPowerEventsAccumulate(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	n.SendData(0, 15, testBlock())
	n.Drain(2000)
	p := n.Power()
	if p.BufferWrites == 0 || p.BufferReads == 0 || p.XbarTraversals == 0 || p.LinkTraversals == 0 {
		t.Fatalf("power events missing: %+v", p)
	}
	// Every buffered flit is eventually read out.
	if p.BufferWrites != p.BufferReads {
		t.Fatalf("buffer writes %d != reads %d after drain", p.BufferWrites, p.BufferReads)
	}
	// 9 flits * 6 router traversals along the 6-hop path + ... at least.
	if p.XbarTraversals < 9*6 {
		t.Fatalf("xbar traversals %d too few", p.XbarTraversals)
	}
}

func TestThroughputMetric(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	for i := 0; i < 10; i++ {
		n.SendControl(0, 15)
		n.Step()
	}
	n.Drain(5000)
	s := n.Stats()
	if s.Throughput(16) <= 0 {
		t.Fatal("zero throughput after deliveries")
	}
	if s.Throughput(0) != 0 {
		t.Fatal("division by zero tiles")
	}
}

func TestQuiescentInitially(t *testing.T) {
	n := baselineNet(t, 2, 2, 1)
	if !n.Quiescent() {
		t.Fatal("fresh network not quiescent")
	}
	n.Step()
	if !n.Quiescent() {
		t.Fatal("idle step broke quiescence")
	}
}

func TestConcentratedMeshDelivery(t *testing.T) {
	n := baselineNet(t, 4, 4, 2) // the paper's 32-tile configuration
	// Tiles 0 and 1 share router 0: 0-hop router path via local ports.
	p, err := n.SendControl(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Drain(1000) {
		t.Fatal("drain failed")
	}
	if p.DeliveredAt == 0 {
		t.Fatal("same-router delivery failed")
	}
}

func TestConfigValidation(t *testing.T) {
	topo, _ := topology.NewMesh(2, 2)
	bad := DefaultConfig()
	bad.VCs = 0
	if _, err := New(topo, bad, func(int) compress.Codec { return compress.NewBaseline() }); err == nil {
		t.Fatal("accepted zero VCs")
	}
	if _, err := New(nil, DefaultConfig(), func(int) compress.Codec { return compress.NewBaseline() }); err == nil {
		t.Fatal("accepted nil topology")
	}
}

func TestDataPacketFlitsFragmentation(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct{ bytes, flits int }{
		{0, 2}, {1, 2}, {8, 2}, {9, 3}, {64, 9}, {63, 9}, {17, 4},
	}
	for _, c := range cases {
		if got := cfg.dataPacketFlits(c.bytes); got != c.flits {
			t.Errorf("dataPacketFlits(%d) = %d, want %d", c.bytes, got, c.flits)
		}
	}
}

func TestEffectiveCompressLatency(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.effectiveCompressLatency() != 2 {
		t.Fatalf("overlapped latency %d, want 2", cfg.effectiveCompressLatency())
	}
	cfg.OverlapVCArb = false
	if cfg.effectiveCompressLatency() != 3 {
		t.Fatalf("unoverlapped latency %d, want 3", cfg.effectiveCompressLatency())
	}
}

func TestMatchUnitLatencyModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MatchUnits = 8
	// The paper's provisioning: 8 units reproduce the 3-cycle total for a
	// 16-word block (2 match + 1 encode).
	if got := cfg.compressLatencyFor(16); got != 3 {
		t.Fatalf("8 units, 16 words: %d cycles, want 3", got)
	}
	cfg.MatchUnits = 1
	if got := cfg.compressLatencyFor(16); got != 17 {
		t.Fatalf("1 unit, 16 words: %d cycles, want 17", got)
	}
	cfg.MatchUnits = 16
	if got := cfg.compressLatencyFor(16); got != 2 {
		t.Fatalf("16 units: %d cycles, want 2", got)
	}
	cfg.MatchUnits = 0
	if got := cfg.compressLatencyFor(16); got != cfg.CompressLatency {
		t.Fatalf("disabled model: %d cycles", got)
	}
	// Overlap hides one cycle regardless of the model.
	cfg.MatchUnits = 8
	if got := cfg.effectiveCompressLatencyFor(16); got != 2 {
		t.Fatalf("overlapped 8-unit latency %d, want 2", got)
	}
}

func TestFewerMatchUnitsIncreaseLatency(t *testing.T) {
	run := func(units int) float64 {
		topo, _ := topology.NewMesh(4, 4)
		factory, _ := compress.FactoryFor(compress.FPVaxx, 16, 10)
		cfg := DefaultConfig()
		cfg.MatchUnits = units
		cfg.OverlapQueueing = false // make the compression latency visible
		n, err := New(topo, cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			n.SendData(i%16, (i+3)%16, testBlock())
			n.Run(20)
		}
		n.Drain(100000)
		return n.Stats().AvgPacketLatency()
	}
	one, eight := run(1), run(8)
	if one <= eight {
		t.Fatalf("1 unit latency %.2f not above 8 units %.2f", one, eight)
	}
}

func TestResetStatsEpoch(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	n.SendControl(0, 15)
	n.Drain(1000)
	if n.Stats().PacketsDelivered != 1 {
		t.Fatal("warmup packet missing")
	}
	n.ResetStats()
	s := n.Stats()
	if s.PacketsDelivered != 0 || s.PacketsSent != 0 || s.Cycles != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
	if n.Power() != (PowerEvents{}) {
		t.Fatal("power not reset")
	}
	// Post-reset traffic is measured from the epoch.
	n.SendControl(1, 14)
	n.Drain(1000)
	s = n.Stats()
	if s.PacketsDelivered != 1 || s.Cycles == 0 {
		t.Fatalf("post-reset stats wrong: %+v", s)
	}
}

func TestResetStatsWithInFlightPackets(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	n.SendData(0, 15, testBlock())
	n.Run(3) // packet still in flight
	n.ResetStats()
	if got := n.Stats().PacketsSent; got != 1 {
		t.Fatalf("in-flight packets not carried: sent=%d", got)
	}
	n.Drain(5000)
	s := n.Stats()
	if s.PacketsDelivered != 1 || s.PacketsSent != 1 {
		t.Fatalf("post-drain accounting: %+v", s)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	for i := 0; i < 50; i++ {
		n.SendControl(0, 15)
		n.Step()
	}
	n.Drain(10000)
	s := n.Stats()
	p50 := s.LatencyPercentile(50)
	p99 := s.LatencyPercentile(99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("percentiles p50=%g p99=%g", p50, p99)
	}
	if s.LatencyPercentile(0) != 0 {
		t.Fatal("0th percentile nonzero")
	}
	var empty NetStats
	if empty.LatencyPercentile(50) != 0 {
		t.Fatal("empty stats percentile nonzero")
	}
}

// The request bitmaps give each router at most 64 input VC slots
// (ports x VCs); New must refuse anything larger and name both factors.
func TestSlotLimit(t *testing.T) {
	cases := []struct {
		w, h, c, vcs int
		ok           bool
	}{
		{4, 4, 2, 8, true},   // 6 ports x 8 = 48, the router-sensitivity sweep's largest
		{2, 2, 4, 8, true},   // 8 x 8 = 64, exactly the limit
		{2, 2, 5, 8, false},  // 9 x 8 = 72
		{4, 4, 1, 13, false}, // 5 x 13 = 65
	}
	for _, tc := range cases {
		topo, err := topology.NewCMesh(tc.w, tc.h, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.VCs = tc.vcs
		_, err = New(topo, cfg, func(int) compress.Codec { return compress.NewBaseline() })
		if tc.ok {
			if err != nil {
				t.Errorf("%dx%d c=%d VCs=%d rejected: %v", tc.w, tc.h, tc.c, tc.vcs, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%dx%d c=%d VCs=%d (%d slots) accepted", tc.w, tc.h, tc.c, tc.vcs, topo.Ports()*tc.vcs)
			continue
		}
		for _, want := range []string{fmt.Sprintf("%d ports", topo.Ports()), fmt.Sprintf("%d VCs", tc.vcs)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	}
}
