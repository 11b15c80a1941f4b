package noc

import (
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/topology"
	"approxnoc/internal/value"
)

// Backpressure: with every VC on the bottleneck link busy, upstream
// senders must stall on credits rather than overflow buffers (overflow
// panics in acceptFlit, so completing without panic and delivering all
// packets is the assertion).
func TestCreditBackpressureNoOverflow(t *testing.T) {
	n := baselineNet(t, 4, 1, 1) // a line: all traffic shares links
	sent := 0
	for i := 0; i < 40; i++ {
		// Everyone hammers the far-right tile through the same links.
		for src := 0; src < 3; src++ {
			if _, err := n.SendData(src, 3, testBlock()); err == nil {
				sent++
			}
		}
		n.Step()
	}
	if !n.Drain(100000) {
		t.Fatal("drain failed under backpressure")
	}
	if int(n.Stats().PacketsDelivered) != sent {
		t.Fatalf("delivered %d of %d", n.Stats().PacketsDelivered, sent)
	}
}

// Wormhole integrity: flits of a packet arrive in order and contiguously
// per VC; the reassembled block equals what the encoder predicted even
// when many packets interleave.
func TestWormholeReassemblyUnderInterleaving(t *testing.T) {
	n := schemeNet(t, 4, 4, 1, compress.FPComp, 0)
	want := map[uint64][]value.Word{}
	n.SetDeliveryHandler(func(p *Packet, blk *value.Block) {
		if p.Kind != DataPacket {
			return
		}
		exp := want[p.ID]
		if len(exp) != len(blk.Words) {
			t.Errorf("packet %d length %d, want %d", p.ID, len(blk.Words), len(exp))
			return
		}
		for i := range exp {
			if blk.Words[i] != exp[i] {
				t.Errorf("packet %d word %d = %#x, want %#x", p.ID, i, blk.Words[i], exp[i])
				return
			}
		}
	})
	for i := 0; i < 60; i++ {
		words := make([]int32, 16)
		for j := range words {
			words[j] = int32(i*100 + j)
		}
		blk := value.BlockFromI32(words, false)
		p, err := n.SendData(i%16, (i*5+1)%16, blk)
		if err != nil {
			continue
		}
		exp := make([]value.Word, len(p.Enc.Words))
		for j, we := range p.Enc.Words {
			exp[j] = we.Decoded
		}
		want[p.ID] = exp
		n.Step()
	}
	if !n.Drain(100000) {
		t.Fatal("drain failed")
	}
}

// All VCs get used: sustained traffic must spread over virtual channels,
// not serialize on VC 0.
func TestVirtualChannelsAllUsed(t *testing.T) {
	topo, _ := topology.NewMesh(2, 2)
	n, err := New(topo, DefaultConfig(), func(int) compress.Codec { return compress.NewBaseline() })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		n.SendData(0, 3, testBlock())
	}
	n.Run(30)
	used := 0
	for v := 0; v < n.cfg.VCs; v++ {
		if n.nis[0].credits[v] < n.cfg.BufDepth {
			used++
		}
	}
	// During a long burst at least two VCs should have outstanding credits.
	if used < 2 {
		t.Fatalf("only %d VCs in use during burst", used)
	}
	n.Drain(100000)
}

// A packet traversing the maximum diameter on an 8x8 mesh stays within a
// sane latency bound when uncontended: ~3 cycles per hop plus overheads.
func TestDiameterLatencyBound(t *testing.T) {
	n := baselineNet(t, 8, 8, 1)
	p, _ := n.SendControl(0, 63) // 14 hops
	n.Drain(5000)
	lat := int(p.TotalLatency())
	if lat > 14*3+15 {
		t.Fatalf("uncontended diameter latency %d cycles", lat)
	}
}

// Sending while the network is mid-flight must keep per-pair ordering
// even across VC switches (regression guard for the reorder buffer).
func TestReorderBufferReleasesInOrder(t *testing.T) {
	n := baselineNet(t, 4, 4, 1)
	var seqs []uint64
	n.SetDeliveryHandler(func(p *Packet, _ *value.Block) {
		if p.Src == 2 && p.Dst == 13 {
			seqs = append(seqs, p.Seq)
		}
	})
	h := &heldTracker{t: t, n: n, src: 2, dst: 13}
	for i := 0; i < 30; i++ {
		n.SendData(2, 13, testBlock())
		n.SendControl(2, 13)
		// Competing flows to cause VC diversity on the shared path.
		n.SendData(6, 13, testBlock())
		h.step()
	}
	if !h.drain(100000) {
		t.Fatal("drain failed")
	}
	if h.max == 0 {
		t.Fatal("no packet was ejected out of sequence; the test exercised no reordering")
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("sequence gap: %v", seqs)
		}
	}
	if len(seqs) != 60 {
		t.Fatalf("delivered %d of 60", len(seqs))
	}
}

// The per-router neighbour and route tables must tabulate exactly what
// the topology computes, for every direction and destination tile. The
// non-square mesh catches x/y mix-ups.
func TestRouterTablesMatchTopology(t *testing.T) {
	for _, tc := range []struct{ w, h, c int }{{4, 4, 1}, {4, 4, 2}, {2, 2, 4}, {3, 5, 1}} {
		n := baselineNet(t, tc.w, tc.h, tc.c)
		topo := n.Topology()
		for r := 0; r < topo.Routers(); r++ {
			nbr, route := RouterTables(n, r)
			for d := topology.East; d <= topology.South; d++ {
				want := -1
				if next, ok := topo.Neighbor(r, d); ok {
					want = next
				}
				if nbr[d] != want {
					t.Errorf("%v router %d: neighbour %v is %d, topology says %d", topo, r, d, nbr[d], want)
				}
			}
			if len(route) != topo.Tiles() {
				t.Fatalf("%v router %d: route table has %d entries for %d tiles", topo, r, len(route), topo.Tiles())
			}
			for tile := range route {
				if want := topo.Route(r, tile); route[tile] != want {
					t.Errorf("%v router %d: route to tile %d is %v, topology says %v", topo, r, tile, route[tile], want)
				}
			}
		}
	}
}
