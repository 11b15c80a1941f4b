package noc

import (
	"math/bits"

	"approxnoc/internal/compress"
	"approxnoc/internal/obs"
	"approxnoc/internal/sim"
	"approxnoc/internal/topology"
	"approxnoc/internal/value"
)

// delivery is a packet in the NI's post-ejection decode pipeline.
type delivery struct {
	p       *Packet
	readyAt sim.Cycle
}

// NI is a network interface: it packetizes and compresses departing
// traffic, fragments packets into flits, injects them into its router's
// local port, and on the receive side assembles flits, enforces
// per-(source,destination) ordering, and decompresses data packets.
type NI struct {
	net   *Network
	tile  int
	codec compress.Codec

	// The router and local port this tile injects into, fixed by the
	// topology and cached so the per-flit path does no division.
	router int
	port   topology.Direction

	// Injection side. The queue is consumed through qhead instead of
	// re-slicing so the backing array is reused; it is compacted when the
	// dead prefix dominates.
	queue   []*Packet
	qhead   int
	cur     *Packet
	curFl   []*Flit // reused flit scratch for the streaming packet
	curIdx  int
	curVC   int
	credits []int
	nextVC  int
	nextSeq []uint64 // per destination: sequence number of the next packet

	// Ejection side. Everything is indexed by source tile.
	expected []uint64     // next sequence number to release
	held     [][]*Packet  // ejected ahead of sequence, ascending Seq
	deliverQ [][]delivery // in-order decode FIFO
	ready    []uint64     // bitset of sources with a non-empty deliverQ
	// heldPackets counts entries across held, and pendingDeliveries
	// entries across deliverQ, so pendingWork and Step need no scan.
	heldPackets       int
	pendingDeliveries int
}

func newNI(net *Network, tile int, codec compress.Codec) *NI {
	tiles := net.topo.Tiles()
	ni := &NI{
		net:      net,
		tile:     tile,
		codec:    codec,
		router:   net.topo.RouterOf(tile),
		port:     net.topo.LocalPortOf(tile),
		curVC:    -1,
		credits:  make([]int, net.cfg.VCs),
		nextSeq:  make([]uint64, tiles),
		expected: make([]uint64, tiles),
		held:     make([][]*Packet, tiles),
		deliverQ: make([][]delivery, tiles),
		ready:    make([]uint64, (tiles+63)/64),
	}
	for v := range ni.credits {
		ni.credits[v] = net.cfg.BufDepth
	}
	return ni
}

// Codec exposes the node's compression engine.
func (ni *NI) Codec() compress.Codec { return ni.codec }

// QueueLen returns the injection queue occupancy (including the packet
// currently streaming flits).
func (ni *NI) QueueLen() int {
	n := len(ni.queue) - ni.qhead
	if ni.cur != nil {
		n++
	}
	return n
}

// popQueue removes and returns the queue head, compacting the backing
// array once the consumed prefix dominates it.
func (ni *NI) popQueue() *Packet {
	p := ni.queue[ni.qhead]
	ni.queue[ni.qhead] = nil
	ni.qhead++
	switch {
	case ni.qhead == len(ni.queue):
		ni.queue = ni.queue[:0]
		ni.qhead = 0
	case ni.qhead >= 32 && ni.qhead*2 >= len(ni.queue):
		n := copy(ni.queue, ni.queue[ni.qhead:])
		ni.queue = ni.queue[:n]
		ni.qhead = 0
	}
	return p
}

// buildFlits fragments the packet into the NI's reusable flit scratch,
// drawing Flit structs from the network's recycle pool.
func (ni *NI) buildFlits(p *Packet) {
	ni.curFl = ni.curFl[:0]
	for i := 0; i < p.Flits; i++ {
		t := BodyFlit
		switch {
		case p.Flits == 1:
			t = HeadTailFlit
		case i == 0:
			t = HeadFlit
		case i == p.Flits-1:
			t = TailFlit
		}
		f := ni.net.allocFlit()
		f.Type, f.Seq, f.Packet = t, i, p
		ni.curFl = append(ni.curFl, f)
	}
}

// enqueueData packetizes and compresses a cache block bound for dst.
// Compression happens at enqueue: the NI queue is FIFO and delivery is
// per-pair in-order, so dictionary state seen by the encoder stays
// consistent with what the decoder will hold at decode time.
func (ni *NI) enqueueData(dst int, blk *value.Block, now sim.Cycle) *Packet {
	enc := ni.codec.Compress(dst, blk)
	p := ni.net.newPacket(ni.tile, dst, DataPacket, now)
	if ni.net.tracer != nil {
		ni.net.trace(obs.EvCompress, ni.tile, p.ID, uint64(enc.Bits))
		approxWords := 0
		for _, we := range enc.Words {
			if we.Kind == compress.ApproxWord {
				approxWords++
			}
		}
		if approxWords > 0 {
			ni.net.trace(obs.EvApproxHit, ni.tile, p.ID, uint64(approxWords))
		}
	}
	p.Enc = enc
	p.Flits = ni.net.cfg.dataPacketFlits(enc.PayloadBytes())
	p.ReadyAt = now
	if enc.Scheme != compress.Baseline {
		if ni.net.cfg.OverlapQueueing {
			p.ReadyAt = now + sim.Cycle(ni.net.cfg.effectiveCompressLatencyFor(enc.NumWords))
		} else {
			p.ReadyAt = 0 // assigned when the packet reaches the queue head
		}
	}
	ni.queue = append(ni.queue, p)
	return p
}

// enqueueControl queues a single-flit control packet.
func (ni *NI) enqueueControl(dst int, now sim.Cycle) *Packet {
	p := ni.net.newPacket(ni.tile, dst, ControlPacket, now)
	p.Flits = 1
	p.ReadyAt = now
	ni.queue = append(ni.queue, p)
	return p
}

// enqueueNotif queues a dictionary protocol message as a single-flit
// control packet.
func (ni *NI) enqueueNotif(n compress.Notification, now sim.Cycle) *Packet {
	p := ni.net.newPacket(ni.tile, n.To, NotifPacket, now)
	notif := n
	p.Notif = &notif
	p.Flits = 1
	p.ReadyAt = now
	ni.queue = append(ni.queue, p)
	return p
}

// inject pushes at most one flit per cycle into the router's local input
// port, subject to credits.
func (ni *NI) inject(now sim.Cycle) {
	if ni.cur == nil {
		if len(ni.queue) == ni.qhead {
			return
		}
		head := ni.queue[ni.qhead]
		if head.ReadyAt == 0 && head.Kind == DataPacket && head.Enc.Scheme != compress.Baseline {
			// OverlapQueueing off: compression starts at the queue head.
			head.ReadyAt = now + sim.Cycle(ni.net.cfg.effectiveCompressLatencyFor(head.Enc.NumWords))
		}
		if head.ReadyAt > now {
			return
		}
		ni.popQueue()
		ni.cur = head
		ni.buildFlits(head)
		ni.curIdx = 0
		ni.curVC = -1
	}
	if ni.curVC < 0 {
		for i := 0; i < ni.net.cfg.VCs; i++ {
			v := (ni.nextVC + i) % ni.net.cfg.VCs
			if ni.credits[v] > 0 {
				ni.curVC = v
				ni.nextVC = (v + 1) % ni.net.cfg.VCs
				break
			}
		}
		if ni.curVC < 0 {
			return // no credits on any VC
		}
	}
	if ni.credits[ni.curVC] == 0 {
		return
	}
	f := ni.curFl[ni.curIdx]
	ni.credits[ni.curVC]--
	if ni.curIdx == 0 {
		ni.cur.InjectedAt = now
	}
	ni.net.stats.FlitsInjected++
	if ni.cur.Kind == DataPacket {
		ni.net.stats.DataFlitsInjected++
	}
	ni.net.stageFlit(ni.router, ni.port, ni.curVC, f)
	if ni.net.tracer != nil {
		ni.net.trace(obs.EvFlitInject, ni.tile, ni.cur.ID, uint64(ni.curIdx))
	}
	ni.curIdx++
	if ni.curIdx == len(ni.curFl) {
		// Keep curFl's capacity for the next packet; the in-flight flits
		// are owned by the network until ejection.
		ni.cur, ni.curVC = nil, -1
		ni.curFl = ni.curFl[:0]
	}
}

// receiveFlit accepts an ejected flit from the router. Tail arrival
// completes the packet and enters it into the ordered decode pipeline:
// an in-sequence packet releases at once, together with every held
// packet it brings into sequence; one ejected ahead of sequence waits
// in its source's held list.
func (ni *NI) receiveFlit(f *Flit) {
	ni.net.stats.FlitsEjected++
	if ni.net.tracer != nil {
		ni.net.trace(obs.EvFlitEject, ni.tile, f.Packet.ID, 0)
	}
	if !f.IsTail() {
		return
	}
	now := ni.net.clock.Now()
	p := f.Packet
	p.EjectedAt = now
	src := p.Src
	if p.Seq != ni.expected[src] {
		ni.hold(p)
		return
	}
	ni.release(p, now)
	h := ni.held[src]
	n := 0
	for n < len(h) && h[n].Seq == ni.expected[src] {
		ni.release(h[n], now)
		n++
	}
	if n > 0 {
		ni.held[src] = h[:copy(h, h[n:])]
		clear(h[len(h)-n:])
		ni.heldPackets -= n
	}
}

// hold inserts an out-of-sequence packet into its source's held list,
// keeping the list sorted by sequence number.
func (ni *NI) hold(p *Packet) {
	h := append(ni.held[p.Src], p)
	i := len(h) - 1
	for ; i > 0 && h[i-1].Seq > p.Seq; i-- {
		h[i] = h[i-1]
	}
	h[i] = p
	ni.held[p.Src] = h
	ni.heldPackets++
}

// release appends the next in-sequence packet from its source to the
// decode FIFO.
func (ni *NI) release(p *Packet, now sim.Cycle) {
	src := p.Src
	ni.expected[src]++
	ni.deliverQ[src] = append(ni.deliverQ[src], delivery{
		p:       p,
		readyAt: now + ni.decodeLatency(p),
	})
	ni.ready[src>>6] |= 1 << (src & 63)
	ni.pendingDeliveries++
}

func (ni *NI) decodeLatency(p *Packet) sim.Cycle {
	// Keyed off the packet's own scheme, not the codec's: the adaptive
	// controller emits baseline-form packets when compression is off, and
	// those need no decode stage.
	if p.Kind == DataPacket && p.Enc.Scheme != compress.Baseline {
		return sim.Cycle(ni.net.cfg.DecompressLatency)
	}
	return 0
}

// processDeliveries completes decodes whose latency elapsed, preserving
// per-source order. Only sources with queued decodes are visited, in
// ascending index order, so the simulation stays deterministic.
func (ni *NI) processDeliveries(now sim.Cycle) {
	for w, word := range ni.ready {
		for ; word != 0; word &= word - 1 {
			src := w<<6 | bits.TrailingZeros64(word)
			q := ni.deliverQ[src]
			n := 0
			for n < len(q) && q[n].readyAt <= now {
				ni.deliver(q[n].p, now)
				n++
			}
			if n == 0 {
				continue
			}
			// Compact in place so the backing array is reused instead
			// of advancing the slice start and reallocating on append.
			ni.deliverQ[src] = q[:copy(q, q[n:])]
			ni.pendingDeliveries -= n
			if n == len(q) {
				ni.ready[w] &^= 1 << (src & 63)
			}
		}
	}
}

func (ni *NI) deliver(p *Packet, now sim.Cycle) {
	p.DeliveredAt = now
	ni.net.stats.recordDelivery(p)
	ni.net.inFlight--
	switch p.Kind {
	case DataPacket:
		blk, notifs := ni.codec.Decompress(p.Src, p.Enc)
		if ni.net.tracer != nil {
			ni.net.trace(obs.EvDecompress, ni.tile, p.ID, uint64(len(notifs)))
		}
		for _, n := range notifs {
			ni.enqueueNotif(n, now)
		}
		ni.net.notifyDelivery(p, blk)
	case NotifPacket:
		if ni.net.tracer != nil && p.Notif.Kind == compress.NotifUpdate {
			ni.net.trace(obs.EvPMTUpdate, ni.tile, uint64(p.Notif.Index), uint64(p.Notif.Pattern))
		}
		for _, reply := range ni.codec.HandleNotification(*p.Notif) {
			ni.enqueueNotif(reply, now)
		}
		ni.net.notifyDelivery(p, nil)
	default:
		ni.net.notifyDelivery(p, nil)
	}
}

// pendingWork reports whether the NI still holds undelivered state.
func (ni *NI) pendingWork() bool {
	return len(ni.queue) > ni.qhead || ni.cur != nil || ni.pendingDeliveries > 0 || ni.heldPackets > 0
}
