package noc

import (
	"math/bits"

	"approxnoc/internal/obs"
	"approxnoc/internal/topology"
)

// vcState tracks the input-VC control FSM.
type vcState uint8

const (
	vcIdle    vcState = iota // waiting for a head flit
	vcRouting                // route computed, awaiting VC allocation
	vcActive                 // output VC allocated; flits may cross
)

// inputVC is one virtual-channel buffer on an input port. The buffer is a
// fixed-capacity ring sized to BufDepth at construction, so the credit
// protocol's steady state performs no allocation: push/pop reuse the same
// backing array for the lifetime of the router.
type inputVC struct {
	buf     []*Flit // ring storage, len == BufDepth
	head    int
	count   int
	state   vcState
	outPort topology.Direction
	outVC   int
}

func (v *inputVC) front() *Flit {
	if v.count == 0 {
		return nil
	}
	return v.buf[v.head]
}

func (v *inputVC) push(f *Flit) {
	v.buf[(v.head+v.count)%len(v.buf)] = f
	v.count++
}

func (v *inputVC) pop() *Flit {
	f := v.buf[v.head]
	v.buf[v.head] = nil
	v.head = (v.head + 1) % len(v.buf)
	v.count--
	return f
}

// outputVC tracks downstream credits and wormhole ownership for one
// (output port, VC) pair.
type outputVC struct {
	credits  int
	infinite bool // ejection ports: the NI sinks flits every cycle
	owned    bool // allocated to an in-flight packet
}

func (o *outputVC) hasCredit() bool { return o.infinite || o.credits > 0 }

// maxSlots is the most input VCs (ports x VCs) a router supports: one bit
// each in the uint64 request bitmaps.
const maxSlots = 64

// router is a canonical three-stage VC router: route computation and VC
// allocation in stage 1 (consecutive cycles for a given head flit), switch
// allocation in stage 2, switch + link traversal in stage 3. Per hop a
// flit therefore spends three cycles uncontended.
//
// Input VCs are numbered by slot, port*VCs+vc, and the router keeps one
// request bitmap per stage over those slots, updated at the state
// transitions that change them:
//
//   - rcReq: idle VCs fronted by a head flit (route computation);
//   - vaReq[op]: VCs in vcRouting toward output port op;
//   - saReq[op]: vcActive VCs toward op with a buffered flit.
//
// Each stage walks only its requesting slots, lowest set bit at or after
// the round-robin pointer and wrapping, which is exactly the order the
// exhaustive (start+k)%slots sweep visits them, so grants and simulation
// results are bit-identical to that sweep. The active-set counters
// (flits, routing) let Network.Step skip quiescent routers entirely.
type router struct {
	id    int
	net   *Network
	ports int
	nvc   int
	slots int // ports * nvc, at most maxSlots

	in   []inputVC  // by slot, port*nvc+vc
	out  []outputVC // by output slot, port*nvc+vc
	saRR []int      // per output port: round-robin pointer over input slots
	vaRR []int      // per output slot: round-robin pointer over input slots

	rcReq uint64
	vaReq []uint64 // per output port
	saReq []uint64 // per output port

	// Active-set counters. A VC can only hold the vcRouting state while
	// it has a buffered head flit, so routing > 0 implies flits > 0.
	flits   int // flits resident in input buffers
	routing int // input VCs in the vcRouting state
}

func newRouter(id int, net *Network) *router {
	ports, nvc := net.topo.Ports(), net.cfg.VCs
	slots := ports * nvc
	r := &router{
		id:    id,
		net:   net,
		ports: ports,
		nvc:   nvc,
		slots: slots,
		in:    make([]inputVC, slots),
		out:   make([]outputVC, slots),
		saRR:  make([]int, ports),
		vaRR:  make([]int, slots),
		vaReq: make([]uint64, ports),
		saReq: make([]uint64, ports),
	}
	for s := range r.in {
		r.in[s].buf = make([]*Flit, net.cfg.BufDepth)
		isEjection := topology.Direction(s/nvc) >= topology.Local
		r.out[s] = outputVC{credits: net.cfg.BufDepth, infinite: isEjection}
	}
	return r
}

// nextRR returns the round-robin winner among the set slots of m: the
// lowest one at or after start, wrapping to the lowest overall. m must
// be non-zero and start < maxSlots.
func nextRR(m uint64, start int) int {
	if hi := m >> start << start; hi != 0 {
		return bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(m)
}

// acceptFlit places an arriving flit into an input buffer (buffer write).
func (r *router) acceptFlit(port topology.Direction, vc int, f *Flit) {
	slot := int(port)*r.nvc + vc
	ivc := &r.in[slot]
	if ivc.count >= r.net.cfg.BufDepth {
		panic("noc: input buffer overflow — credit protocol violated")
	}
	ivc.push(f)
	r.flits++
	r.net.power.BufferWrites++
	if ivc.count == 1 {
		switch ivc.state {
		case vcIdle:
			if f.IsHead() {
				r.rcReq |= 1 << slot
			}
		case vcActive:
			r.saReq[ivc.outPort] |= 1 << slot
		}
	}
}

// stageSA performs switch allocation and traversal: one flit per output
// port and per input port per cycle.
func (r *router) stageSA() {
	var busy uint64 // slots of input ports that already sent a flit this cycle
	for op := 0; op < r.ports; op++ {
		for m := r.saReq[op] &^ busy; m != 0; {
			slot := nextRR(m, r.saRR[op])
			bit := uint64(1) << slot
			ivc := &r.in[slot]
			ovc := &r.out[op*r.nvc+ivc.outVC]
			if !ovc.hasCredit() {
				m &^= bit
				continue
			}
			// Grant: pop and traverse.
			ip, iv := slot/r.nvc, slot%r.nvc
			f := ivc.pop()
			tail := f.IsTail()
			r.flits--
			busy |= (1<<r.nvc - 1) << (ip * r.nvc)
			r.saRR[op] = (slot + 1) % r.slots
			r.net.power.BufferReads++
			r.net.power.XbarTraversals++
			r.net.power.SwitchAllocs++
			r.forward(topology.Direction(ip), iv, topology.Direction(op), ivc.outVC, f)
			switch {
			case tail:
				ovc.owned = false
				ivc.state = vcIdle
				r.saReq[op] &^= bit
				if next := ivc.front(); next != nil && next.IsHead() {
					r.rcReq |= bit
				}
			case ivc.count == 0:
				r.saReq[op] &^= bit
			}
			break // one flit per output port per cycle
		}
	}
}

// forward moves a granted flit out of the router: onto the link toward the
// neighbour, or into the local NI on an ejection port. It also returns a
// credit upstream for the freed buffer slot.
func (r *router) forward(ip topology.Direction, iv int, op topology.Direction, ov int, f *Flit) {
	net := r.net
	// Credit for the freed input slot goes back where the flit came from.
	if ip >= topology.Local {
		net.stageNICredit(net.topo.TileAt(r.id, ip), iv)
	} else if up, ok := net.topo.Neighbor(r.id, ip); ok {
		net.stageCredit(up, ip.Opposite(), iv)
	}
	if op >= topology.Local {
		tile := net.topo.TileAt(r.id, op)
		net.nis[tile].receiveFlit(f)
		net.freeFlit(f)
		return
	}
	next, ok := net.topo.Neighbor(r.id, op)
	if !ok {
		panic("noc: route led off the mesh")
	}
	r.out[int(op)*r.nvc+ov].credits--
	net.power.LinkTraversals++
	net.stageFlit(next, op.Opposite(), ov, f)
}

// stageVA allocates free output VCs to input VCs in the routing state,
// separable with per-(port,vc) round-robin priority over vaReq. A grant
// moves the VC from vaReq to saReq, so later output VCs never see it.
func (r *router) stageVA() {
	for op := 0; op < r.ports && r.routing > 0; op++ {
		for ov := 0; ov < r.nvc && r.vaReq[op] != 0; ov++ {
			o := op*r.nvc + ov
			ovc := &r.out[o]
			if ovc.owned {
				continue
			}
			slot := nextRR(r.vaReq[op], r.vaRR[o])
			bit := uint64(1) << slot
			ivc := &r.in[slot]
			ivc.outVC = ov
			ivc.state = vcActive
			r.routing--
			r.vaReq[op] &^= bit
			r.saReq[op] |= bit // a routing VC always holds its head flit
			ovc.owned = true
			r.vaRR[o] = (slot + 1) % r.slots
			r.net.power.VCAllocs++
			if r.net.tracer != nil {
				r.net.trace(obs.EvVCAlloc, r.id, ivc.front().Packet.ID, uint64(op)<<8|uint64(ov))
			}
		}
	}
}

// stageRC computes the output port for head flits at the front of idle
// input VCs.
func (r *router) stageRC() {
	for m := r.rcReq; m != 0; m &= m - 1 {
		slot := bits.TrailingZeros64(m)
		ivc := &r.in[slot]
		ivc.outPort = r.net.topo.Route(r.id, ivc.front().Packet.Dst)
		ivc.state = vcRouting
		r.routing++
		r.vaReq[ivc.outPort] |= 1 << slot
	}
	r.rcReq = 0
}

// bufferedFlits counts flits resident in the router, for drain detection.
func (r *router) bufferedFlits() int { return r.flits }
