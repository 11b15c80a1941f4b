package noc

import (
	"fmt"
	"math/bits"

	"approxnoc/internal/topology"
)

// CheckRequestMasks is the request-bitmap oracle: it rebuilds every
// router's rcReq, vaReq and saReq from the input-VC state and reports
// the first router whose maintained masks differ, or whose rcReq holds
// a VC that is not idle and fronted by a head flit.
func CheckRequestMasks(n *Network) error {
	for _, r := range n.routers {
		var rc uint64
		var va, sa [maxSlots]uint64 // per output port
		for s := range r.in {
			ivc := &r.in[s]
			bit := uint64(1) << s
			switch ivc.state {
			case vcIdle:
				if f := ivc.front(); f != nil && f.IsHead() {
					rc |= bit
				}
			case vcRouting:
				va[ivc.outPort] |= bit
			case vcActive:
				if ivc.count > 0 {
					sa[ivc.outPort] |= bit
				}
			}
		}
		for m := r.rcReq; m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			ivc := &r.in[s]
			if f := ivc.front(); ivc.state != vcIdle || f == nil || !f.IsHead() {
				return fmt.Errorf("router %d: rcReq holds slot %d (state %d, front %v) without an idle head flit",
					r.id, s, ivc.state, f)
			}
		}
		if r.rcReq != rc {
			return fmt.Errorf("router %d: rcReq %#x, VC state says %#x", r.id, r.rcReq, rc)
		}
		for op := 0; op < r.ports; op++ {
			if r.vaReq[op] != va[op] {
				return fmt.Errorf("router %d: vaReq[%d] %#x, VC state says %#x", r.id, op, r.vaReq[op], va[op])
			}
			if r.saReq[op] != sa[op] {
				return fmt.Errorf("router %d: saReq[%d] %#x, VC state says %#x", r.id, op, r.saReq[op], sa[op])
			}
		}
	}
	return nil
}

// HeldPackets counts the packets from src that dst's NI holds because
// they were ejected ahead of sequence.
func HeldPackets(n *Network, src, dst int) int {
	return len(n.nis[dst].held[src])
}

// RouterTables returns router r's precomputed neighbour and route
// tables.
func RouterTables(n *Network, r int) (nbr [4]int, route []topology.Direction) {
	return n.routers[r].nbr, n.routers[r].route
}
