package vectors

import (
	"bytes"
	"fmt"
	"math"

	"approxnoc/internal/compress"
	"approxnoc/internal/noc"
	"approxnoc/internal/topology"
	"approxnoc/internal/value"
)

// netThreshold is the VAXX error threshold of every netstats episode.
const netThreshold = 10

// Netstats episode lengths: cycles of injection, then a drain bounded by
// netDrainCycles.
const (
	netInjectCycles = 300
	netDrainCycles  = 200000
)

// NetEpisode is one golden simulator run: a router configuration, a
// codec scheme and an injection pattern, driven by its own seed. The
// netstats suite pins each episode's NetStats, PowerEvents and OpStats;
// router tests replay the same episodes to check their own invariants.
type NetEpisode struct {
	Name                string
	Width, Height, Conc int
	VCs, BufDepth       int
	Scheme              compress.Scheme
	Pattern             string // "uniform-lo", "uniform-sat" or "bursty"
	Seed                uint64
}

// NetEpisodes returns the netstats grid in the order the golden file
// lists it, with the per-episode seeds the suite draws for seed. The
// grid covers a 4x4 mesh, the paper's 4x4 CMesh (c=2) and a 2x2 CMesh with c=4 at
// 8 VCs (64 input VC slots per router, the arbitration limit), each at
// VCs {2,4,8} x BufDepth {2,4} where it fits, under uniform and bursty
// injection up to saturation, with DI-VAXX and FP-VAXX.
func NetEpisodes(seed uint64) []NetEpisode {
	return netEpisodes(suiteRNG("netstats", seed))
}

func netEpisodes(r *rng) []NetEpisode {
	type shape struct {
		name       string
		w, h, c    int
		vcs, depth []int
	}
	shapes := []shape{
		{"mesh4x4", 4, 4, 1, []int{2, 4, 8}, []int{2, 4}},
		{"cmesh4x4c2", 4, 4, 2, []int{2, 4, 8}, []int{2, 4}},
		{"cmesh2x2c4", 2, 2, 4, []int{8}, []int{2, 4}},
	}
	var eps []NetEpisode
	for _, s := range shapes {
		for _, vcs := range s.vcs {
			for _, depth := range s.depth {
				for _, scheme := range []compress.Scheme{compress.DIVaxx, compress.FPVaxx} {
					for _, pat := range []string{"uniform-lo", "uniform-sat", "bursty"} {
						eps = append(eps, NetEpisode{
							Name:  fmt.Sprintf("%s/vc%d/d%d/%s/%s", s.name, vcs, depth, scheme, pat),
							Width: s.w, Height: s.h, Conc: s.c,
							VCs: vcs, BufDepth: depth,
							Scheme: scheme, Pattern: pat,
							Seed: r.next(),
						})
					}
				}
			}
		}
	}
	return eps
}

// Build assembles the episode's network: Table 1 parameters with the
// episode's VC count and buffer depth.
func (e NetEpisode) Build() (*noc.Network, error) {
	topo, err := topology.NewCMesh(e.Width, e.Height, e.Conc)
	if err != nil {
		return nil, err
	}
	factory, err := compress.FactoryFor(e.Scheme, topo.Tiles(), netThreshold)
	if err != nil {
		return nil, err
	}
	cfg := noc.DefaultConfig()
	cfg.VCs, cfg.BufDepth = e.VCs, e.BufDepth
	return noc.New(topo, cfg, factory)
}

// rate is the per-tile injection probability at cycle c.
func (e NetEpisode) rate(c int) float64 {
	switch e.Pattern {
	case "uniform-lo":
		return 0.04
	case "uniform-sat":
		return 0.4
	default: // bursty: a saturating burst every 64 cycles, quiet between
		if c%64 < 16 {
			return 0.6
		}
		return 0.02
	}
}

// Drive injects the episode's traffic into n, one Step per cycle, then
// steps until the network drains. afterStep, when non-nil, runs after
// every Step. It reports whether the network drained.
func (e NetEpisode) Drive(n *noc.Network, afterStep func()) bool {
	r := &rng{s: e.Seed}
	tiles := n.Topology().Tiles()
	alpha := make([]value.Word, 8)
	for i := range alpha {
		alpha[i] = netWord(r)
	}
	step := func() {
		n.Step()
		if afterStep != nil {
			afterStep()
		}
	}
	for c := 0; c < netInjectCycles; c++ {
		p := e.rate(c)
		for tile := 0; tile < tiles; tile++ {
			if r.float() >= p {
				continue
			}
			dst := r.intn(tiles - 1)
			if dst >= tile {
				dst++
			}
			var err error
			if r.intn(2) == 0 {
				_, err = n.SendData(tile, dst, netBlock(r, alpha))
			} else {
				_, err = n.SendControl(tile, dst)
			}
			if err != nil {
				panic(err)
			}
		}
		step()
	}
	for i := 0; i < netDrainCycles && !n.Quiescent(); i++ {
		step()
	}
	return n.Quiescent()
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// netWord draws a dictionary-alphabet word: a small-magnitude float or a
// frequent-pattern integer.
func netWord(r *rng) value.Word {
	if r.intn(2) == 0 {
		return value.Word(math.Float32bits(float32(r.intn(2000)-1000) / 8))
	}
	return fpcWord(r)
}

// netBlock draws a 16-word block mixing alphabet hits, near-misses (low
// bits flipped, so VAXX can approximate them) and fresh words; three
// blocks in four are approximable.
func netBlock(r *rng, alpha []value.Word) *value.Block {
	dt := value.Int32
	if r.intn(2) == 0 {
		dt = value.Float32
	}
	blk := value.NewBlock(value.WordsPerBlock, dt, r.intn(4) != 0)
	for j := range blk.Words {
		switch r.intn(4) {
		case 0, 1:
			blk.Words[j] = alpha[r.intn(len(alpha))]
		case 2:
			blk.Words[j] = alpha[r.intn(len(alpha))] ^ value.Word(1+r.intn(15))
		default:
			blk.Words[j] = netWord(r)
		}
	}
	return blk
}

// genNetstats pins the cycle-accurate simulator's results: for every
// netstats episode, the drained network's NetStats (latency histogram
// included), PowerEvents and codec OpStats. Router arbitration changes
// that alter any grant order show up here.
func genNetstats(w *bytes.Buffer, r *rng) {
	for _, e := range netEpisodes(r) {
		n, err := e.Build()
		if err != nil {
			panic(err)
		}
		drained := e.Drive(n, nil)
		fmt.Fprintf(w, "%s drained=%t\n", e.Name, drained)
		fmt.Fprintf(w, "  net %+v\n", n.Stats())
		fmt.Fprintf(w, "  power %+v\n", n.Power())
		fmt.Fprintf(w, "  ops %+v\n", n.CodecStats())
	}
}
