package main

import (
	"time"

	"approxnoc/internal/compress"
	"approxnoc/internal/noc"
	"approxnoc/internal/topology"
	"approxnoc/internal/traffic"
	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

// The sim-ssca2-divaxx workload: the paper's Fig. 9 bursty ssca2 replay
// on the Table 1 4x4 concentrated mesh (32 tiles), DI-VAXX at 10% with
// approx ratio 0.75, single-threaded. A record is one simulated cycle of
// the whole network.
//
// A round is one episode per phase: each episode builds a fresh network
// from its phase's seed, injects for simCycles cycles and drains. Every
// round simulates the same thing, so its statistics must repeat exactly,
// and the simulated metrics are a pure function of the run seed.
const (
	simScheme      = compress.DIVaxx
	simThreshold   = 10
	simApproxRatio = 0.75
	simCycles      = 10000
	simDrainCycles = 200000
	simWarmCycles  = 4000
	simSetupReps   = 5
)

// phases is the number of episodes in a round, each from its own seed.
// Each phase draws its own hot-value pool and traffic, so a run averages
// over several; with one, the simulated metrics of a run would depend
// mostly on the one pool and burst pattern the seed happened to draw.
const phases = 8

// simInputs are everything a phase seed decides for the simulator.
type simInputs struct {
	model      workload.Model
	sourceSeed uint64
	trafSeed   uint64
}

func newSimInputs(seed uint64) ([]simInputs, error) {
	m, err := workload.ByName("ssca2")
	if err != nil {
		return nil, err
	}
	ins := make([]simInputs, phases)
	for k := range ins {
		ps := mix(seed, uint64(1+k))
		ins[k] = simInputs{model: m, sourceSeed: mix(ps, 1), trafSeed: mix(ps, 2)}
	}
	return ins, nil
}

// delivered is one data block as the destination tile saw it.
type delivered struct {
	enc *compress.Encoded
	blk *value.Block
}

// codecTimes accumulates the wall time the traced run spends inside the
// codecs, across every NI of a network.
type codecTimes struct {
	encode, decode   time.Duration
	encoded, decoded int64
}

// timedCodec is the traced run's decorator around each NI's codec. The
// NI calls only Codec interface methods, so timing them changes nothing
// the simulator computes; Unwrap keeps the dictionary auditors working.
type timedCodec struct {
	compress.Codec
	t *codecTimes
}

func (c timedCodec) Compress(dst int, blk *value.Block) *compress.Encoded {
	start := time.Now()
	enc := c.Codec.Compress(dst, blk)
	c.t.encode += time.Since(start)
	c.t.encoded++
	return enc
}

func (c timedCodec) Decompress(src int, enc *compress.Encoded) (*value.Block, []compress.Notification) {
	start := time.Now()
	blk, notes := c.Codec.Decompress(src, enc)
	c.t.decode += time.Since(start)
	c.t.decoded++
	return blk, notes
}

func (c timedCodec) Unwrap() compress.Codec { return c.Codec }

// simEpisode is one built network, ready to run.
type simEpisode struct {
	net   *noc.Network
	inj   *traffic.Injector
	times *codecTimes // nil when untraced
	got   []delivered
}

func buildSimEpisode(in simInputs, traced bool) (*simEpisode, error) {
	topo, err := topology.NewCMesh(4, 4, 2)
	if err != nil {
		return nil, err
	}
	factory, err := compress.FactoryWithDict(simScheme, compress.DefaultDictConfig(topo.Tiles()), simThreshold)
	if err != nil {
		return nil, err
	}
	ep := &simEpisode{}
	if traced {
		ep.times = &codecTimes{}
		inner := factory
		factory = func(node int) compress.Codec { return timedCodec{Codec: inner(node), t: ep.times} }
	}
	cfg := noc.DefaultConfig()
	ep.net, err = noc.New(topo, cfg, factory)
	if err != nil {
		return nil, err
	}
	// Model.InjectionRate is a per-tile packet probability; the injector
	// takes flits/cycle/tile, so scale by the mean uncompressed packet
	// size (the Fig. 9 replay does the same).
	blockFlits := float64(1 + 64/cfg.FlitBytes)
	avgFlits := in.model.DataRatio*blockFlits + (1 - in.model.DataRatio)
	ep.inj, err = traffic.New(ep.net, traffic.Config{
		Pattern:   traffic.UniformRandom,
		FlitRate:  in.model.InjectionRate * avgFlits,
		DataRatio: in.model.DataRatio,
		Source:    in.model.NewSource(in.sourceSeed, simApproxRatio),
		Seed:      in.trafSeed,
		Bursty:    true,
		BurstLen:  in.model.BurstLen,
		BurstGap:  in.model.BurstGap,
	})
	if err != nil {
		return nil, err
	}
	ep.net.AddDeliveryHandler(func(p *noc.Packet, blk *value.Block) {
		if p.Kind == noc.DataPacket {
			ep.got = append(ep.got, delivered{enc: p.Enc, blk: blk})
		}
	})
	return ep, nil
}

// episodeRun is what one episode measured.
type episodeRun struct {
	elapsed       time.Duration
	tick, step    time.Duration // traced only
	cycleNs       []uint32      // host time of each simulated cycle
	stats         noc.NetStats
	codec         compress.OpStats
	drained       bool
	sumErr        float64
	words         int64
	checkFailures int
	firstFailure  error
}

// run injects for cycles cycles and drains, timing each cycle, then
// checks every delivered block and the dictionary sync of every NI pair.
func (ep *simEpisode) run(cycles int) episodeRun {
	var out episodeRun
	out.cycleNs = make([]uint32, 0, cycles+cycles/8)
	traced := ep.times != nil
	start := time.Now()
	last := time.Duration(0)
	for c := 0; c < simDrainCycles+cycles; c++ {
		inject := c < cycles
		if !inject && ep.net.Quiescent() {
			break
		}
		if inject {
			ep.inj.Tick()
		}
		if traced {
			mid := time.Since(start)
			out.tick += mid - last
			ep.net.Step()
			now := time.Since(start)
			out.step += now - mid
			out.cycleNs = append(out.cycleNs, nsSample(now-last))
			last = now
			continue
		}
		ep.net.Step()
		now := time.Since(start)
		out.cycleNs = append(out.cycleNs, nsSample(now-last))
		last = now
	}
	out.elapsed = last
	out.drained = ep.net.Quiescent()
	out.stats = ep.net.Stats()
	out.codec = ep.net.CodecStats()

	for _, d := range ep.got {
		sum, err := checkDelivery(d.enc, d.blk, simThreshold)
		if err != nil {
			out.fail(err)
			continue
		}
		out.sumErr += sum
		out.words += int64(len(d.blk.Words))
	}
	if err := auditPMTs(func(i int) compress.Codec { return ep.net.NI(i).Codec() }, ep.net.Topology().Tiles()); err != nil {
		out.fail(err)
	}
	return out
}

func (out *episodeRun) fail(err error) {
	out.checkFailures++
	if out.firstFailure == nil {
		out.firstFailure = err
	}
}

// runSim measures sim-ssca2-divaxx.
func runSim(seed uint64, window time.Duration, traced bool) (*result, error) {
	r := newResult()
	ins, err := newSimInputs(seed)
	if err != nil {
		return nil, err
	}

	// Set-up: build a network and warm it (heap growth, code paths),
	// several times; the median is setup_s.
	var setups []float64
	for i := 0; i < simSetupReps; i++ {
		start := time.Now()
		ep, err := buildSimEpisode(ins[0], false)
		if err != nil {
			return nil, err
		}
		ep.run(simWarmCycles)
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", medianFloat(setups))

	pw := startWindow()
	plain, tr, ref, err := simEpisodes(r, ins, traced, window)
	if err != nil {
		return nil, err
	}
	pw.finish(r, float64(plain.cycles+tr.cycles))

	r.set("records_per_s", plain.cyclesPerSec)
	r.set("latency_p50_us", plain.p50)
	r.set("latency_p90_us", plain.p90)
	r.note(p99Note, plain.p99)
	r.set("trace.untraced_records_per_s", plain.cyclesPerSec)
	r.set("approx.mean_rel_error_pct", 100*ratio(ref.sumErr, float64(ref.words)))
	r.set("compression_ratio", ref.codec.CompressionRatio())
	r.set("noc.packet_latency_cycles", ratio(ref.sumQueue+ref.sumNet+ref.sumDecode, float64(ref.delivered)))
	r.set("noc.queue_latency_cycles", ratio(ref.sumQueue, float64(ref.delivered)))
	r.set("noc.net_latency_cycles", ratio(ref.sumNet, float64(ref.delivered)))
	r.set("noc.decode_latency_cycles", ratio(ref.sumDecode, float64(ref.delivered)))
	r.set("noc.data_flits_per_block", ratio(float64(ref.dataFlits), float64(ref.dataDelivered)))
	setCodecMetrics(r, ref.codec)
	r.note("sim: %d episodes of %d cycles each, then drained, over %d phases: %d cycles in %.3f s; %d latency samples (host time per cycle)",
		plain.episodes, simCycles, phases, plain.cycles, plain.elapsed.Seconds(), plain.cycles)
	r.note("sim: mean packet latency %.4f cycles, simulated; the model is not validated against hardware",
		r.metrics["noc.packet_latency_cycles"])

	if traced {
		r.set("trace.traced_records_per_s", tr.cyclesPerSec)
		r.set("trace.overhead_pct", 100*ratio(plain.cyclesPerSec-tr.cyclesPerSec, plain.cyclesPerSec))
		cyc := float64(tr.cycles)
		r.set("traffic.tick_ns_per_cycle", ratio(float64(tr.tick), cyc))
		r.set("noc.step_ns_per_cycle", ratio(float64(tr.step), cyc))
		r.set("noc.step_self_ns_per_cycle", ratio(float64(tr.step-tr.codec.decode), cyc))
		r.set("noc.host_ns_per_flit", ratio(float64(tr.step), float64(tr.flits)))
		r.set("compress.encode_ns_per_block", ratio(float64(tr.codec.encode), float64(tr.codec.encoded)))
		r.set("compress.decode_ns_per_block", ratio(float64(tr.codec.decode), float64(tr.codec.decoded)))
		r.note("trace: %d traced episodes reproduced the untraced statistics of their phase exactly", tr.episodes)
	}
	r.set("delivered_frac", 1-ratio(float64(r.failed), float64(r.attempted)))
	r.set("peak_rss_mb", peakRSSMB())
	return r, nil
}

// roundStats is the simulated outcome of one round, summed over its
// episodes.
type roundStats struct {
	perEpisode                  []episodeRun
	sumQueue, sumNet, sumDecode float64
	delivered, dataDelivered    uint64
	dataFlits                   uint64
	codec                       compress.OpStats
	sumErr                      float64
	words                       int64
}

// simTotals sums the episodes of one kind (traced or not) in a window.
type simTotals struct {
	episodes, cycles int
	elapsed          time.Duration
	flits            uint64
	tick, step       time.Duration
	codec            codecTimes
	cyclesPerSec     float64
	p50, p90, p99    float64 // us
	rates, p50s      []float64
	p90s, p99s       []float64
}

// simEpisodes runs episodes, phase after phase, until window has passed
// and every phase has run (twice when traced). With traced, traced and
// untraced episodes alternate, and each phase runs both ways in turn, so
// the two kinds see the same host conditions. Every episode must
// reproduce the statistics of its phase's first episode exactly; that
// holds traced episodes to the untraced ones. It returns the untraced
// and traced totals and the first round's statistics.
func simEpisodes(r *result, ins []simInputs, traced bool, window time.Duration) (plain, tr simTotals, first roundStats, err error) {
	n := len(ins)
	minEpisodes := n
	if traced {
		minEpisodes = 2 * n
	}
	start := time.Now()
	for i := 0; i < minEpisodes || time.Since(start) < window; i++ {
		k := i % n
		tot := &plain
		if traced && (i+i/n)%2 == 1 {
			tot = &tr
		}
		ep, err := buildSimEpisode(ins[k], tot == &tr)
		if err != nil {
			return plain, tr, first, err
		}
		run := ep.run(simCycles)
		s := run.stats
		r.attempted += int64(s.PacketsSent)
		undelivered := int64(s.PacketsSent) - int64(s.PacketsDelivered)
		r.failed += undelivered + int64(run.checkFailures)
		if !run.drained || undelivered != 0 {
			r.problem("sim phase %d: %d of %d packets undelivered after the drain", k, undelivered, s.PacketsSent)
		}
		if run.firstFailure != nil {
			r.problem("sim phase %d: %d failed checks, first: %v", k, run.checkFailures, run.firstFailure)
		}
		if i < n {
			first.perEpisode = append(first.perEpisode, episodeRun{stats: s, codec: run.codec})
			first.sumQueue += s.SumQueueLat
			first.sumNet += s.SumNetLat
			first.sumDecode += s.SumDecodeLat
			first.delivered += s.PacketsDelivered
			first.dataDelivered += s.DataDelivered
			first.dataFlits += s.DataFlitsInjected
			first.codec.Add(run.codec)
			first.sumErr += run.sumErr
			first.words += run.words
		}
		if ref := first.perEpisode[k]; s != ref.stats || run.codec != ref.codec {
			r.problem("sim phase %d (traced=%v): statistics differ from the phase's first episode", k, tot == &tr)
		}

		tot.episodes++
		tot.rates = append(tot.rates, float64(len(run.cycleNs))/run.elapsed.Seconds())
		tot.p50s = append(tot.p50s, quantile(run.cycleNs, 0.50)/1e3)
		tot.p90s = append(tot.p90s, quantile(run.cycleNs, 0.90)/1e3)
		tot.p99s = append(tot.p99s, quantile(run.cycleNs, 0.99)/1e3)
		tot.cycles += len(run.cycleNs)
		tot.elapsed += run.elapsed
		tot.flits += s.FlitsEjected
		tot.tick += run.tick
		tot.step += run.step
		if ep.times != nil {
			tot.codec.encode += ep.times.encode
			tot.codec.decode += ep.times.decode
			tot.codec.encoded += ep.times.encoded
			tot.codec.decoded += ep.times.decoded
		}
	}
	// A window's rate and latency quantiles are medians over its
	// episodes, so one host stall moves them less than it moves a pooled
	// figure.
	for _, tot := range []*simTotals{&plain, &tr} {
		tot.cyclesPerSec = medianFloat(tot.rates)
		tot.p50 = medianFloat(tot.p50s)
		tot.p90 = medianFloat(tot.p90s)
		tot.p99 = medianFloat(tot.p99s)
	}
	return plain, tr, first, nil
}
