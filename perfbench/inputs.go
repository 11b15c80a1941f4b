package main

import (
	"approxnoc/internal/compress"
	"approxnoc/internal/serve"
	"approxnoc/internal/sim"
	"approxnoc/internal/workload"
)

// mix derives an independent stream seed from the run seed (splitmix64
// finalizer), so each input stream of a workload changes with --seed.
func mix(seed, stream uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// gatewayRequests generates n requests from a workload model: blocks
// with the model's int/float, approximable/exact and pointer-array mix,
// each between a random pair of distinct endpoints in [0, nodes), so
// every flow of the endpoint space appears. One model source feeds every
// flow, as in the simulator's replay: the flows share the benchmark's
// hot values, which the dictionary schemes learn across flows.
func gatewayRequests(model workload.Model, seed uint64, n, nodes int, approxRatio float64) []serve.Request {
	src := model.NewSource(mix(seed, 1), approxRatio)
	rng := sim.NewRand(mix(seed, 2))
	reqs := make([]serve.Request, n)
	for i := range reqs {
		s := rng.Intn(nodes)
		d := rng.Intn(nodes - 1)
		if d >= s {
			d++
		}
		reqs[i] = serve.Request{Src: s, Dst: d, Block: src.NextBlock()}
	}
	return reqs
}

// setCodecMetrics reports the codec counters of one workload.
func setCodecMetrics(r *result, s compress.OpStats) {
	r.set("compress.encoded_word_frac", s.EncodedWordFraction())
	r.set("approx.approx_word_frac", s.ApproxWordFraction())
	r.set("compress.notifications_per_block", ratio(float64(s.NotificationsSent), float64(s.BlocksIn)))
	r.set("approx.avcl_clips_per_block", ratio(float64(s.AVCLClips), float64(s.BlocksIn)))
}
