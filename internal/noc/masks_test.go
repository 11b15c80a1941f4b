package noc_test

import (
	"testing"

	"approxnoc/internal/noc"
	"approxnoc/internal/obs"
	"approxnoc/internal/vectors"
)

// TestRequestMasksMatchVCState replays every netstats golden episode
// with a tracer attached and, after every Step, checks each router's
// request bitmaps against the ones rebuilt from its VC state. The
// bitmaps are bookkeeping over state the router already holds, so any
// missed or stale update is a divergence from the exhaustive sweep.
func TestRequestMasksMatchVCState(t *testing.T) {
	for _, e := range vectors.NetEpisodes(vectors.DefaultSeed) {
		n, err := e.Build()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		tracer := obs.NewTracer(4, 1<<12)
		n.EnableObs(nil, tracer, 0)
		var bad error
		drained := e.Drive(n, func() {
			if bad == nil {
				if err := noc.CheckRequestMasks(n); err != nil {
					bad = err
					t.Errorf("%s after cycle %d: %v", e.Name, n.Now(), err)
				}
			}
		})
		if !drained {
			t.Errorf("%s did not drain", e.Name)
		}
		if len(tracer.Snapshot()) == 0 {
			t.Errorf("%s recorded no trace events", e.Name)
		}
	}
}
