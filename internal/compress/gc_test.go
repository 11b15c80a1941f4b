// Integration tests for the dictionary GC policies: cold-pattern
// age-out and the capacity-pressure sweep, both running through the
// same invalidate/ack handshake as promotion evictions, audited by the
// oracle's PMT-synchronization check after every phase.
package compress_test

import (
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/oracle"
	"approxnoc/internal/sim"
	"approxnoc/internal/value"
)

// auditPair asserts the dictionary invariants the GC must preserve:
// encoder/decoder PMT sync in both directions and zero decode
// mismatches on every node.
func auditPair(t *testing.T, fab *compress.Fabric) {
	t.Helper()
	for src := 0; src < fab.Nodes(); src++ {
		for dst := 0; dst < fab.Nodes(); dst++ {
			if src == dst {
				continue
			}
			if err := oracle.CheckPMTSync(fab.Codec(src), fab.Codec(dst), src, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	for node := 0; node < fab.Nodes(); node++ {
		if mm, ok := fab.Codec(node).(interface{ DecodeMismatches() uint64 }); ok && mm.DecodeMismatches() != 0 {
			t.Fatalf("node %d saw %d decode mismatches", node, mm.DecodeMismatches())
		}
	}
}

// hotBlock builds a block repeating one pattern.
func hotBlock(p value.Word) *value.Block {
	blk := &value.Block{Words: make([]value.Word, 8), DType: value.Int32}
	for i := range blk.Words {
		blk.Words[i] = p
	}
	return blk
}

// coldBlock builds a block of unique words that will never recur.
func coldBlock(rng *sim.Rand) *value.Block {
	blk := &value.Block{Words: make([]value.Word, 8), DType: value.Int32}
	for i := range blk.Words {
		blk.Words[i] = rng.Uint32()
	}
	return blk
}

// checkLive asserts every node's decoder live keys match its entries.
func checkLive(t testing.TB, fab *compress.Fabric) {
	t.Helper()
	for node := 0; node < fab.Nodes(); node++ {
		if err := compress.CheckLiveKeys(fab.Codec(node)); err != nil {
			t.Fatal(err)
		}
	}
}

// transfer moves one block from src to dst and settles the resulting
// notifications one at a time, in Fabric.Deliver's order, checking the
// decoders' live keys after the decode and after every notification.
func transfer(t testing.TB, fab *compress.Fabric, src, dst int, blk *value.Block) {
	t.Helper()
	enc := fab.Codec(src).Compress(dst, blk)
	_, notifs := fab.Codec(dst).Decompress(src, enc)
	checkLive(t, fab)
	for len(notifs) > 0 {
		n := notifs[0]
		notifs = append(notifs[1:], fab.Codec(n.To).HandleNotification(n)...)
		checkLive(t, fab)
	}
}

func gcFabric(t *testing.T, scheme compress.Scheme, cfg compress.DictConfig, thr int) *compress.Fabric {
	t.Helper()
	factory, err := compress.FactoryWithDict(scheme, cfg, thr)
	if err != nil {
		t.Fatal(err)
	}
	return compress.NewFabric(cfg.Nodes, factory)
}

// TestGCAgeOutReclaimsColdEntries teaches the decoder a few hot
// patterns, then starves them: after GCAgeOutEpochs idle epochs the
// entries are reclaimed through the invalidate handshake, the encoder
// mappings go with them, and the sync invariant holds throughout.
func TestGCAgeOutReclaimsColdEntries(t *testing.T) {
	for _, scheme := range []compress.Scheme{compress.DIComp, compress.DIVaxx} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := compress.DefaultDictConfig(2)
			cfg.AgingPeriod = 64
			cfg.GCAgeOutEpochs = 2
			fab := gcFabric(t, scheme, cfg, 0)

			// Phase 1: make patterns hot enough to install.
			for i := 0; i < 12; i++ {
				transfer(t, fab, 0, 1, hotBlock(value.Word(0x1000+i%3)))
			}
			auditPair(t, fab)
			if n := fab.Stats().TableWrites; n == 0 {
				t.Fatal("phase 1 never installed a dictionary entry")
			}

			// Phase 2: nothing but cold noise; the learned entries idle
			// out and the GC reclaims them.
			rng := sim.NewRand(11)
			for i := 0; i < 120; i++ {
				transfer(t, fab, 0, 1, coldBlock(rng))
				auditPair(t, fab)
			}
			s := fab.Stats()
			if s.GCEpochs == 0 {
				t.Fatal("no aging epochs ran")
			}
			if s.GCAgeEvictions == 0 {
				t.Fatalf("cold entries never aged out (epochs %d)", s.GCEpochs)
			}
		})
	}
}

// TestGCPressureSweepFreesCapacity fills a tiny PMT with hot entries,
// then hammers it with new recurring patterns the cold-entry guard
// keeps rejecting: once enough promotions block in one epoch, the
// pressure sweep evicts the coldest entries to make room.
func TestGCPressureSweepFreesCapacity(t *testing.T) {
	cfg := compress.DefaultDictConfig(2)
	cfg.Entries = 4
	cfg.AgingPeriod = 64
	cfg.GCPressureSweep = 2
	cfg.GCPressureMin = 4
	fab := gcFabric(t, compress.DIComp, cfg, 0)

	// Fill the table and make every entry hot.
	for round := 0; round < 30; round++ {
		for p := 0; p < 4; p++ {
			transfer(t, fab, 0, 1, hotBlock(value.Word(0x2000+p)))
		}
	}
	auditPair(t, fab)

	// A second working set keeps knocking; the guard blocks it until
	// the sweep fires.
	for round := 0; round < 60; round++ {
		for p := 0; p < 4; p++ {
			transfer(t, fab, 0, 1, hotBlock(value.Word(0x3000+p)))
		}
		auditPair(t, fab)
	}
	s := fab.Stats()
	if s.GCPressureEvictions == 0 {
		t.Fatalf("pressure sweep never fired (epochs %d)", s.GCEpochs)
	}
}

// TestGCBlockedReclaimDefersUnderPendingCap pins the full-pressure
// corner: with PendingCap 1 and several entries going cold in the same
// epoch, only one reclaim handshake starts; the rest are deferred and
// counted, then complete in later epochs — never corrupting sync.
func TestGCBlockedReclaimDefersUnderPendingCap(t *testing.T) {
	cfg := compress.DefaultDictConfig(2)
	cfg.AgingPeriod = 64
	cfg.GCAgeOutEpochs = 1
	cfg.PendingCap = 1
	fab := gcFabric(t, compress.DIComp, cfg, 0)

	// Install several entries, all of which go cold together.
	for i := 0; i < 12; i++ {
		for p := 0; p < 4; p++ {
			transfer(t, fab, 0, 1, hotBlock(value.Word(0x4000+p)))
		}
	}
	auditPair(t, fab)

	rng := sim.NewRand(23)
	for i := 0; i < 120; i++ {
		transfer(t, fab, 0, 1, coldBlock(rng))
		auditPair(t, fab)
	}
	s := fab.Stats()
	if s.GCBlockedReclaims == 0 {
		t.Fatalf("pending cap never deferred a reclaim (age evictions %d)", s.GCAgeEvictions)
	}
	if s.GCAgeEvictions == 0 {
		t.Fatal("deferred reclaims never completed")
	}
}

// TestGCDisabledByDefault pins that the default configuration changes
// nothing: epochs still age frequencies (as they always did) but no
// entry is ever reclaimed by GC.
func TestGCDisabledByDefault(t *testing.T) {
	cfg := compress.DefaultDictConfig(2)
	cfg.AgingPeriod = 64
	fab := gcFabric(t, compress.DIComp, cfg, 0)
	for i := 0; i < 12; i++ {
		transfer(t, fab, 0, 1, hotBlock(0x5001))
	}
	rng := sim.NewRand(31)
	for i := 0; i < 120; i++ {
		transfer(t, fab, 0, 1, coldBlock(rng))
	}
	s := fab.Stats()
	if s.GCEpochs == 0 {
		t.Fatal("aging epochs stopped running")
	}
	if s.GCAgeEvictions != 0 || s.GCPressureEvictions != 0 || s.GCBlockedReclaims != 0 {
		t.Fatalf("GC ran while disabled: %+v", s)
	}
	auditPair(t, fab)
}
