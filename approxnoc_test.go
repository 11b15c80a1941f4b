package approxnoc

import (
	"strings"
	"testing"
)

func TestDefaultOptionsBuild(t *testing.T) {
	for _, scheme := range Schemes() {
		sim, err := NewSimulator(DefaultOptions(scheme, 10))
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if sim.Tiles() != 32 {
			t.Fatalf("%v: %d tiles, want 32", scheme, sim.Tiles())
		}
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	opts := DefaultOptions(Baseline, 0)
	opts.Width = 0
	if _, err := NewSimulator(opts); err == nil {
		t.Fatal("zero width accepted")
	}
	opts = DefaultOptions(DIVaxx, 500)
	if _, err := NewSimulator(opts); err == nil {
		t.Fatal("bogus threshold accepted")
	}
	// 2x2 with 5 tiles per router at 8 VCs is 9 ports x 8 = 72 input VC
	// slots per router, past the router's 64-slot limit.
	opts = Options{Width: 2, Height: 2, Concentration: 5, Scheme: Baseline, Network: DefaultNetworkConfig()}
	opts.Network.VCs = 8
	if _, err := NewSimulator(opts); err == nil || !strings.Contains(err.Error(), "9 ports x 8 VCs") {
		t.Fatalf("72-slot router: err = %v, want the slot limit naming 9 ports x 8 VCs", err)
	}
	opts.Concentration = 4
	if _, err := NewSimulator(opts); err != nil {
		t.Fatalf("64-slot router rejected: %v", err)
	}
}

func TestZeroNetworkConfigDefaults(t *testing.T) {
	opts := Options{Width: 2, Height: 2, Concentration: 1, Scheme: Baseline}
	sim, err := NewSimulator(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Network().Config().VCs != DefaultNetworkConfig().VCs {
		t.Fatal("zero config did not default")
	}
}

func TestEndToEndDataDelivery(t *testing.T) {
	sim, err := NewSimulator(DefaultOptions(FPVaxx, 10))
	if err != nil {
		t.Fatal(err)
	}
	var delivered *Block
	sim.OnDeliver(func(src, dst int, blk *Block) {
		if blk != nil {
			delivered = blk
		}
	})
	blk := NewIntBlock(make([]int32, 16), false)
	if err := sim.SendData(0, 31, blk); err != nil {
		t.Fatal(err)
	}
	if !sim.Drain(10000) {
		t.Fatal("drain failed")
	}
	if delivered == nil || !delivered.Equal(blk) {
		t.Fatal("block not delivered intact")
	}
	if sim.Stats().PacketsDelivered != 1 {
		t.Fatal("stats missed the packet")
	}
	if sim.CodecStats().BlocksIn != 1 {
		t.Fatal("codec stats missed the block")
	}
}

func TestSendValidation(t *testing.T) {
	sim, _ := NewSimulator(DefaultOptions(Baseline, 0))
	if err := sim.SendControl(3, 3); err == nil {
		t.Fatal("self send accepted")
	}
	if err := sim.SendData(0, 99, NewIntBlock([]int32{1}, false)); err == nil {
		t.Fatal("out-of-range send accepted")
	}
}

func TestChannelApproximation(t *testing.T) {
	ch, err := NewChannel(4, DIVaxx, 10)
	if err != nil {
		t.Fatal(err)
	}
	hot := NewFloatBlock([]float32{7, 7, 7, 7}, true)
	for i := 0; i < 4; i++ {
		ch.Transfer(0, 1, hot)
	}
	near := NewFloatBlock([]float32{7.01, 6.95, 7, 7.02}, true)
	out := ch.Transfer(0, 1, near)
	if len(out.Words) != 4 {
		t.Fatal("block shape lost")
	}
	if ch.Stats().WordsApprox == 0 {
		t.Fatal("channel never approximated")
	}
}

func TestAdaptiveOptionBuildsAndDelivers(t *testing.T) {
	opts := DefaultOptions(DIVaxx, 10)
	opts.Adaptive = true
	sim, err := NewSimulator(opts)
	if err != nil {
		t.Fatal(err)
	}
	blk := NewIntBlock(make([]int32, 16), false)
	if err := sim.SendData(0, 17, blk); err != nil {
		t.Fatal(err)
	}
	if !sim.Drain(10000) {
		t.Fatal("drain failed")
	}
	var got *Block
	sim.OnDeliver(func(src, dst int, b *Block) {
		if b != nil { // dictionary notifications deliver with a nil block
			got = b
		}
	})
	sim.SendData(1, 20, blk)
	sim.Drain(10000)
	if got == nil || !got.Equal(blk) {
		t.Fatal("adaptive simulator corrupted data")
	}
}

func TestNewWindowedChannel(t *testing.T) {
	if _, err := NewWindowedChannel(4, Baseline, 10, 16, 4); err == nil {
		t.Fatal("windowed baseline accepted")
	}
	if _, err := NewWindowedChannel(4, FPVaxx, 10, 0, 4); err == nil {
		t.Fatal("zero window accepted")
	}
	for _, scheme := range []Scheme{FPVaxx, DIVaxx} {
		ch, err := NewWindowedChannel(4, scheme, 10, 16, 4)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		blk := NewIntBlock([]int32{1 << 20, 1<<20 + 100, 1 << 20, 1<<20 - 50}, true)
		out := ch.Transfer(0, 1, blk)
		if len(out.Words) != 4 {
			t.Fatalf("%v: block shape lost", scheme)
		}
	}
}

func TestExtendedSchemesExposed(t *testing.T) {
	if len(ExtendedSchemes()) != 7 {
		t.Fatalf("%d extended schemes", len(ExtendedSchemes()))
	}
	sim, err := NewSimulator(DefaultOptions(BDVaxx, 10))
	if err != nil {
		t.Fatal(err)
	}
	if sim.Tiles() != 32 {
		t.Fatal("BD simulator malformed")
	}
}

func TestParseSchemeRoundTrip(t *testing.T) {
	s, err := ParseScheme("DI-VAXX")
	if err != nil || s != DIVaxx {
		t.Fatal("parse failed")
	}
}

func TestExperimentConfigExposed(t *testing.T) {
	cfg := DefaultExperimentConfig()
	if cfg.ErrorThreshold != 10 || cfg.ApproxRatio != 0.75 {
		t.Fatalf("default experiment config %+v", cfg)
	}
}

func TestBlockConstructors(t *testing.T) {
	ib := NewIntBlock([]int32{1, 2}, true)
	if ib.DType != Int32 || !ib.Approximable {
		t.Fatal("int block metadata")
	}
	fb := NewFloatBlock([]float32{1}, false)
	if fb.DType != Float32 || fb.Approximable {
		t.Fatal("float block metadata")
	}
}
