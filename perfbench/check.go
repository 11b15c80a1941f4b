package main

import (
	"fmt"

	"approxnoc/internal/compress"
	"approxnoc/internal/oracle"
	"approxnoc/internal/value"
)

// errEps absorbs the rounding of the one division inside RelError, as the
// oracle's own threshold comparison does.
const errEps = 1e-12

// checkBlock checks the block a receiver got against the block that was
// sent: same shape; exact-class blocks (not approximable, or a scheme
// without VAXX) bit for bit; approximable ones within thresholdPct per
// word, with special floats untouched. It returns the summed relative
// error of the words, for approx.mean_rel_error_pct.
func checkBlock(scheme compress.Scheme, sent, got *value.Block, thresholdPct int) (float64, error) {
	if got == nil {
		return 0, fmt.Errorf("no block returned")
	}
	if len(got.Words) != len(sent.Words) {
		return 0, fmt.Errorf("got %d words, sent %d", len(got.Words), len(sent.Words))
	}
	if got.DType != sent.DType || got.Approximable != sent.Approximable {
		return 0, fmt.Errorf("got %v/approximable=%v, sent %v/approximable=%v",
			got.DType, got.Approximable, sent.DType, sent.Approximable)
	}
	bound := float64(oracle.EffectiveThreshold(scheme, sent, thresholdPct)) / 100
	sum := 0.0
	for i, sw := range sent.Words {
		gw := got.Words[i]
		if bound == 0 {
			if sw != gw {
				return 0, fmt.Errorf("exact-class word %d changed %#08x -> %#08x", i, sw, gw)
			}
			continue
		}
		if got.DType == value.Float32 && value.IsSpecialFloat(sw) && sw != gw {
			return 0, fmt.Errorf("special float word %d approximated %#08x -> %#08x", i, sw, gw)
		}
		re := oracle.RelError(sw, gw, got.DType)
		if re > bound+errEps {
			return 0, fmt.Errorf("word %d error %g beyond threshold %g (%#08x -> %#08x)", i, re, bound, sw, gw)
		}
		sum += re
	}
	return sum, nil
}

// checkDelivery checks a block the simulator delivered against its
// packet's encoding: each word equals the encoder's recorded Decoded
// value, and the block passes checkBlock against the recorded originals.
func checkDelivery(enc *compress.Encoded, got *value.Block, thresholdPct int) (float64, error) {
	if got == nil || len(enc.Words) != enc.NumWords || len(got.Words) != enc.NumWords {
		return 0, fmt.Errorf("delivered block shape does not match its encoding")
	}
	sent := &value.Block{Words: make([]value.Word, len(enc.Words)), DType: enc.DType, Approximable: enc.Approximable}
	for i, we := range enc.Words {
		if got.Words[i] != we.Decoded {
			return 0, fmt.Errorf("word %d delivered %#08x, encoder promised %#08x", i, got.Words[i], we.Decoded)
		}
		sent.Words[i] = we.Orig
	}
	return checkBlock(enc.Scheme, sent, got, thresholdPct)
}

// auditPMTs checks the dictionary encoder/decoder sync of every ordered
// node pair of a fabric (codecs without dictionaries pass trivially).
func auditPMTs(codec func(int) compress.Codec, nodes int) error {
	for e := 0; e < nodes; e++ {
		for d := 0; d < nodes; d++ {
			if e == d {
				continue
			}
			if err := oracle.CheckPMTSync(codec(e), codec(d), e, d); err != nil {
				return err
			}
		}
	}
	return nil
}
