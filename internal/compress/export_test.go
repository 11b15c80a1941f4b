package compress

import "fmt"

// CheckLiveKeys is the live-key oracle: it rebuilds a dictionary
// codec's per-slot raw-word scan keys from its decoder entries and
// reports the first slot whose maintained key differs. The keys are
// bookkeeping over state the decoder already holds, so a missed refresh
// is a divergence from scanning the entries. Codecs without a
// dictionary pass.
func CheckLiveKeys(c Codec) error {
	in, ok := AsDictIntrospector(c)
	if !ok {
		return nil
	}
	d := in.(*dictCodec)
	for slot := range d.dec {
		e := &d.dec[slot]
		var want uint64
		if e.valid && !e.locked {
			want = uint64(e.pattern) | uint64(e.dtype)<<32 | 1<<63
		}
		if d.live[slot] != want {
			return fmt.Errorf("node %d decoder slot %d: live key %#x, entry %+v says %#x",
				d.node, slot, d.live[slot], *e, want)
		}
	}
	return nil
}
