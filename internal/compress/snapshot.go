package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"approxnoc/internal/approx"
	"approxnoc/internal/quality"
	"approxnoc/internal/tcam"
	"approxnoc/internal/value"
)

// DictSnapshotter is implemented by codecs whose dictionary state can be
// captured and transplanted: the lifecycle interface behind PMT
// replication. Marshal produces a deterministic, versioned byte image of
// the full codec state — both PMTs, the candidate tracker, in-flight
// eviction handshakes, statistics, and the generation counter — such
// that Marshal∘Unmarshal∘Marshal is byte-identical and a restored codec
// is behaviorally indistinguishable from the original.
type DictSnapshotter interface {
	// Marshal serializes the dictionary state in the versioned snapshot
	// format (DESIGN.md §12).
	Marshal() ([]byte, error)
	// Unmarshal replaces the codec's state with a snapshot taken from a
	// codec of identical configuration. It validates before committing:
	// on any error the codec is unchanged. A snapshot older than the
	// local state (by generation) is rejected with ErrStaleSnapshot.
	Unmarshal(data []byte) error
	// Generation returns the dictionary state version: it advances on
	// every table mutation, so replication can order snapshots.
	Generation() uint64
}

var (
	// ErrStaleSnapshot rejects a snapshot whose generation is behind the
	// local dictionary state — applying it would roll the tables back.
	ErrStaleSnapshot = errors.New("compress: snapshot older than local dictionary state")
	// ErrSnapshotMismatch rejects snapshot bytes that are corrupt or were
	// taken from a codec with a different shape.
	ErrSnapshotMismatch = errors.New("compress: snapshot mismatch")
)

// Snapshot format v1 (all integers big-endian):
//
//	magic "PMTS" | version u16 | scheme u8 | flags u8 | node u32 |
//	nodes u32 | entries u32 | candCap u32 | promoteThreshold u32 |
//	pendingCap u32 | agingPeriod u32 | gen u64
//
// flags: bit0 = TCAM encoder (DI-VAXX), bits1-2 = budget kind
// (0 none, 1 per-word, 2 window). The body sections follow in order:
// encoder table (+stats), per-destination side storage, decoder table,
// candidate tracker, pending installs, window budget state (kind 2
// only), operation counters, AVCL counters (TCAM only). Invalid slots
// serialize as zeros so equal state always yields equal bytes.
const (
	snapMagic   = "PMTS"
	snapVersion = 1

	snapFlagTCAM       = 0x01
	snapBudgetShift    = 1
	snapBudgetMask     = 0x06
	snapBudgetNone     = 0
	snapBudgetPerWord  = 1
	snapBudgetWindowed = 2

	decFlagValid  = 0x01
	decFlagLocked = 0x02
)

// snapWriter accumulates the big-endian byte image.
type snapWriter struct{ b []byte }

func (w *snapWriter) u8(v uint8)   { w.b = append(w.b, v) }
func (w *snapWriter) u16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *snapWriter) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *snapWriter) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *snapWriter) f64(v float64) {
	w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(v))
}

// snapReader consumes the byte image; any overrun sets err once.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = fmt.Errorf("%w: truncated (need %d bytes, have %d)", ErrSnapshotMismatch, n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *snapReader) u8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *snapReader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *snapReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *snapReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (d *dictCodec) budgetKind() (uint8, error) {
	switch d.budget.(type) {
	case nil:
		return snapBudgetNone, nil
	case *quality.PerWord:
		return snapBudgetPerWord, nil
	case *quality.Window:
		return snapBudgetWindowed, nil
	default:
		return 0, fmt.Errorf("compress: budget %T is not snapshottable", d.budget)
	}
}

// Generation implements DictSnapshotter.
func (d *dictCodec) Generation() uint64 { return d.gen }

// Marshal implements DictSnapshotter.
func (d *dictCodec) Marshal() ([]byte, error) {
	bk, err := d.budgetKind()
	if err != nil {
		return nil, err
	}
	var flags uint8 = bk << snapBudgetShift
	if d.tc != nil {
		flags |= snapFlagTCAM
	}
	w := &snapWriter{}
	w.b = append(w.b, snapMagic...)
	w.u16(snapVersion)
	w.u8(uint8(d.scheme))
	w.u8(flags)
	w.u32(uint32(d.node))
	w.u32(uint32(d.cfg.Nodes))
	w.u32(uint32(d.cfg.Entries))
	w.u32(uint32(d.cfg.CandidateCap))
	w.u32(uint32(d.cfg.PromoteThreshold))
	w.u32(uint32(d.cfg.PendingCap))
	w.u32(uint32(d.cfg.AgingPeriod))
	w.u64(d.gen)

	// Encoder PMT.
	if d.tc != nil {
		for i := 0; i < d.cfg.Entries; i++ {
			e, freq, valid := d.tc.SlotState(i)
			if valid {
				w.u8(1)
				w.u32(e.Value)
				w.u32(e.Mask)
				w.u64(freq)
			} else {
				w.u8(0)
				w.u32(0)
				w.u32(0)
				w.u64(0)
			}
		}
		ts := d.tc.Stats()
		w.u64(ts.Searches)
		w.u64(ts.Hits)
		w.u64(ts.Writes)
	} else {
		for i := 0; i < d.cfg.Entries; i++ {
			pat, freq, valid := d.cam.SlotState(i)
			if valid {
				w.u8(1)
				w.u32(pat)
				w.u64(freq)
			} else {
				w.u8(0)
				w.u32(0)
				w.u64(0)
			}
		}
		cs := d.cam.Stats()
		w.u64(cs.Searches)
		w.u64(cs.Hits)
		w.u64(cs.Writes)
	}

	// Per-destination side storage, slot-major on the wire.
	for slot := 0; slot < d.cfg.Entries; slot++ {
		for dst := 0; dst < d.cfg.Nodes; dst++ {
			ref := d.encDest[dst*d.cfg.Entries+slot]
			if ref.valid {
				w.u8(1)
				w.u32(uint32(ref.idx))
				w.u32(ref.orig)
			} else {
				w.u8(0)
				w.u32(0)
				w.u32(0)
			}
		}
	}

	// Decoder PMT.
	vbBytes := (d.cfg.Nodes + 7) / 8
	for slot := range d.dec {
		e := &d.dec[slot]
		if !e.valid {
			w.u8(0)
			w.u32(0)
			w.u8(0)
			w.u64(0)
			w.u32(0)
			w.b = append(w.b, make([]byte, vbBytes)...)
			continue
		}
		var fl uint8 = decFlagValid
		if e.locked {
			fl |= decFlagLocked
		}
		w.u8(fl)
		w.u32(e.pattern)
		w.u8(uint8(e.dtype))
		w.u64(e.freq)
		w.u32(d.idle[slot])
		packed := make([]byte, vbBytes)
		for j, set := range e.validBits {
			if set {
				packed[j/8] |= 1 << uint(j%8)
			}
		}
		w.b = append(w.b, packed...)
	}

	// Candidate tracker (wire format keeps the split pattern/dtype fields).
	w.u32(uint32(len(d.cands.keys)))
	for i := range d.cands.keys {
		w.u32(d.cands.pat(i))
		w.u8(uint8(d.cands.dtype(i)))
		w.u64(uint64(d.cands.count[i]))
	}

	// Pending installs; awaiting sets serialize sorted for determinism.
	w.u32(uint32(len(d.pending)))
	for i := range d.pending {
		p := &d.pending[i]
		w.u32(uint32(p.slot))
		if p.gc {
			w.u8(1)
			w.u32(0)
			w.u8(0)
			w.u32(0)
		} else {
			w.u8(0)
			w.u32(p.pattern)
			w.u8(uint8(p.dtype))
			w.u32(uint32(p.requester))
		}
		ids := make([]int, 0, len(p.awaiting))
		for id := range p.awaiting {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		w.u32(uint32(len(ids)))
		for _, id := range ids {
			w.u32(uint32(id))
		}
	}

	// Window budget position.
	if bk == snapBudgetWindowed {
		spent, seen := d.budget.(*quality.Window).State()
		w.f64(spent)
		w.u32(uint32(seen))
	}

	// Operation counters, in OpStats declaration order.
	s := &d.stats
	w.u64(s.BlocksIn)
	w.u64(s.WordsIn)
	w.u64(s.WordsExact)
	w.u64(s.WordsApprox)
	w.u64(s.WordsRaw)
	w.u64(s.BitsIn)
	w.u64(s.BitsOut)
	w.f64(s.SumRelError)
	w.u64(s.BlocksDecoded)
	w.u64(s.WordsDecoded)
	w.u64(s.CamSearches)
	w.u64(s.TcamSearches)
	w.u64(s.TableWrites)
	w.u64(s.NotificationsSent)
	w.u64(s.NotificationsRecv)
	w.u64(s.EncodeOps)
	w.u64(s.DecodeOps)
	w.u64(s.AVCLMaskHits)
	w.u64(s.AVCLClips)
	w.u64(s.AVCLBypasses)
	w.u64(s.GCEpochs)
	w.u64(s.GCAgeEvictions)
	w.u64(s.GCPressureEvictions)
	w.u64(s.GCBlockedReclaims)
	w.u64(d.decodeMismatch)
	w.u64(d.blockedPromotes)

	// AVCL counters (TCAM schemes only).
	if d.avcl != nil {
		as := d.avcl.Stats()
		w.u64(as.RangeComputes)
		w.u64(as.Bypasses)
		w.u64(as.MaskHits)
		w.u64(as.Clips)
	}
	return w.b, nil
}

// snapState is the fully parsed and validated snapshot, held off to the
// side until Unmarshal commits it atomically.
type snapState struct {
	gen uint64

	camSlots  []camSlot
	tcamSlots []tcamSlot
	encStats  tcam.Stats

	encDest []destRef
	dec     []decEntry
	idle    []uint32

	candPats  []value.Word
	candDts   []value.DataType
	candCount []int

	pending []pendingInstall

	spent float64
	seen  int

	stats           OpStats
	decodeMismatch  uint64
	blockedPromotes uint64
	avclStats       avclStats
}

type camSlot struct {
	valid   bool
	pattern uint32
	freq    uint64
}

type tcamSlot struct {
	valid bool
	ent   tcam.TEntry
	freq  uint64
}

type avclStats struct {
	rangeComputes, bypasses, maskHits, clips uint64
}

func mismatchf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrSnapshotMismatch, fmt.Sprintf(format, args...))
}

// Unmarshal implements DictSnapshotter.
func (d *dictCodec) Unmarshal(data []byte) error {
	bk, err := d.budgetKind()
	if err != nil {
		return err
	}
	var wantFlags uint8 = bk << snapBudgetShift
	if d.tc != nil {
		wantFlags |= snapFlagTCAM
	}

	r := &snapReader{b: data}
	if magic := r.take(4); r.err != nil || string(magic) != snapMagic {
		return mismatchf("bad magic")
	}
	if v := r.u16(); r.err == nil && v != snapVersion {
		return mismatchf("unsupported version %d", v)
	}
	if sc := r.u8(); r.err == nil && Scheme(sc) != d.scheme {
		return mismatchf("scheme %s, codec is %s", Scheme(sc), d.scheme)
	}
	if fl := r.u8(); r.err == nil && fl != wantFlags {
		return mismatchf("flags %#x, codec expects %#x", fl, wantFlags)
	}
	if n := r.u32(); r.err == nil && int(n) != d.node {
		return mismatchf("node %d, codec is node %d", n, d.node)
	}
	hdr := []struct {
		name string
		want int
	}{
		{"nodes", d.cfg.Nodes},
		{"entries", d.cfg.Entries},
		{"candidate cap", d.cfg.CandidateCap},
		{"promote threshold", d.cfg.PromoteThreshold},
		{"pending cap", d.cfg.PendingCap},
		{"aging period", d.cfg.AgingPeriod},
	}
	for _, h := range hdr {
		if v := r.u32(); r.err == nil && int(v) != h.want {
			return mismatchf("%s %d, codec has %d", h.name, v, h.want)
		}
	}
	st := snapState{gen: r.u64()}
	if r.err == nil && st.gen < d.gen {
		return fmt.Errorf("%w (snapshot gen %d < local gen %d)", ErrStaleSnapshot, st.gen, d.gen)
	}

	entries, nodes := d.cfg.Entries, d.cfg.Nodes

	// Encoder PMT.
	if d.tc != nil {
		st.tcamSlots = make([]tcamSlot, entries)
		for i := range st.tcamSlots {
			valid := r.u8()
			v, m, f := r.u32(), r.u32(), r.u64()
			if valid > 1 {
				return mismatchf("tcam slot %d flag %d", i, valid)
			}
			if valid == 0 && (v != 0 || m != 0 || f != 0) {
				return mismatchf("tcam slot %d invalid but nonzero", i)
			}
			st.tcamSlots[i] = tcamSlot{valid: valid == 1, ent: tcam.TEntry{Value: v, Mask: m}, freq: f}
		}
	} else {
		st.camSlots = make([]camSlot, entries)
		for i := range st.camSlots {
			valid := r.u8()
			p, f := r.u32(), r.u64()
			if valid > 1 {
				return mismatchf("cam slot %d flag %d", i, valid)
			}
			if valid == 0 && (p != 0 || f != 0) {
				return mismatchf("cam slot %d invalid but nonzero", i)
			}
			st.camSlots[i] = camSlot{valid: valid == 1, pattern: p, freq: f}
		}
	}
	st.encStats = tcam.Stats{Searches: r.u64(), Hits: r.u64(), Writes: r.u64()}

	// Per-destination side storage.
	st.encDest = make([]destRef, nodes*entries)
	for slot := 0; slot < entries; slot++ {
		for dst := 0; dst < nodes; dst++ {
			valid := r.u8()
			idx, orig := r.u32(), r.u32()
			if valid > 1 {
				return mismatchf("encDest[%d][%d] flag %d", slot, dst, valid)
			}
			if valid == 0 {
				if idx != 0 || orig != 0 {
					return mismatchf("encDest[%d][%d] invalid but nonzero", slot, dst)
				}
				continue
			}
			if int(idx) >= entries {
				return mismatchf("encDest[%d][%d] index %d out of range", slot, dst, idx)
			}
			st.encDest[dst*entries+slot] = destRef{valid: true, idx: int32(idx), orig: orig}
		}
	}

	// Decoder PMT.
	vbBytes := (nodes + 7) / 8
	st.dec = make([]decEntry, entries)
	st.idle = make([]uint32, entries)
	for slot := range st.dec {
		fl := r.u8()
		pat := r.u32()
		dt := r.u8()
		freq := r.u64()
		idle := r.u32()
		packed := r.take(vbBytes)
		if r.err != nil {
			return r.err
		}
		if fl&^(decFlagValid|decFlagLocked) != 0 {
			return mismatchf("dec slot %d flags %#x", slot, fl)
		}
		e := decEntry{validBits: make([]bool, nodes)}
		if fl&decFlagValid == 0 {
			if fl != 0 || pat != 0 || dt != 0 || freq != 0 || idle != 0 {
				return mismatchf("dec slot %d invalid but nonzero", slot)
			}
			for _, b := range packed {
				if b != 0 {
					return mismatchf("dec slot %d invalid but mapped", slot)
				}
			}
			st.dec[slot] = e
			continue
		}
		if dt > uint8(value.Float32) {
			return mismatchf("dec slot %d dtype %d", slot, dt)
		}
		for j := nodes; j < vbBytes*8; j++ {
			if packed[j/8]&(1<<uint(j%8)) != 0 {
				return mismatchf("dec slot %d padding bits set", slot)
			}
		}
		e.valid = true
		e.locked = fl&decFlagLocked != 0
		e.pattern = pat
		e.dtype = value.DataType(dt)
		e.freq = freq
		for j := 0; j < nodes; j++ {
			e.validBits[j] = packed[j/8]&(1<<uint(j%8)) != 0
		}
		st.dec[slot] = e
		st.idle[slot] = idle
	}

	// Candidate tracker.
	nCand := r.u32()
	if r.err == nil && int(nCand) > d.cfg.CandidateCap {
		return mismatchf("candidate count %d over cap %d", nCand, d.cfg.CandidateCap)
	}
	if r.err != nil {
		return r.err
	}
	for i := 0; i < int(nCand); i++ {
		pat := r.u32()
		dt := r.u8()
		count := r.u64()
		if r.err != nil {
			return r.err
		}
		if dt > uint8(value.Float32) {
			return mismatchf("candidate %d dtype %d", i, dt)
		}
		if count == 0 || count > uint64(math.MaxInt32) {
			return mismatchf("candidate %d count %d", i, count)
		}
		st.candPats = append(st.candPats, pat)
		st.candDts = append(st.candDts, value.DataType(dt))
		st.candCount = append(st.candCount, int(count))
	}

	// Pending installs.
	nPend := r.u32()
	if r.err == nil && int(nPend) > d.cfg.PendingCap {
		return mismatchf("pending count %d over cap %d", nPend, d.cfg.PendingCap)
	}
	if r.err != nil {
		return r.err
	}
	seenSlot := make(map[int]bool)
	for i := 0; i < int(nPend); i++ {
		slot := r.u32()
		gc := r.u8()
		pat := r.u32()
		dt := r.u8()
		req := r.u32()
		nAwait := r.u32()
		if r.err != nil {
			return r.err
		}
		if int(slot) >= entries {
			return mismatchf("pending %d slot %d out of range", i, slot)
		}
		if seenSlot[int(slot)] {
			return mismatchf("pending %d duplicates slot %d", i, slot)
		}
		seenSlot[int(slot)] = true
		if !st.dec[slot].valid || !st.dec[slot].locked {
			return mismatchf("pending %d slot %d not locked", i, slot)
		}
		if gc > 1 {
			return mismatchf("pending %d gc flag %d", i, gc)
		}
		if gc == 1 && (pat != 0 || dt != 0 || req != 0) {
			return mismatchf("pending %d gc but carries install", i)
		}
		if gc == 0 && (dt > uint8(value.Float32) || int(req) >= nodes) {
			return mismatchf("pending %d bad install fields", i)
		}
		if int(nAwait) == 0 || int(nAwait) > nodes {
			return mismatchf("pending %d awaits %d encoders", i, nAwait)
		}
		awaiting := make(map[int]bool, nAwait)
		prev := -1
		for j := 0; j < int(nAwait); j++ {
			id := r.u32()
			if r.err != nil {
				return r.err
			}
			if int(id) >= nodes || int(id) <= prev {
				return mismatchf("pending %d await id %d out of order", i, id)
			}
			prev = int(id)
			awaiting[int(id)] = true
		}
		st.pending = append(st.pending, pendingInstall{
			slot: int(slot), pattern: pat, dtype: value.DataType(dt),
			requester: int(req), awaiting: awaiting, gc: gc == 1,
		})
	}

	// Window budget position.
	if bk == snapBudgetWindowed {
		st.spent = r.f64()
		st.seen = int(r.u32())
	}

	// Operation counters.
	s := &st.stats
	s.BlocksIn = r.u64()
	s.WordsIn = r.u64()
	s.WordsExact = r.u64()
	s.WordsApprox = r.u64()
	s.WordsRaw = r.u64()
	s.BitsIn = r.u64()
	s.BitsOut = r.u64()
	s.SumRelError = r.f64()
	s.BlocksDecoded = r.u64()
	s.WordsDecoded = r.u64()
	s.CamSearches = r.u64()
	s.TcamSearches = r.u64()
	s.TableWrites = r.u64()
	s.NotificationsSent = r.u64()
	s.NotificationsRecv = r.u64()
	s.EncodeOps = r.u64()
	s.DecodeOps = r.u64()
	s.AVCLMaskHits = r.u64()
	s.AVCLClips = r.u64()
	s.AVCLBypasses = r.u64()
	s.GCEpochs = r.u64()
	s.GCAgeEvictions = r.u64()
	s.GCPressureEvictions = r.u64()
	s.GCBlockedReclaims = r.u64()
	st.decodeMismatch = r.u64()
	st.blockedPromotes = r.u64()
	if r.err != nil {
		return r.err
	}
	if math.IsNaN(s.SumRelError) || math.IsInf(s.SumRelError, 0) || s.SumRelError < 0 {
		return mismatchf("bad error sum %g", s.SumRelError)
	}

	if d.avcl != nil {
		st.avclStats = avclStats{
			rangeComputes: r.u64(), bypasses: r.u64(), maskHits: r.u64(), clips: r.u64(),
		}
	}
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return mismatchf("%d trailing bytes", len(r.b))
	}

	// Commit. The window restore is the only fallible step, so it runs
	// first; everything after cannot fail, keeping the commit atomic.
	if bk == snapBudgetWindowed {
		if err := d.budget.(*quality.Window).Restore(st.spent, st.seen); err != nil {
			return fmt.Errorf("%w: %v", ErrSnapshotMismatch, err)
		}
	}
	if d.tc != nil {
		for i, sl := range st.tcamSlots {
			d.tc.RestoreSlot(i, sl.ent, sl.freq, sl.valid)
		}
		d.tc.RestoreStats(st.encStats)
	} else {
		for i, sl := range st.camSlots {
			d.cam.RestoreSlot(i, sl.pattern, sl.freq, sl.valid)
		}
		d.cam.RestoreStats(st.encStats)
	}
	d.encDest = st.encDest
	d.dec = st.dec
	for slot := range d.dec {
		d.refreshLive(slot)
	}
	d.idle = st.idle
	d.cands.keys = d.cands.keys[:0]
	for i := range st.candPats {
		d.cands.keys = append(d.cands.keys, candKey(st.candPats[i], st.candDts[i]))
	}
	d.cands.count = st.candCount
	d.cands.victim = -1 // cache is derived state; recomputed on demand
	d.pending = st.pending
	d.stats = st.stats
	d.decodeMismatch = st.decodeMismatch
	d.blockedPromotes = st.blockedPromotes
	d.gen = st.gen
	if d.avcl != nil {
		d.avcl.RestoreStats(approx.Stats{
			RangeComputes: st.avclStats.rangeComputes,
			Bypasses:      st.avclStats.bypasses,
			MaskHits:      st.avclStats.maskHits,
			Clips:         st.avclStats.clips,
		})
	}
	return nil
}

// snapGenOffset is where the generation counter sits in the v1 header:
// after the magic, version, scheme, flags, and seven u32 shape fields.
const snapGenOffset = len(snapMagic) + 2 + 1 + 1 + 7*4

// SnapshotGeneration peeks the generation counter out of a snapshot
// image without restoring it, so replication layers can decide
// stale-vs-fresh for a whole codec group atomically before committing
// any member. Only the magic and version are validated; a later
// Unmarshal may still reject the body.
func SnapshotGeneration(data []byte) (uint64, error) {
	if len(data) < snapGenOffset+8 || string(data[:len(snapMagic)]) != snapMagic {
		return 0, fmt.Errorf("%w: no snapshot header", ErrSnapshotMismatch)
	}
	if v := binary.BigEndian.Uint16(data[len(snapMagic):]); v != snapVersion {
		return 0, fmt.Errorf("%w: unsupported snapshot version %d", ErrSnapshotMismatch, v)
	}
	return binary.BigEndian.Uint64(data[snapGenOffset:]), nil
}

// AsDictSnapshotter returns the snapshot interface behind c, looking
// through wrappers (e.g. Adaptive) that expose Unwrap.
func AsDictSnapshotter(c Codec) (DictSnapshotter, bool) {
	for c != nil {
		if s, ok := c.(DictSnapshotter); ok {
			return s, true
		}
		u, ok := c.(interface{ Unwrap() Codec })
		if !ok {
			return nil, false
		}
		c = u.Unwrap()
	}
	return nil, false
}

// AsDictIntrospector returns the introspection interface behind c,
// looking through wrappers that expose Unwrap.
func AsDictIntrospector(c Codec) (DictIntrospector, bool) {
	for c != nil {
		if s, ok := c.(DictIntrospector); ok {
			return s, true
		}
		u, ok := c.(interface{ Unwrap() Codec })
		if !ok {
			return nil, false
		}
		c = u.Unwrap()
	}
	return nil, false
}
