// Package vectors generates the checked-in golden test vectors: known
// inputs run through the production codecs, approximator, and wire
// protocol, with the resulting bits captured as text. The same library
// backs the cmd/approxnoc-vectors generator and the per-package golden
// tests, so "regenerate" and "verify" can never drift apart.
//
// Generation is fully deterministic: a splitmix64 stream seeded with
// DefaultSeed (no dependence on math/rand stream stability, map
// iteration order, or time), so the files regenerate byte-identically
// on any platform.
package vectors

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
)

// DefaultSeed is the seed the checked-in vectors were generated with.
const DefaultSeed uint64 = 0x4150505258014e6f

// rng is splitmix64: tiny, seedable, and stable across Go releases.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) uint32() uint32 { return uint32(r.next() >> 32) }

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// suiteRNG is the stream a suite draws from for a generation seed.
func suiteRNG(name string, seed uint64) *rng {
	return &rng{s: seed ^ uint64(len(name))<<56}
}

// Suite names one golden file and how to produce it.
type Suite struct {
	Name string // short id, e.g. "fpc"
	Path string // repo-relative target file
	gen  func(w *bytes.Buffer, r *rng)
}

// Suites lists every golden file, in generation order.
var Suites = []Suite{
	{Name: "fpc", Path: "internal/compress/testdata/golden_fpc.txt", gen: genFPC},
	{Name: "bdi", Path: "internal/compress/testdata/golden_bdi.txt", gen: genBDI},
	{Name: "dict", Path: "internal/compress/testdata/golden_dict.txt", gen: genDict},
	{Name: "dictsnap", Path: "internal/compress/testdata/golden_dictsnap.txt", gen: genDictSnap},
	{Name: "masks", Path: "internal/approx/testdata/golden_masks.txt", gen: genMasks},
	{Name: "frames", Path: "internal/serve/testdata/golden_frames.txt", gen: genFrames},
	{Name: "metrics", Path: "internal/obs/testdata/golden_metrics.txt", gen: genMetrics},
	{Name: "netstats", Path: "internal/noc/testdata/golden_netstats.txt", gen: genNetstats},
}

// Generate produces the contents of one golden file.
func Generate(name string, seed uint64) ([]byte, error) {
	for _, s := range Suites {
		if s.Name != name {
			continue
		}
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "# golden %s vectors, seed %#x\n", s.Name, seed)
		fmt.Fprintf(&buf, "# regenerate: go run ./cmd/approxnoc-vectors (verify: -check)\n")
		s.gen(&buf, suiteRNG(s.Name, seed))
		return buf.Bytes(), nil
	}
	return nil, fmt.Errorf("vectors: unknown suite %q", name)
}

// WriteAll regenerates every golden file under root.
func WriteAll(root string, seed uint64) error {
	for _, s := range Suites {
		data, err := Generate(s.Name, seed)
		if err != nil {
			return err
		}
		path := filepath.Join(root, filepath.FromSlash(s.Path))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// VerifyAll regenerates every suite in memory and compares it with the
// file on disk, returning the repo-relative paths that differ.
func VerifyAll(root string, seed uint64) ([]string, error) {
	var bad []string
	for _, s := range Suites {
		want, err := Generate(s.Name, seed)
		if err != nil {
			return nil, err
		}
		got, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(s.Path)))
		if err != nil || !bytes.Equal(got, want) {
			bad = append(bad, s.Path)
		}
	}
	return bad, nil
}
