package noc_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"approxnoc/internal/vectors"
)

// TestGoldenVectors pins the simulator's results: NetStats (latency
// histogram included), PowerEvents and codec OpStats over the netstats
// grid of router configurations, injection patterns and VAXX schemes
// must regenerate identically. Router and NI optimizations are meant to
// be bit-identical, so any diff here is a behaviour change; if it is
// intended, regenerate with `go run ./cmd/approxnoc-vectors`.
func TestGoldenVectors(t *testing.T) {
	want, err := vectors.Generate("netstats", vectors.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("testdata", "golden_netstats.txt"))
	if err != nil {
		t.Fatalf("%v (run: go run ./cmd/approxnoc-vectors)", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("golden_netstats.txt does not match the current simulator output; " +
			"if the behaviour change is intended, run: go run ./cmd/approxnoc-vectors")
	}
}
