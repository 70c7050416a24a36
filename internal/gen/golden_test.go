package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"gcbench/internal/graph"
)

// csrDigest hashes every CSR array of g — outOff/outAdj/outW and
// inOff/inAdj/inArc, read through OutArcRange/ArcTarget/ArcWeight and
// InCSR — so any change to arc order, weights or the transpose
// cross-index changes the digest.
func csrDigest(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(g.NumVertices()))
	put(uint64(g.NumEdges()))
	put(uint64(g.NumArcs()))
	in := g.InCSR()
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		lo, hi := g.OutArcRange(v)
		put(uint64(lo))
		put(uint64(hi))
		for a := lo; a < hi; a++ {
			put(uint64(g.ArcTarget(a)))
			put(math.Float64bits(g.ArcWeight(a)))
		}
		lo, hi = in.Off[v], in.Off[v+1]
		put(uint64(lo))
		put(uint64(hi))
		for a := lo; a < hi; a++ {
			put(uint64(in.Adj[a]))
			if in.Arc == nil { // undirected: in-arc a is out-arc a
				put(uint64(a))
			} else {
				put(uint64(in.Arc[a]))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorGolden pins the generators' output array for array. The
// digests were recorded at commit 68d2ffd, before graph.Builder's
// construction went from comparison sorts to counting sorts; a mismatch
// means a generated graph — and with it every behavior vector measured on
// it — is no longer the one the committed corpora were measured on.
func TestGeneratorGolden(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*graph.Graph, error)
		want  string
	}{
		{"PowerLaw/undirected-sorted", func() (*graph.Graph, error) {
			return PowerLaw(PowerLawConfig{NumEdges: 20000, Alpha: 2.25, Seed: 7, SortAdjacency: true})
		}, "0f919a9c5b0a1f7118cf1883bed7a3fb2c5b5b9ccbf5dcd15e234ea648356e33"},
		{"PowerLaw/directed-weighted", func() (*graph.Graph, error) {
			return PowerLaw(PowerLawConfig{NumEdges: 20000, Alpha: 2.75, Seed: 8, Directed: true, Weighted: true})
		}, "be544e44b4f23114bb4549a4542c3442a1a28c9a11222893beee77ee96430a22"},
		{"PowerLaw/undirected-weighted", func() (*graph.Graph, error) {
			return PowerLaw(PowerLawConfig{NumEdges: 5000, Alpha: 2.0, Seed: 9, Weighted: true})
		}, "89d73064086e9ff9c96cf1f26c5d3adbb67b463b2d8962ec6b5161bbc69ccb46"},
		{"Bipartite", func() (*graph.Graph, error) {
			g, _, err := Bipartite(BipartiteConfig{NumEdges: 20000, Alpha: 2.5, Seed: 10})
			return g, err
		}, "71f02896838656057807b10399fc389d776d4a40100ee7fe80ad1770bcbe52e4"},
	}
	for _, tc := range cases {
		g, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := csrDigest(g); got != tc.want {
			t.Errorf("%s: CSR digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
