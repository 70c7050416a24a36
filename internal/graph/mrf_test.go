package graph

import (
	"bytes"
	"errors"
	"testing"
)

// triangleMRF builds a 3-variable pairwise MRF on a triangle for tests.
func triangleMRF(t *testing.T) *MRF {
	t.Helper()
	b := NewBuilder(3, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	g := mustBuild(t, b)

	card := []int{2, 2, 3}
	unary := [][]float64{{0.4, 0.6}, {0.5, 0.5}, {0.2, 0.3, 0.5}}
	// Edge scan order from vertex 0: (0,1), (0,2), then (1,2).
	pairwise := [][]float64{
		{1, 2, 3, 4},       // 0-1: 2×2
		{1, 2, 3, 4, 5, 6}, // 0-2: 2×3
		{6, 5, 4, 3, 2, 1}, // 1-2: 2×3
	}
	m, err := NewMRF(g, card, unary, pairwise)
	if err != nil {
		t.Fatalf("NewMRF: %v", err)
	}
	return m
}

func TestMRFArcEdgeConsistency(t *testing.T) {
	m := triangleMRF(t)
	g := m.G
	// Both arcs of each edge must map to the same logical edge index.
	for u := uint32(0); int(u) < g.NumVertices(); u++ {
		lo, hi := g.OutArcRange(u)
		for a := lo; a < hi; a++ {
			v := g.ArcTarget(a)
			e := m.arcEdge[a]
			// Find the reverse arc.
			rlo, rhi := g.OutArcRange(v)
			found := false
			for ra := rlo; ra < rhi; ra++ {
				if g.ArcTarget(ra) == u && m.arcEdge[ra] == e {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d-%d: reverse arc maps to a different edge index", u, v)
			}
		}
	}
}

func TestMRFPairwiseForOrientation(t *testing.T) {
	m := triangleMRF(t)
	g := m.G
	// For the 0-2 edge (2×3 table {1..6}), φ(x0=1, x2=2) = 6 regardless of
	// which endpoint's arc we query through.
	lo, hi := g.OutArcRange(0)
	for a := lo; a < hi; a++ {
		if g.ArcTarget(a) == 2 {
			if got := m.PairwiseFor(a, 0, 1, 2); got != 6 {
				t.Fatalf("PairwiseFor from 0: got %v, want 6", got)
			}
		}
	}
	lo, hi = g.OutArcRange(2)
	for a := lo; a < hi; a++ {
		if g.ArcTarget(a) == 0 {
			// From vertex 2's perspective xu=x2=2, xv=x0=1.
			if got := m.PairwiseFor(a, 2, 2, 1); got != 6 {
				t.Fatalf("PairwiseFor from 2: got %v, want 6", got)
			}
		}
	}
}

func TestMRFValidation(t *testing.T) {
	b := NewBuilder(2, false)
	b.AddEdge(0, 1)
	g := mustBuild(t, b)

	if _, err := NewMRF(g, []int{2}, nil, nil); err == nil {
		t.Fatal("wrong cardinality count accepted")
	}
	if _, err := NewMRF(g, []int{2, 0}, [][]float64{{1, 1}, {}}, [][]float64{{1, 1, 1, 1}}); err == nil {
		t.Fatal("zero cardinality accepted")
	}
	if _, err := NewMRF(g, []int{2, 2}, [][]float64{{1, 1}, {1}}, [][]float64{{1, 1, 1, 1}}); err == nil {
		t.Fatal("wrong unary size accepted")
	}
	if _, err := NewMRF(g, []int{2, 2}, [][]float64{{1, 1}, {1, 1}}, [][]float64{{1, 1}}); err == nil {
		t.Fatal("wrong pairwise size accepted")
	}
	bd := NewBuilder(2, true)
	bd.AddEdge(0, 1)
	gd := mustBuild(t, bd)
	if _, err := NewMRF(gd, []int{2, 2}, [][]float64{{1, 1}, {1, 1}}, [][]float64{{1, 1, 1, 1}}); err == nil {
		t.Fatal("directed graph accepted")
	}
}

// TestWriteUAIBytes pins the UAI writer: unary factors first, then one
// pairwise factor per edge in edge-index order with its (lo, hi) scope,
// every table printed with %g.
func TestWriteUAIBytes(t *testing.T) {
	cases := []struct {
		name string
		mrf  func(t *testing.T) *MRF
		want string
	}{
		{"two-variable", func(t *testing.T) *MRF {
			b := NewBuilder(2, false)
			b.AddEdge(1, 0)
			m, err := NewMRF(mustBuild(t, b), []int{2, 3},
				[][]float64{{0.25, 0.75}, {1, 1e-05, 3}},
				[][]float64{{1, 2, 3, 4.5, 5, 6e+21}})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, "MARKOV\n2\n2 3\n3\n1 0\n1 1\n2 0 1\n\n" +
			"2\n0.25 0.75\n3\n1 1e-05 3\n6\n1 2 3 4.5 5 6e+21\n"},
		{"triangle", triangleMRF,
			"MARKOV\n3\n2 2 3\n6\n1 0\n1 1\n1 2\n2 0 1\n2 0 2\n2 1 2\n\n" +
				"2\n0.4 0.6\n2\n0.5 0.5\n3\n0.2 0.3 0.5\n" +
				"4\n1 2 3 4\n6\n1 2 3 4 5 6\n6\n6 5 4 3 2 1\n"},
		// A variable on no edge keeps its unary factor; a single-state
		// variable has a one-entry table.
		{"isolated-variable", func(t *testing.T) *MRF {
			b := NewBuilder(3, false)
			b.AddEdge(2, 1)
			m, err := NewMRF(mustBuild(t, b), []int{1, 2, 2},
				[][]float64{{1}, {0.5, 0.5}, {2, 3}},
				[][]float64{{1, 2, 3, 4}})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, "MARKOV\n3\n1 2 2\n4\n1 0\n1 1\n1 2\n2 1 2\n\n" +
			"1\n1\n2\n0.5 0.5\n2\n2 3\n4\n1 2 3 4\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteUAI(&buf, tc.mrf(t)); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != tc.want {
				t.Fatalf("WriteUAI wrote\n%q\nwant\n%q", got, tc.want)
			}
		})
	}
}

func TestWriteUAIReturnsWriteError(t *testing.T) {
	if err := WriteUAI(failWriter{}, triangleMRF(t)); !errors.Is(err, errWrite) {
		t.Fatalf("WriteUAI to a failing writer = %v, want %v", err, errWrite)
	}
}
