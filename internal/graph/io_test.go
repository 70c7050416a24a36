package graph

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gcbench/internal/rng"
)

// TestWriteEdgeListBytes pins the edge-list writer on one graph of each
// kind: an undirected edge is written once with src ≤ dst, a directed
// arc as stored, and a weight with %g.
func TestWriteEdgeListBytes(t *testing.T) {
	und := NewBuilder(5, false)
	und.AddEdge(1, 0)
	und.AddEdge(1, 2)
	und.AddEdge(4, 3)
	dir := NewBuilder(4, true).Weighted()
	dir.AddWeightedEdge(0, 1, 0.5)
	dir.AddWeightedEdge(2, 1, 1.25)
	dir.AddWeightedEdge(3, 0, -2)
	dir.AddWeightedEdge(1, 3, 1e-07)
	undW := NewBuilder(3, false).Weighted()
	undW.AddWeightedEdge(2, 0, 3.5)
	undW.AddWeightedEdge(1, 2, 0.125)
	dirU := NewBuilder(3, true)
	dirU.AddEdge(2, 0)
	dirU.AddEdge(0, 2)
	dirU.AddEdge(1, 0)
	loops := NewBuilder(3, false)
	loops.AddEdge(1, 1)
	loops.AddEdge(2, 1)
	cases := []struct {
		name string
		b    *Builder
		want string
	}{
		{"undirected-unweighted", und,
			"# gcbench n=5 directed=false weighted=false\n0 1\n1 2\n3 4\n"},
		{"directed-weighted", dir,
			"# gcbench n=4 directed=true weighted=true\n0 1 0.5\n1 3 1e-07\n2 1 1.25\n3 0 -2\n"},
		{"undirected-weighted", undW,
			"# gcbench n=3 directed=false weighted=true\n0 2 3.5\n1 2 0.125\n"},
		// Both arcs of a directed 2-cycle are written, each as stored.
		{"directed-unweighted", dirU,
			"# gcbench n=3 directed=true weighted=false\n0 2\n1 0\n2 0\n"},
		// Isolated vertices show only in the header's n.
		{"no-edges", NewBuilder(4, false),
			"# gcbench n=4 directed=false weighted=false\n"},
		// The builder drops self-loops, so the writer never sees one.
		{"self-loop-dropped", loops,
			"# gcbench n=3 directed=false weighted=false\n1 2\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteEdgeList(&buf, mustBuild(t, tc.b)); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != tc.want {
				t.Errorf("wrote\n%q\nwant\n%q", got, tc.want)
			}
		})
	}
}

// TestWriteEdgeListProperty checks the writer against the graph it was
// given on random graphs of each kind: the header states the graph's
// shape, there is one line per logical edge, an undirected edge has
// src ≤ dst, and the lines hold exactly the graph's arcs (both arcs of
// each undirected edge) with their weights.
func TestWriteEdgeListProperty(t *testing.T) {
	for _, kind := range []struct {
		directed, weighted bool
	}{{false, false}, {false, true}, {true, false}, {true, true}} {
		t.Run(fmt.Sprintf("directed=%t,weighted=%t", kind.directed, kind.weighted), func(t *testing.T) {
			r := rng.New(7)
			for trial := 0; trial < 30; trial++ {
				n := 1 + r.Intn(20)
				b := NewBuilder(n, kind.directed)
				if kind.weighted {
					b.Weighted()
				}
				for e := r.Intn(3 * n); e > 0; e-- {
					u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
					if kind.weighted {
						b.AddWeightedEdge(u, v, float64(r.Intn(1000))/8)
					} else {
						b.AddEdge(u, v)
					}
				}
				g := mustBuild(t, b)
				var buf bytes.Buffer
				if err := WriteEdgeList(&buf, g); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
				if want := fmt.Sprintf("# gcbench n=%d directed=%t weighted=%t", n, kind.directed, kind.weighted); lines[0] != want {
					t.Fatalf("trial %d: header %q, want %q", trial, lines[0], want)
				}
				if got := int64(len(lines) - 1); got != g.NumEdges() {
					t.Fatalf("trial %d: %d edge lines, want %d", trial, got, g.NumEdges())
				}
				var written, arcs []string
				for _, line := range lines[1:] {
					f := strings.Fields(line)
					want := 2
					if kind.weighted {
						want = 3
					}
					if len(f) != want {
						t.Fatalf("trial %d: line %q has %d fields, want %d", trial, line, len(f), want)
					}
					u, errU := strconv.Atoi(f[0])
					v, errV := strconv.Atoi(f[1])
					if errU != nil || errV != nil || u < 0 || u >= n || v < 0 || v >= n {
						t.Fatalf("trial %d: line %q names no edge of a %d-vertex graph", trial, line, n)
					}
					w := ""
					if kind.weighted {
						w = f[2]
					}
					written = append(written, fmt.Sprintf("%d %d %s", u, v, w))
					if !kind.directed {
						if u > v {
							t.Fatalf("trial %d: undirected line %q has src > dst", trial, line)
						}
						written = append(written, fmt.Sprintf("%d %d %s", v, u, w))
					}
				}
				for u := uint32(0); int(u) < n; u++ {
					lo, hi := g.OutArcRange(u)
					for a := lo; a < hi; a++ {
						w := ""
						if kind.weighted {
							w = strconv.FormatFloat(g.ArcWeight(a), 'g', -1, 64)
						}
						arcs = append(arcs, fmt.Sprintf("%d %d %s", u, g.ArcTarget(a), w))
					}
				}
				sort.Strings(written)
				sort.Strings(arcs)
				if strings.Join(written, "\n") != strings.Join(arcs, "\n") {
					t.Fatalf("trial %d: written arcs\n%v\nwant the graph's\n%v", trial, written, arcs)
				}
			}
		})
	}
}

// failWriter fails every write, as a full disk or a closed pipe would.
type failWriter struct{}

var errWrite = errors.New("write failed")

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

func TestWriteEdgeListReturnsWriteError(t *testing.T) {
	b := NewBuilder(3, false)
	b.AddEdge(0, 1)
	if err := WriteEdgeList(failWriter{}, mustBuild(t, b)); !errors.Is(err, errWrite) {
		t.Fatalf("WriteEdgeList to a failing writer = %v, want %v", err, errWrite)
	}
}
