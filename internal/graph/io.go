package graph

import (
	"bufio"
	"fmt"
	"io"
)

// WriteEdgeList writes the graph as a whitespace-separated edge list:
// a header line "# gcbench n=<vertices> directed=<bool> weighted=<bool>"
// followed by one "src dst [weight]" line per logical edge. Undirected
// edges are written once, with src ≤ dst.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# gcbench n=%d directed=%t weighted=%t\n",
		g.NumVertices(), g.Directed(), g.Weighted()); err != nil {
		return err
	}
	for u := uint32(0); int(u) < g.NumVertices(); u++ {
		lo, hi := g.OutArcRange(u)
		for a := lo; a < hi; a++ {
			v := g.ArcTarget(a)
			if !g.Directed() && v < u {
				continue // emit each undirected edge once
			}
			if g.Weighted() {
				if _, err := fmt.Fprintf(bw, "%d %d %g\n", u, v, g.ArcWeight(a)); err != nil {
					return err
				}
			} else {
				if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}
