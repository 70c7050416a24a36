// Command graphgen generates the study's synthetic workloads as files:
// power-law, R-MAT and Erdős–Rényi edge lists, bipartite rating graphs,
// and UAI MRFs for the graphical-model algorithms.
//
//	graphgen -kind powerlaw -edges 100000 -alpha 2.5 -out g.el
//	graphgen -kind bipartite -edges 50000 -alpha 2.2 -out ratings.el
//	graphgen -kind mrf -edges 1056 -out pic.uai
//	graphgen -kind grid -rows 100 -out grid.uai
package main

import (
	"flag"
	"fmt"
	"os"

	"gcbench/internal/gen"
	"gcbench/internal/graph"
)

var (
	kind  = flag.String("kind", "powerlaw", "powerlaw | bipartite | mrf | grid | rmat | er")
	scale = flag.Int("scale", 14, "log2 vertex count (rmat)")
	verts = flag.Int("vertices", 10000, "vertex count (er)")
	edges = flag.Int64("edges", 100000, "target edge count (powerlaw, bipartite, mrf)")
	alpha = flag.Float64("alpha", 2.5, "power-law exponent")
	rows  = flag.Int("rows", 100, "grid side (grid)")
	seed  = flag.Uint64("seed", 1, "random seed")
	out   = flag.String("out", "", "output path (default stdout)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *kind {
	case "powerlaw":
		g, err := gen.PowerLaw(gen.PowerLawConfig{
			NumEdges: *edges, Alpha: *alpha, Seed: *seed, SortAdjacency: true,
		})
		if err != nil {
			return err
		}
		return graph.WriteEdgeList(w, g)
	case "bipartite":
		g, users, err := gen.Bipartite(gen.BipartiteConfig{
			NumEdges: *edges, Alpha: *alpha, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "users: %d (vertices [0,%d) are users, rest items)\n", users, users)
		return graph.WriteEdgeList(w, g)
	case "mrf":
		m, err := gen.MRF(gen.MRFConfig{NumEdges: *edges, Seed: *seed})
		if err != nil {
			return err
		}
		return graph.WriteUAI(w, m)
	case "grid":
		m, err := gen.Grid(gen.GridConfig{Rows: *rows, Seed: *seed})
		if err != nil {
			return err
		}
		return graph.WriteUAI(w, m)
	case "rmat":
		g, err := gen.RMAT(gen.RMATConfig{
			Scale: *scale, NumEdges: *edges, Seed: *seed, SortAdjacency: true,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "degree CV: %.2f\n", gen.DegreeCV(g))
		return graph.WriteEdgeList(w, g)
	case "er":
		g, err := gen.ErdosRenyi(gen.ErdosRenyiConfig{
			NumVertices: *verts, NumEdges: *edges, Seed: *seed, SortAdjacency: true,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "degree CV: %.2f\n", gen.DegreeCV(g))
		return graph.WriteEdgeList(w, g)
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
}
