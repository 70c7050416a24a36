package sweep

import (
	"fmt"
	"os"
	"path/filepath"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
	"gcbench/internal/graph"
)

// ExportSuite materializes a designed benchmark suite to disk: for each
// selected run, the workload file that reproduces it (edge list or UAI
// MRF) plus a MANIFEST.txt describing the members — so an ensemble chosen
// for spread/coverage can be carried to any graph-processing system, the
// end goal of the paper's methodology.
func ExportSuite(dir string, runs []*behavior.Run) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	manifest, err := os.Create(filepath.Join(dir, "MANIFEST.txt"))
	if err != nil {
		return err
	}
	defer manifest.Close()
	fmt.Fprintln(manifest, "# gcbench benchmark suite")
	fmt.Fprintln(manifest, "# member  algorithm  size  alpha  workload-file")

	for i, r := range runs {
		name, err := exportWorkload(dir, i, r)
		if err != nil {
			return fmt.Errorf("sweep: exporting %s: %w", r.ID(), err)
		}
		fmt.Fprintf(manifest, "%d  %s  %s  %.2f  %s\n", i, r.Algorithm, r.SizeLabel, r.Alpha, name)
	}
	return manifest.Close()
}

// exportWorkload writes member i's input file and returns its name: the
// workload generate builds for the run's structure with seed i+1, with
// the matrix and grid dimensions recovered from the run's realized edge
// count.
func exportWorkload(dir string, i int, r *behavior.Run) (string, error) {
	w, err := generate(memberSpec(r, uint64(i+1)))
	if err != nil {
		return "", err
	}
	base := fmt.Sprintf("%02d-%s-%s", i, r.Algorithm, r.SizeLabel)
	switch {
	case w.MRF != nil:
		return base + ".uai", writeUAIFile(dir, base+".uai", w.MRF)
	case w.System != nil:
		return base + ".el", writeEdgeFile(dir, base+".el", w.System.G)
	case w.Ratings != nil:
		return base + ".el", writeEdgeFile(dir, base+".el", w.Ratings)
	default:
		return base + ".el", writeEdgeFile(dir, base+".el", w.Graph)
	}
}

// memberSpec is the spec exportWorkload generates a member's input from.
func memberSpec(r *behavior.Run, seed uint64) Spec {
	spec := Spec{Algorithm: algorithms.Name(r.Algorithm), NumEdges: r.NumEdges, Alpha: r.Alpha, Seed: seed}
	switch spec.Algorithm.Family() {
	case algorithms.FamilyLBP:
		spec.NumRows = max(intSqrt(int(r.NumEdges)), 2)
	case algorithms.FamilyJacobi:
		spec.NumRows = int(r.NumEdges) / 8
	}
	return spec
}

func writeEdgeFile(dir, name string, g *graph.Graph) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := graph.WriteEdgeList(f, g); err != nil {
		return err
	}
	return f.Close()
}

func writeUAIFile(dir, name string, m *graph.MRF) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := graph.WriteUAI(f, m); err != nil {
		return err
	}
	return f.Close()
}

func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
