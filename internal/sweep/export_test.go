package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gcbench/internal/behavior"
)

func TestExportSuite(t *testing.T) {
	dir := t.TempDir()
	members := []*behavior.Run{
		{Algorithm: "TC", Domain: "Graph Analytics", NumEdges: 300, Alpha: 2.5, SizeLabel: "300"},
		{Algorithm: "ALS", Domain: "Collaborative Filtering", NumEdges: 200, Alpha: 2.0, SizeLabel: "200"},
		{Algorithm: "DD", Domain: "Graphical Model", NumEdges: 80, SizeLabel: "80"},
		{Algorithm: "LBP", Domain: "Graphical Model", NumEdges: 100, SizeLabel: "100"},
		{Algorithm: "Jacobi", Domain: "Linear Solver", NumEdges: 800, SizeLabel: "100"},
	}
	if err := ExportSuite(dir, members, nil); err != nil {
		t.Fatal(err)
	}

	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"TC", "ALS", "DD", "LBP", "Jacobi"} {
		if !strings.Contains(string(manifest), alg) {
			t.Fatalf("manifest missing %s:\n%s", alg, manifest)
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 { // 5 workloads + manifest
		t.Fatalf("exported %d files, want 6", len(entries))
	}

	// Each workload file opens with its format's header and holds every
	// edge of the workload generate builds for its member.
	for i, r := range members {
		name := fmt.Sprintf("%02d-%s-%s", i, r.Algorithm, r.SizeLabel)
		t.Run(name, func(t *testing.T) {
			w, err := generate(memberSpec(r, uint64(i+1)))
			if err != nil {
				t.Fatal(err)
			}
			if w.MRF != nil {
				lines := readLines(t, filepath.Join(dir, name+".uai"))
				n := w.MRF.G.NumVertices()
				// MARKOV, n, the n cardinalities, then n unary factors and one
				// pairwise factor per edge.
				if lines[0] != "MARKOV" || lines[1] != strconv.Itoa(n) {
					t.Fatalf("%s.uai: header %q, want MARKOV and %d variables", name, lines[:2], n)
				}
				if got, want := lines[3], strconv.FormatInt(int64(n)+w.MRF.G.NumEdges(), 10); got != want {
					t.Fatalf("%s.uai: %s factors, want %s", name, got, want)
				}
				return
			}
			g := w.Graph
			if w.System != nil {
				g = w.System.G
			} else if w.Ratings != nil {
				g = w.Ratings
			}
			lines := readLines(t, filepath.Join(dir, name+".el"))
			if want := fmt.Sprintf("# gcbench n=%d directed=%t weighted=%t", g.NumVertices(), g.Directed(), g.Weighted()); lines[0] != want {
				t.Fatalf("%s.el: header %q, want %q", name, lines[0], want)
			}
			if got := int64(len(lines) - 1); got != g.NumEdges() {
				t.Fatalf("%s.el: %d edges, want %d", name, got, g.NumEdges())
			}
		})
	}

	// The whole suite, byte for byte: file names and contents in name order.
	h := sha256.New()
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(b))
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != exportSuiteSHA256 {
		t.Fatalf("suite digest %s, want %s", got, exportSuiteSHA256)
	}
}

// exportSuiteSHA256 pins TestExportSuite's five files and manifest.
const exportSuiteSHA256 = "c1769bf3b506809e6a053106c4b530ce3b8bbfad8760517f04de731d119dca2f"

func readLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
}

func TestExportSuiteCustomSeeds(t *testing.T) {
	dir := t.TempDir()
	members := []*behavior.Run{
		{Algorithm: "CC", Domain: "Graph Analytics", NumEdges: 200, Alpha: 2.5, SizeLabel: "200"},
	}
	called := false
	err := ExportSuite(dir, members, func(r *behavior.Run) uint64 {
		called = true
		return 99
	})
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("seed function not consulted")
	}
}
