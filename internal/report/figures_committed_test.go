package report

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"gcbench/internal/sweep"
)

var allFigures = flag.Bool("allfigures", false,
	"TestFiguresMatchCommitted also renders Figures 15, 17, 19, 21 and 23 (≈ 4 min)")

// slowFigures are the coverage figures at the paper's 10⁶ samples; each
// takes about two minutes, so only -allfigures renders them.
var slowFigures = map[string]bool{"15": true, "17": true, "19": true, "21": true, "23": true}

// TestFiguresMatchCommitted renders every figure from the committed
// standard corpus with the CLI's defaults and compares both formats to
// that figure's section of results/figures-standard.{txt,csv}, which are
// `gcbench figures -runs runs-standard.json -fig all [-csv]`.
func TestFiguresMatchCommitted(t *testing.T) {
	runs, err := sweep.LoadRunsFile("../../runs-standard.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCorpus(runs)
	if err != nil {
		t.Fatal(err)
	}
	txt := committedSections(t, "../../results/figures-standard.txt", "== ")
	csv := committedSections(t, "../../results/figures-standard.csv", "# ")
	for _, id := range FigureIDs() {
		t.Run(id, func(t *testing.T) {
			if slowFigures[id] && !*allFigures {
				t.Skip("coverage figure at 10⁶ samples; run with -allfigures")
			}
			rep, err := Figure(c, id, FigureOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []struct {
				name      string
				render    func(*bytes.Buffer) error
				committed map[string]string
			}{
				{"text", func(b *bytes.Buffer) error { return rep.Render(b) }, txt},
				{"csv", func(b *bytes.Buffer) error { return rep.RenderCSV(b) }, csv},
			} {
				var b bytes.Buffer
				if err := f.render(&b); err != nil {
					t.Fatal(err)
				}
				if d := firstDiff(b.String(), f.committed[rep.ID]); d != "" {
					t.Errorf("%s %s differs from the committed file: %s", rep.ID, f.name, d)
				}
			}
		})
	}
}

// committedSections splits a committed `figures -fig all` output into
// one section per report ID; a section starts at each line beginning
// with prefix followed by "<ID>:".
func committedSections(t *testing.T, path, prefix string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			if i := strings.IndexByte(rest, ':'); i > 0 {
				id = rest[:i]
			}
		}
		out[id] += line
	}
	return out
}

// firstDiff describes the first line where got and want differ, or
// returns "" when they are equal.
func firstDiff(got, want string) string {
	if got == want {
		return ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		if i >= len(g) || i >= len(w) {
			return fmt.Sprintf("%d lines, want %d", len(g), len(w))
		}
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, g[i], w[i])
		}
	}
}
