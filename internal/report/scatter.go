package report

import (
	"fmt"
	"sort"
	"strings"

	"gcbench/internal/behavior"
)

// spaceScatter renders ASCII scatter plots of the normalized behavior
// space — the six 2-D projections of the 4-D <UPDT, WORK, EREAD, MSG>
// cube, with one glyph per algorithm. Not a paper figure; a reading aid
// for the corpus (`gcbench figures -fig space`).
func spaceScatter(c *Corpus, f figure, _ FigureOptions) (*Report, error) {
	rep := &Report{ID: "Extra", Title: f.title,
		Notes: []string{
			"Six 2-D projections of the normalized 4-D behavior space; one glyph per algorithm.",
			"An ensemble with good spread/coverage picks points far apart in every panel.",
		}}

	glyphOf := assignGlyphs(c)
	var legend []string
	var names []string
	for name := range glyphOf {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		legend = append(legend, fmt.Sprintf("%c=%s", glyphOf[name], name))
	}
	rep.Notes = append(rep.Notes, "legend: "+strings.Join(legend, " "))

	for xi := 0; xi < behavior.Dims; xi++ {
		for yi := xi + 1; yi < behavior.Dims; yi++ {
			rep.Tables = append(rep.Tables, scatterPanel(c, xi, yi, glyphOf))
		}
	}
	return rep, nil
}

// assignGlyphs gives each algorithm a distinct printable glyph, preferring
// a mnemonic letter from its name.
func assignGlyphs(c *Corpus) map[string]byte {
	preferred := map[string]byte{
		"CC": 'C', "KC": 'K', "TC": 'T', "SSSP": 'S', "PR": 'P', "AD": 'A',
		"KM": 'M', "ALS": 'L', "NMF": 'N', "SGD": 'G', "SVD": 'V',
		"Jacobi": 'J', "LBP": 'B', "DD": 'D',
	}
	fallback := []byte("0123456789*#@+%&")
	used := map[byte]bool{}
	out := map[string]byte{}
	var order []string
	seen := map[string]bool{}
	for _, r := range c.Runs {
		if !seen[r.Algorithm] {
			seen[r.Algorithm] = true
			order = append(order, r.Algorithm)
		}
	}
	sort.Strings(order)
	fi := 0
	for _, name := range order {
		g, ok := preferred[name]
		if !ok || used[g] {
			g = fallback[fi%len(fallback)]
			fi++
		}
		used[g] = true
		out[name] = g
	}
	return out
}

const (
	scatterW = 56
	scatterH = 18
)

// scatterPanel plots one projection over the pool space.
func scatterPanel(c *Corpus, xi, yi int, glyphOf map[string]byte) *Table {
	grid := make([][]byte, scatterH)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", scatterW))
	}
	space := c.Space
	for i, r := range space.Runs {
		pt := space.Point(i)
		x := int(pt[xi] * float64(scatterW-1))
		y := int(pt[yi] * float64(scatterH-1))
		row := scatterH - 1 - y
		cell := grid[row][x]
		g := glyphOf[r.Algorithm]
		switch {
		case cell == ' ':
			grid[row][x] = g
		case cell != g:
			grid[row][x] = '*' // collision of different algorithms
		}
	}
	t := &Table{
		Title: fmt.Sprintf("%s (x) vs %s (y), normalized [0,1]",
			behavior.DimNames[xi], behavior.DimNames[yi]),
		Header: []string{"plot"},
	}
	for _, row := range grid {
		t.AddRow("|" + string(row) + "|")
	}
	t.AddRow("+" + strings.Repeat("-", scatterW) + "+")
	return t
}
