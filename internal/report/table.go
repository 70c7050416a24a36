// Package report renders the paper's tables and figure data series as
// aligned ASCII tables and CSV — the "same rows/series the paper reports",
// regenerated from a measured behavior corpus.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is one titled grid of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Report is a figure or table reproduction: explanatory notes plus one or
// more data tables.
type Report struct {
	ID     string
	Title  string
	Notes  []string
	Tables []*Table
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad))
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the table as CSV (no quoting needed: cells are
// numeric/identifier strings; commas are rejected defensively).
func (t *Table) RenderCSV(w io.Writer) error {
	writeLine := func(cells []string) error {
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeLine(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeLine(row); err != nil {
			return err
		}
	}
	return nil
}

// Render writes the whole report.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "   %s\n", n); err != nil {
			return err
		}
	}
	for _, t := range r.Tables {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderCSV writes every table of the report as CSV, each under a
// "# ID: Title — table title" line.
func (r *Report) RenderCSV(w io.Writer) error {
	for _, t := range r.Tables {
		if _, err := fmt.Fprintf(w, "# %s: %s — %s\n", r.ID, r.Title, t.Title); err != nil {
			return err
		}
		if err := t.RenderCSV(w); err != nil {
			return err
		}
	}
	return nil
}

// F formats a float compactly for table cells.
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v < 0.001:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
