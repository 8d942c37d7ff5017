package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one regenerated figure: named columns of float series keyed
// by an x value, with free-form notes carrying paper references.
type Table struct {
	Title string
	XName string
	Cols  []string
	X     []float64
	Rows  [][]float64 // Rows[i][j] is the value of Cols[j] at X[i]
	Notes []string
}

// Write renders the table as aligned text.
func (t *Table) Write(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	widths := make([]int, len(t.Cols)+1)
	widths[0] = len(t.XName)
	header := make([]string, len(t.Cols)+1)
	header[0] = t.XName
	for j, c := range t.Cols {
		header[j+1] = c
		if len(c) > widths[j+1] {
			widths[j+1] = len(c)
		}
	}
	cells := make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		cells[i] = make([]string, len(row)+1)
		cells[i][0] = trimFloat(t.X[i])
		if len(cells[i][0]) > widths[0] {
			widths[0] = len(cells[i][0])
		}
		for j, v := range row {
			s := fmt.Sprintf("%.2f", v)
			cells[i][j+1] = s
			if len(s) > widths[j+1] {
				widths[j+1] = len(s)
			}
		}
	}
	writeRow := func(row []string) {
		for j, s := range row {
			if j > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%*s", widths[j], s)
		}
		fmt.Fprintln(w)
	}
	writeRow(header)
	writeRow([]string{strings.Repeat("-", widths[0])})
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the table as CSV.
func (t *Table) WriteCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	fmt.Fprintf(w, "%s,%s\n", t.XName, strings.Join(t.Cols, ","))
	for i, row := range t.Rows {
		parts := make([]string, 0, len(row)+1)
		parts = append(parts, trimFloat(t.X[i]))
		for _, v := range row {
			parts = append(parts, fmt.Sprintf("%.3f", v))
		}
		fmt.Fprintln(w, strings.Join(parts, ","))
	}
}

// trimFloat prints integers without decimals.
func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.1f", v)
}
