// Package report renders experiment results as aligned text tables, CSV,
// and simple ASCII plots (log-scale series and CDF sketches) so the
// cmd/experiments driver can regenerate every table and figure of the
// paper in a terminal.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-aligned text table builder.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsNaN(v):
		return "-"
	case v == math.Trunc(v) && math.Abs(v) < 1e6:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

func pad(s string, w int) string {
	r := []rune(s)
	if len(r) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(r))
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	row := make([]string, len(t.header))
	for i, h := range t.header {
		row[i] = esc(h)
	}
	fmt.Fprintln(w, strings.Join(row, ","))
	for _, r := range t.rows {
		out := make([]string, len(r))
		for i, c := range r {
			out[i] = esc(c)
		}
		fmt.Fprintln(w, strings.Join(out, ","))
	}
}

// Series is one named line of an ASCII plot.
type Series struct {
	Name string
	X, Y []float64
}

// LogPlot renders series as an ASCII scatter with log-scaled Y (the shape
// of the paper's Figs. 3–4). Width and height are in characters.
func LogPlot(w io.Writer, title string, series []Series, width, height int) {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			if s.Y[i] <= 0 {
				continue
			}
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if math.IsInf(xmin, 1) || xmin == xmax {
		fmt.Fprintf(w, "%s: (no data)\n", title)
		return
	}
	if ymin == ymax {
		ymax = ymin * 10
	}
	lymin, lymax := math.Log10(ymin), math.Log10(ymax)
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", width))
	}
	marks := "ox+*#@%&"
	for si, s := range series {
		m := rune(marks[si%len(marks)])
		for i := range s.X {
			if s.Y[i] <= 0 {
				continue
			}
			cx := int(math.Round((s.X[i] - xmin) / (xmax - xmin) * float64(width-1)))
			cy := int(math.Round((math.Log10(s.Y[i]) - lymin) / (lymax - lymin) * float64(height-1)))
			row := height - 1 - cy
			if row >= 0 && row < height && cx >= 0 && cx < width {
				grid[row][cx] = m
			}
		}
	}
	fmt.Fprintln(w, title)
	for i, row := range grid {
		label := ""
		if i == 0 {
			label = fmt.Sprintf("%8.2g", ymax)
		} else if i == height-1 {
			label = fmt.Sprintf("%8.2g", ymin)
		} else {
			label = strings.Repeat(" ", 8)
		}
		fmt.Fprintf(w, "%s |%s|\n", label, string(row))
	}
	fmt.Fprintf(w, "%s  %-8.4g%s%8.4g\n", strings.Repeat(" ", 8), xmin,
		strings.Repeat(" ", max(1, width-16)), xmax)
	for si, s := range series {
		fmt.Fprintf(w, "%10s %c = %s\n", "", marks[si%len(marks)], s.Name)
	}
}
