package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table is a minimal text-table renderer for experiment reports: left-
// aligned first column, right-aligned numeric columns, rendered with
// column-width padding.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends one row; values are used as-is.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				b.WriteString(pad(c, widths[i], false))
			} else {
				b.WriteString(pad(c, widths[i], true))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Header)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total-2))
	for _, r := range t.Rows {
		line(r)
	}
}

func pad(s string, w int, right bool) string {
	if len(s) >= w {
		return s
	}
	sp := strings.Repeat(" ", w-len(s))
	if right {
		return sp + s
	}
	return s + sp
}

// F formats a float with the given precision.
func F(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// Pct formats a fraction as a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// N formats an integer.
func N(v int) string { return fmt.Sprintf("%d", v) }

// U formats a uint64.
func U(v uint64) string { return fmt.Sprintf("%d", v) }
