// Package tables renders aligned plain-text tables and CSV for the
// benchmark's reports — every table and figure of the paper is
// regenerated as one of these.
package tables

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	// Notes are printed under the table.
	Notes []string
}

// New creates a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped,
// missing cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddRowf appends a row of formatted cells. Each argument is rendered
// with %v unless it is a float64, which uses %.3g-style compact form.
func (t *Table) AddRowf(cells ...interface{}) {
	strs := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			strs[i] = FormatFloat(v)
		case string:
			strs[i] = v
		default:
			strs[i] = fmt.Sprintf("%v", v)
		}
	}
	t.AddRow(strs...)
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// FormatFloat renders a float compactly with sensible precision for
// benchmark ratios and measurements.
func FormatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av == 0:
		return "0"
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	case av >= 0.095:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Render writes the aligned table to w. Columns align by rune count,
// so a non-ASCII cell such as "—" keeps its column straight.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("  note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return fmt.Sprintf("tables: render error: %v", err)
	}
	return b.String()
}

// RenderCSV writes the table as CSV (without title/notes) to w.
func (t *Table) RenderCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	var b strings.Builder
	for i, h := range t.Headers {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(esc(h))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
