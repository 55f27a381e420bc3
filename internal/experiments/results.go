package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is one result table a runner returns: a title, the names of the
// label columns that identify a row, the numeric columns, the rows, and
// footer notes (the paper reference line among them). Print renders it
// for people; EncodeJSON writes one record per row for machines. Every
// number a runner measures lives in a cell, never only in prose.
type Table struct {
	// Name is the table's stable key in JSON records, e.g. "asb".
	Name string
	// Title heads the printed table and may carry run parameters.
	Title string
	// Keys names the label columns; every Row.Label has one entry each.
	Keys []string
	// Columns are the numeric columns; every Row.Cells has one entry each.
	Columns []Column
	Rows    []Row
	// Notes are printed under the rows, one line each.
	Notes []string
}

// Column is one numeric column.
type Column struct {
	Name string
	// Unit is printed in the header and written to JSON. The unit "bool"
	// prints 0 and 1 as false and true.
	Unit string
	// Prec is the number of digits printed after the decimal point.
	Prec int
}

// Row is one labelled row of numeric cells.
type Row struct {
	Label []string
	Cells []float64
}

// col declares a column.
func col(name, unit string, prec int) Column { return Column{Name: name, Unit: unit, Prec: prec} }

// add appends a row. Cells are given in column order.
func (t *Table) add(label []string, cells ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
}

// note appends a footer line.
func (t *Table) note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// labels is shorthand for a row label.
func labels(parts ...interface{}) []string {
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = fmt.Sprint(p)
	}
	return out
}

// cell returns the value in the row whose label is label (its parts
// joined by "/") and the column named column.
func (t Table) cell(label, column string) (float64, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c.Name == column {
			ci = i
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if strings.Join(r.Label, "/") == label {
			return r.Cells[ci], true
		}
	}
	return 0, false
}

// formatCell renders one cell as Print shows it.
func formatCell(c Column, v float64) string {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return "-"
	case c.Unit == "bool":
		return fmt.Sprint(v != 0)
	}
	return fmt.Sprintf("%.*f", c.Prec, v)
}

// header renders a column heading with its unit.
func (c Column) header() string {
	if c.Unit == "" || c.Unit == "bool" {
		return c.Name
	}
	return c.Name + " (" + c.Unit + ")"
}

// Print renders tables as aligned text: the title, a header line, one
// line per row (labels left-aligned, numbers right-aligned), the notes,
// and a blank line.
func Print(w io.Writer, tables []Table) error {
	for _, t := range tables {
		cells := make([][]string, len(t.Rows)+1)
		for _, k := range t.Keys {
			cells[0] = append(cells[0], k)
		}
		for _, c := range t.Columns {
			cells[0] = append(cells[0], c.header())
		}
		for i, r := range t.Rows {
			line := append([]string(nil), r.Label...)
			for j, c := range t.Columns {
				line = append(line, formatCell(c, r.Cells[j]))
			}
			cells[i+1] = line
		}
		width := make([]int, len(t.Keys)+len(t.Columns))
		for _, line := range cells {
			for j, s := range line {
				width[j] = max(width[j], len([]rune(s)))
			}
		}
		var b strings.Builder
		b.WriteString(t.Title + "\n")
		for _, line := range cells {
			for j, s := range line {
				pad := strings.Repeat(" ", width[j]-len([]rune(s)))
				if j > 0 {
					b.WriteString("  ")
				}
				if j < len(t.Keys) {
					b.WriteString(s + pad)
				} else {
					b.WriteString(pad + s)
				}
			}
			b.WriteString("\n")
		}
		for _, n := range t.Notes {
			b.WriteString(n + "\n")
		}
		b.WriteString("\n")
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// record is one JSON line: a table row keyed by runner, table, row label
// and column.
type record struct {
	Runner string             `json:"runner"`
	Table  string             `json:"table"`
	Row    map[string]string  `json:"row"`
	Cells  map[string]float64 `json:"cells"`
	Units  map[string]string  `json:"units,omitempty"`
}

// EncodeJSON writes one JSON line per row of tables, tagged with the
// runner's name. Cells that are not finite numbers are left out.
func EncodeJSON(w io.Writer, runner string, tables []Table) error {
	enc := json.NewEncoder(w)
	for _, t := range tables {
		for _, r := range t.Rows {
			rec := record{Runner: runner, Table: t.Name, Row: map[string]string{}, Cells: map[string]float64{}}
			for i, k := range t.Keys {
				rec.Row[k] = r.Label[i]
			}
			for i, c := range t.Columns {
				v := r.Cells[i]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				rec.Cells[c.Name] = v
				if c.Unit != "" {
					if rec.Units == nil {
						rec.Units = map[string]string{}
					}
					rec.Units[c.Name] = c.Unit
				}
			}
			if err := enc.Encode(rec); err != nil {
				return fmt.Errorf("%s/%s: %w", runner, t.Name, err)
			}
		}
	}
	return nil
}
