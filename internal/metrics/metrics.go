// Package metrics provides the timing instrumentation and tabular output
// used by the experiment harness: stopwatches on a vclock.Clock, latency
// histograms, event counters, and fixed-width tables matching the
// rows/series the paper's figures report.
package metrics

import (
	"fmt"
	"strings"
	"time"

	"gospaces/internal/vclock"
)

// Stopwatch measures elapsed time on a clock.
type Stopwatch struct {
	clock vclock.Clock
	start time.Time
}

// StartStopwatch returns a running stopwatch.
func StartStopwatch(clock vclock.Clock) *Stopwatch {
	return &Stopwatch{clock: clock, start: clock.Now()}
}

// Elapsed returns the time since the stopwatch started.
func (s *Stopwatch) Elapsed() time.Duration { return s.clock.Since(s.start) }

// Table is a printable result table — one per reproduced figure/table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (title omitted), for
// feeding the figure data straight into a plotting tool.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Columns)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, cell := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(cell, ",\"\n") {
			cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
		}
		b.WriteString(cell)
	}
	b.WriteByte('\n')
}

// Ms formats a duration as integer milliseconds, the unit the paper's
// figures use.
func Ms(d time.Duration) string {
	return fmt.Sprintf("%d", d.Milliseconds())
}
