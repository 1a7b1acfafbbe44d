package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// SummaryRow aggregates all finished spans sharing a stage name (or,
// in the per-key table, a key).
type SummaryRow struct {
	Name     string           `json:"name"`
	Count    int64            `json:"count"`
	TotalUS  int64            `json:"total_us"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Summary is the aggregated view of a trace: one table keyed by span
// name (the pipeline stages) and one keyed by span key (suffixes,
// routes, worlds). Both are sorted by total time descending, then name,
// so the hottest rows lead.
type Summary struct {
	Stages []SummaryRow `json:"stages"`
	Keys   []SummaryRow `json:"keys,omitempty"`
}

// Summary folds the finished spans so far into the two tables. A nil
// tracer yields an empty summary.
func (t *Tracer) Summary() Summary {
	if t == nil {
		return Summary{}
	}
	stages, keys := map[string]*aggregate{}, map[string]*aggregate{}
	t.mu.Lock()
	for _, rec := range t.finished {
		fold(stages, rec.name, rec)
		if rec.key != "" {
			fold(keys, rec.key, rec)
		}
	}
	t.mu.Unlock()
	return Summary{Stages: rowsFrom(stages), Keys: rowsFrom(keys)}
}

// aggregate is one row of a table while the spans fold into it; the
// total is kept in ns and rounded to µs once.
type aggregate struct {
	row     SummaryRow
	totalNS int64
}

func fold(table map[string]*aggregate, name string, rec spanRecord) {
	a := table[name]
	if a == nil {
		a = &aggregate{row: SummaryRow{Name: name}}
		table[name] = a
	}
	a.row.Count++
	a.totalNS += rec.durNS
	for _, kv := range rec.counts {
		if a.row.Counters == nil {
			a.row.Counters = make(map[string]int64)
		}
		a.row.Counters[kv.name] += kv.n
	}
}

func rowsFrom(table map[string]*aggregate) []SummaryRow {
	rows := make([]SummaryRow, 0, len(table))
	for _, a := range table {
		a.row.TotalUS = a.totalNS / 1000
		rows = append(rows, a.row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].TotalUS != rows[j].TotalUS {
			return rows[i].TotalUS > rows[j].TotalUS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// Format renders the summary as an aligned text table for terminal
// output (the -tracesummary flag).
func (s Summary) Format(w io.Writer) error {
	if err := formatRows(w, "stage", s.Stages); err != nil {
		return err
	}
	if len(s.Keys) == 0 {
		return nil
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return formatRows(w, "key", s.Keys)
}

// maxNameWidth caps the name/key column of the text table. Keys are
// suffixes, routes, or world names; a pathological hostname suffix must
// not push the timing columns off-screen. The JSON summary always
// carries the full key — truncation is display-only.
const maxNameWidth = 48

// truncName shortens s to maxNameWidth display bytes, marking the cut
// with an ellipsis.
func truncName(s string) string {
	if len(s) <= maxNameWidth {
		return s
	}
	return s[:maxNameWidth-3] + "..."
}

func formatRows(w io.Writer, header string, rows []SummaryRow) error {
	nameW, countW := len(header), len("count")
	for _, r := range rows {
		if n := len(truncName(r.Name)); n > nameW {
			nameW = n
		}
		if n := len(fmt.Sprintf("%d", r.Count)); n > countW {
			countW = n
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  %*s  %12s  counters\n", nameW, header, countW, "count", "total"); err != nil {
		return err
	}
	for _, r := range rows {
		total := time.Duration(r.TotalUS) * time.Microsecond
		if _, err := fmt.Fprintf(w, "%-*s  %*d  %12s  %s\n",
			nameW, truncName(r.Name), countW, r.Count, total, formatCounters(r.Counters)); err != nil {
			return err
		}
	}
	return nil
}

func formatCounters(m map[string]int64) string {
	if len(m) == 0 {
		return "-"
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}
