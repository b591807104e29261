package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// Diff is one cell where a fresh run differs from its baseline.
type Diff struct {
	Export string // export name
	Row    int    // row position
	Column string
	Old    string
	New    string
	// Host marks a host wall-clock cell (Export.Host): its difference is
	// reported and never fails a check.
	Host bool
}

func (d Diff) String() string {
	s := fmt.Sprintf("%s[%d].%s: %s -> %s", d.Export, d.Row, d.Column, d.Old, d.New)
	if d.Host {
		s += " (host clock, not gated)"
	}
	return s
}

// CompareExports diffs a fresh export against a baseline of the same
// experiment. Columns are matched by name (JSON round trips lose order) and
// rows by position, since a first column may repeat (a trajectory's round);
// cells must match exactly, and every cell of a row only one side has
// differs. Differences in the current export's Host columns come back with
// Host set: a regression gate prints them and fails on the rest.
func CompareExports(baseline, current Export) ([]Diff, error) {
	if baseline.Name != current.Name {
		return nil, fmt.Errorf("bench: comparing %q against %q", current.Name, baseline.Name)
	}
	baseline, err := alignColumns(baseline, current.Header)
	if err != nil {
		return nil, err
	}
	cell := func(rows [][]string, i, c int) string {
		if i < len(rows) {
			return rows[i][c]
		}
		return "(absent)"
	}
	var diffs []Diff
	for i := 0; i < max(len(baseline.Rows), len(current.Rows)); i++ {
		for c, col := range current.Header {
			if old, cur := cell(baseline.Rows, i, c), cell(current.Rows, i, c); old != cur {
				diffs = append(diffs, Diff{Export: current.Name, Row: i, Column: col, Old: old, New: cur,
					Host: slices.Contains(current.Host, col)})
			}
		}
	}
	return diffs, nil
}

// alignColumns reorders e's columns to match the given header, matching by
// column name. It errors when the column sets differ.
func alignColumns(e Export, header []string) (Export, error) {
	if len(e.Header) != len(header) {
		return Export{}, fmt.Errorf("bench: export %q has %d columns, want %d", e.Name, len(e.Header), len(header))
	}
	perm := make([]int, len(header))
	for i, want := range header {
		found := -1
		for j, have := range e.Header {
			if have == want {
				found = j
				break
			}
		}
		if found == -1 {
			return Export{}, fmt.Errorf("bench: export %q missing column %q", e.Name, want)
		}
		perm[i] = found
	}
	out := Export{Name: e.Name, Header: append([]string(nil), header...)}
	for _, row := range e.Rows {
		if len(row) != len(perm) {
			return Export{}, fmt.Errorf("bench: export %q has a ragged row", e.Name)
		}
		aligned := make([]string, len(perm))
		for i, j := range perm {
			aligned[i] = row[j]
		}
		out.Rows = append(out.Rows, aligned)
	}
	return out, nil
}

// LoadExports parses every export in a stream written by Export.WriteJSON
// (one experiment's, or the whole -all run's), keyed by name. The JSON
// object form loses column order, so each loaded header is sorted;
// CompareExports re-aligns columns by name.
func LoadExports(r io.Reader) (map[string]Export, error) {
	out := make(map[string]Export)
	dec := json.NewDecoder(r)
	for {
		var doc struct {
			Name string              `json:"name"`
			Rows []map[string]string `json:"rows"`
		}
		if err := dec.Decode(&doc); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("bench: parsing export: %w", err)
		}
		if doc.Name == "" {
			return nil, fmt.Errorf("bench: export has no name")
		}
		if _, dup := out[doc.Name]; dup {
			return nil, fmt.Errorf("bench: export %q appears twice", doc.Name)
		}
		e := Export{Name: doc.Name}
		if len(doc.Rows) > 0 {
			for k := range doc.Rows[0] {
				e.Header = append(e.Header, k)
			}
			sort.Strings(e.Header)
		}
		for _, obj := range doc.Rows {
			row := make([]string, len(e.Header))
			for i, h := range e.Header {
				row[i] = obj[h]
			}
			e.Rows = append(e.Rows, row)
		}
		out[doc.Name] = e
	}
}

// RenderDiffs prints one export's regression report.
func RenderDiffs(name string, diffs []Diff) string {
	if len(diffs) == 0 {
		return "baseline check " + name + ": no differences\n"
	}
	gated := 0
	for _, d := range diffs {
		if !d.Host {
			gated++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "baseline check %s: %d difference(s), %d gated\n", name, len(diffs), gated)
	for _, d := range diffs {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
