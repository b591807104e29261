package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteProm writes the registry in the Prometheus text exposition format
// (version 0.0.4): a snapshot, rendered by the same encoder as a Gatherer's
// merged exposition. A nil registry writes nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	help := map[string]string{}
	r.copyHelp(help)
	return writeProm(w, r.Snapshot(), help)
}

// copyHelp copies the registry's HELP strings into dst under the registry
// lock. A family dst already describes keeps its text: the first
// registration wins.
func (r *Registry) copyHelp(dst map[string]string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, h := range r.help {
		if _, ok := dst[name]; !ok {
			dst[name] = h
		}
	}
}

// Series kinds, in the order a family's series are written.
const (
	kindCounter = iota
	kindGauge
	kindHistogram
)

var promTypes = [...]string{"counter", "gauge", "histogram"}

// promSeries is one snapshot series placed in the exposition order.
type promSeries struct {
	family, key string
	kind        int
}

// writeProm renders a snapshot as the text exposition: families sorted by
// name, one `# HELP` (when help has one) and `# TYPE` line per family, then
// its counters, gauges and histograms, each sorted by key. A key's kind is
// the snapshot map it sits in; a family that has series of several kinds is
// typed by the first of them. Histograms expand into cumulative
// `_bucket{le=...}` series plus `_sum` and `_count`.
func writeProm(w io.Writer, s *Snapshot, help map[string]string) error {
	all := make([]promSeries, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for k := range s.Counters {
		all = append(all, promSeries{Family(k), k, kindCounter})
	}
	for k := range s.Gauges {
		all = append(all, promSeries{Family(k), k, kindGauge})
	}
	for k := range s.Histograms {
		all = append(all, promSeries{Family(k), k, kindHistogram})
	}
	sort.Slice(all, func(a, b int) bool {
		x, y := all[a], all[b]
		if x.family != y.family {
			return x.family < y.family
		}
		if x.kind != y.kind {
			return x.kind < y.kind
		}
		return x.key < y.key
	})
	for i, ps := range all {
		if i == 0 || ps.family != all[i-1].family {
			if h, ok := help[ps.family]; ok {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", ps.family, escapeHelp(h)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", ps.family, promTypes[ps.kind]); err != nil {
				return err
			}
		}
		var err error
		switch ps.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", ps.key, s.Counters[ps.key])
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %s\n", ps.key, formatFloat(s.Gauges[ps.key]))
		default:
			err = writePromHistSnapshot(w, ps.key, s.Histograms[ps.key])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromHistSnapshot expands one snapshotted histogram series. The key is
// already canonical (`name` or `name{...}`); the suffix and `le` label are
// spliced in around it.
func writePromHistSnapshot(w io.Writer, key string, h HistogramSnapshot) error {
	name, labels := splitKey(key)
	var cum int64
	for i, bound := range h.Buckets {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s %d\n", keyWith(name, labels, "le", formatFloat(bound), "_bucket"), cum); err != nil {
			return err
		}
	}
	if len(h.Counts) > len(h.Buckets) {
		cum += h.Counts[len(h.Buckets)]
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", keyWith(name, labels, "le", "+Inf", "_bucket"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", keySuffixed(name, labels, "_sum"), formatFloat(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", keySuffixed(name, labels, "_count"), h.Count)
	return err
}

// splitKey splits a canonical series key into name and the raw `k="v",...`
// label body ("" when unlabeled).
func splitKey(key string) (name, labels string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '{' {
			return key[:i], key[i+1 : len(key)-1]
		}
	}
	return key, ""
}

func keyWith(name, labels, extraK, extraV, suffix string) string {
	if labels == "" {
		return fmt.Sprintf("%s%s{%s=%q}", name, suffix, extraK, extraV)
	}
	return fmt.Sprintf("%s%s{%s,%s=%q}", name, suffix, labels, extraK, extraV)
}

func keySuffixed(name, labels, suffix string) string {
	if labels == "" {
		return name + suffix
	}
	return fmt.Sprintf("%s%s{%s}", name, suffix, labels)
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// round-trippable decimal.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp applies the HELP-line escaping (backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
