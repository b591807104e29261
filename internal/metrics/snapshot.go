package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// HistogramSnapshot is the value of one histogram series at a point in time.
// Counts are per-bucket (NOT cumulative); the last entry is the +Inf overflow
// bucket, so len(Counts) == len(Buckets)+1.
type HistogramSnapshot struct {
	Buckets []float64 `json:"buckets"`
	Counts  []int64   `json:"counts"`
	Sum     float64   `json:"sum"`
	Count   int64     `json:"count"`
}

// Snapshot is a point-in-time copy of every series in a registry, keyed by
// the canonical series identity (`name{k="v",...}`). It has value semantics:
// snapshots can be diffed, filtered, compared and round-tripped through JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// newSnapshot returns an empty snapshot with non-nil maps.
func newSnapshot() *Snapshot {
	return &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
}

// Snapshot copies the current value of every series. A nil registry yields an
// empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() *Snapshot { return r.LabeledSnapshot() }

// LabeledSnapshot is Snapshot with extra label pairs injected into every
// series key. Injected keys that a series already carries are dropped for
// that series (its own label wins), so a run that already labels by slave
// cannot be silently relabeled.
func (r *Registry) LabeledSnapshot(labels ...string) *Snapshot {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list for labeled snapshot: %v", labels))
	}
	s := newSnapshot()
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, cs := range r.counters {
		s.Counters[relabel(cs.series, labels)] = cs.c.Value()
	}
	for _, gs := range r.gauges {
		s.Gauges[relabel(gs.series, labels)] = gs.g.Value()
	}
	for _, hs := range r.hists {
		h := hs.h
		counts := make([]int64, len(h.counts))
		for i := range h.counts {
			counts[i] = h.counts[i].Load()
		}
		s.Histograms[relabel(hs.series, labels)] = HistogramSnapshot{
			Buckets: append([]float64(nil), h.bounds...),
			Counts:  counts,
			Sum:     h.Sum(),
			Count:   h.Count(),
		}
	}
	return s
}

// relabel recanonicalizes a series key with extra labels folded in. The
// series' own labels win on key collision; with no extra labels the stored
// key is returned as is.
func relabel(s series, extra []string) string {
	if len(extra) == 0 {
		return s.key
	}
	merged := append([]string(nil), s.labels...)
	for i := 0; i+1 < len(extra); i += 2 {
		if !hasLabelKey(s.labels, extra[i]) {
			merged = append(merged, extra[i], extra[i+1])
		}
	}
	return makeSeries(s.name, merged).key
}

func hasLabelKey(labels []string, key string) bool {
	for i := 0; i < len(labels); i += 2 {
		if labels[i] == key {
			return true
		}
	}
	return false
}

// Counter returns the snapshotted value of a series key (0 when absent).
func (s *Snapshot) Counter(key string) int64 { return s.Counters[key] }

// Gauge returns the snapshotted value of a series key (0 when absent).
func (s *Snapshot) Gauge(key string) float64 { return s.Gauges[key] }

// SumCounters sums every counter series of one family (e.g. the per-slave
// `tabu_moves_total{slave="i"}` series into a farm-wide total).
func (s *Snapshot) SumCounters(family string) int64 {
	var total int64
	for k, v := range s.Counters {
		if Family(k) == family {
			total += v
		}
	}
	return total
}

// SumHistogramCounts sums the observation counts of every histogram series of
// one family.
func (s *Snapshot) SumHistogramCounts(family string) int64 {
	var total int64
	for k, h := range s.Histograms {
		if Family(k) == family {
			total += h.Count
		}
	}
	return total
}

// Diff returns the change from base to s: counters and histogram counts/sums
// are subtracted, gauges keep s's (current) value. Series absent from base
// are taken as zero there.
func (s *Snapshot) Diff(base *Snapshot) *Snapshot {
	d := newSnapshot()
	for k, v := range s.Counters {
		d.Counters[k] = v - base.Counters[k]
	}
	for k, v := range s.Gauges {
		d.Gauges[k] = v
	}
	for k, h := range s.Histograms {
		out := HistogramSnapshot{
			Buckets: append([]float64(nil), h.Buckets...),
			Counts:  append([]int64(nil), h.Counts...),
			Sum:     h.Sum,
			Count:   h.Count,
		}
		if b, ok := s.histBase(base, k); ok {
			for i := range out.Counts {
				out.Counts[i] -= b.Counts[i]
			}
			out.Sum -= b.Sum
			out.Count -= b.Count
		}
		d.Histograms[k] = out
	}
	return d
}

// histBase finds base's series for key when the bucket layout matches.
func (*Snapshot) histBase(base *Snapshot, key string) (HistogramSnapshot, bool) {
	b, ok := base.Histograms[key]
	if !ok || len(b.Counts) == 0 {
		return HistogramSnapshot{}, false
	}
	return b, true
}

// Filter returns the snapshot restricted to families keep() accepts.
func (s *Snapshot) Filter(keep func(family string) bool) *Snapshot {
	out := newSnapshot()
	for k, v := range s.Counters {
		if keep(Family(k)) {
			out.Counters[k] = v
		}
	}
	for k, v := range s.Gauges {
		if keep(Family(k)) {
			out.Gauges[k] = v
		}
	}
	for k, v := range s.Histograms {
		if keep(Family(k)) {
			out.Histograms[k] = v
		}
	}
	return out
}

// Deterministic strips the families that legitimately vary across same-seed
// runs: wall-clock timings (suffix `_seconds`) and scheduling-dependent
// queue depths (suffix `_depth`). Everything that remains must be identical
// across two runs with the same (seed, P, algorithm) — that is the contract
// the deterministic metrics tests pin down.
func (s *Snapshot) Deterministic() *Snapshot {
	return s.Filter(func(family string) bool {
		return !strings.HasSuffix(family, "_seconds") && !strings.HasSuffix(family, "_depth")
	})
}

// Equal reports whether two snapshots carry exactly the same series and
// values.
func (s *Snapshot) Equal(o *Snapshot) bool {
	if len(s.Counters) != len(o.Counters) || len(s.Gauges) != len(o.Gauges) ||
		len(s.Histograms) != len(o.Histograms) {
		return false
	}
	for k, v := range s.Counters {
		ov, ok := o.Counters[k]
		if !ok || ov != v {
			return false
		}
	}
	for k, v := range s.Gauges {
		ov, ok := o.Gauges[k]
		if !ok || ov != v {
			return false
		}
	}
	for k, h := range s.Histograms {
		oh, ok := o.Histograms[k]
		if !ok || !h.Equal(oh) {
			return false
		}
	}
	return true
}

// Equal reports whether two histogram snapshots are identical.
func (h HistogramSnapshot) Equal(o HistogramSnapshot) bool {
	if h.Sum != o.Sum || h.Count != o.Count ||
		len(h.Buckets) != len(o.Buckets) || len(h.Counts) != len(o.Counts) {
		return false
	}
	for i := range h.Buckets {
		if h.Buckets[i] != o.Buckets[i] {
			return false
		}
	}
	for i := range h.Counts {
		if h.Counts[i] != o.Counts[i] {
			return false
		}
	}
	return true
}

// Keys returns every series key in the snapshot, sorted.
func (s *Snapshot) Keys() []string {
	keys := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	for k := range s.Gauges {
		keys = append(keys, k)
	}
	for k := range s.Histograms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
