// Package metrics is a dependency-free, concurrency-safe registry of atomic
// counters, gauges and fixed-bucket histograms for the parallel search. It is
// the observability substrate the paper's evaluation implicitly relies on —
// per-phase accounting (moves, drops, tabu hits, ISP/SGP actions, farm
// traffic) is what lets two configurations be compared at all.
//
// Design constraints, in order:
//
//   - Zero overhead when disabled. Every handle (*Counter, *Gauge,
//     *Histogram) is nil-safe: instrumented code resolves handles once per
//     round and each hot-path record costs exactly one predictable nil-check
//     branch when no registry is installed. A nil *Registry hands out nil
//     handles, so `var r *Registry; r.Counter("x").Inc()` is a no-op.
//
//   - Determinism. Recording never draws randomness, takes locks on the hot
//     path, or otherwise perturbs the search; with a nil registry the solver
//     replays bitwise identically, and with a live one every counter that is
//     not derived from the wall clock is identical across same-seed runs.
//     Wall-clock families carry the `_seconds` suffix and scheduling-dependent
//     ones the `_depth` suffix so tests can strip them (Snapshot.Deterministic).
//
//   - Testability. Snapshot/Diff give value semantics: a deterministic test
//     runs the solver, snapshots, and asserts exact equality or documented
//     cross-metric invariants.
//
// Naming follows the Prometheus convention: `subsystem_name_unit` with
// `_total` for counters, label pairs for per-slave / per-kind series.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The nil Counter is a
// valid no-op recorder.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds delta (negative deltas are a programming error and are dropped to
// keep the counter monotone).
func (c *Counter) Add(delta int64) {
	if c == nil || delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that can go up and down. The nil Gauge is a
// valid no-op recorder.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (upper bounds, strictly
// increasing) plus an implicit +Inf overflow bucket, and tracks the sum and
// count. The nil Histogram is a valid no-op recorder.
type Histogram struct {
	bounds []float64      // bucket upper bounds, strictly increasing
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	sum    atomic.Uint64  // float64 bits, CAS-updated
	count  atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ExpBuckets returns n upper bounds start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// series is one registered time series: a family name plus its label pairs.
type series struct {
	name   string
	labels []string // k1, v1, k2, v2, ... sorted by key
	key    string   // canonical name{k="v",...} identity
}

// Registry holds all metrics of one solver run. The zero value is NOT usable;
// call NewRegistry. A nil *Registry is usable everywhere and hands out nil
// handles, which is the disabled mode.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*counterSeries
	gauges   map[string]*gaugeSeries
	hists    map[string]*histSeries
	help     map[string]string
}

type counterSeries struct {
	series
	c *Counter
}

type gaugeSeries struct {
	series
	g *Gauge
}

type histSeries struct {
	series
	h *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*counterSeries),
		gauges:   make(map[string]*gaugeSeries),
		hists:    make(map[string]*histSeries),
		help:     make(map[string]string),
	}
}

// makeSeries canonicalizes a (name, labels) identity. Labels are k, v pairs;
// an odd count is a programming error.
func makeSeries(name string, labels []string) series {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list for %s: %v", name, labels))
	}
	s := series{name: name}
	if len(labels) == 0 {
		s.key = name
		return s
	}
	// Sort pairs by key for a canonical identity.
	pairs := make([][2]string, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, [2]string{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a][0] < pairs[b][0] })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		// %q yields exactly the Prometheus label escaping: \\ , \" and \n.
		fmt.Fprintf(&sb, "%s=%q", p[0], p[1])
		s.labels = append(s.labels, p[0], p[1])
	}
	sb.WriteByte('}')
	s.key = sb.String()
	return s
}

// Counter returns (creating on first use) the counter series name{labels}.
// Nil receiver returns a nil handle.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	s := makeSeries(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if cs, ok := r.counters[s.key]; ok {
		return cs.c
	}
	cs := &counterSeries{series: s, c: &Counter{}}
	r.counters[s.key] = cs
	return cs.c
}

// Gauge returns (creating on first use) the gauge series name{labels}.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	s := makeSeries(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if gs, ok := r.gauges[s.key]; ok {
		return gs.g
	}
	gs := &gaugeSeries{series: s, g: &Gauge{}}
	r.gauges[s.key] = gs
	return gs.g
}

// Histogram returns (creating on first use) the histogram series name{labels}
// with the given bucket upper bounds. Bounds must be strictly increasing;
// a second caller's bounds are ignored in favor of the first registration.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s bounds not strictly increasing: %v", name, bounds))
		}
	}
	s := makeSeries(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if hs, ok := r.hists[s.key]; ok {
		return hs.h
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists[s.key] = &histSeries{series: s, h: h}
	return h
}

// SetHelp attaches a HELP string to a family, shown in the text exposition.
func (r *Registry) SetHelp(family, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[family] = help
}

// Family returns the family (metric name) of a series key: everything before
// the first '{'.
func Family(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}
