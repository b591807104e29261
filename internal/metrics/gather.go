package metrics

import (
	"fmt"
	"io"
	"sync"
)

// Gatherer merges several registries into one exposition, injecting a fixed
// label set per registry. It exists because concurrent engine runs must NOT
// share one registry: per-slave series like `tabu_moves_total{slave="3"}`
// from two runs would land on the same handle and double-count, and
// run-scoped gauges like `core_best_value` would fight over one cell. The
// server therefore gives every run its own registry and attaches it here
// under a `job` (or `run`) label; the merged exposition keeps every series
// distinct while still serving one `/metrics` page.
//
// Attach is cheap and safe for concurrent use with WriteProm and Snapshot.
// Nothing is ever detached: an attached registry stays in every later
// exposition, so a finished job's last numbers stay scrapeable for as long
// as the gatherer lives.
type Gatherer struct {
	mu    sync.Mutex
	parts []gatherPart
}

type gatherPart struct {
	reg    *Registry
	labels []string // k, v pairs injected into every series of reg
}

// NewGatherer returns an empty gatherer.
func NewGatherer() *Gatherer { return &Gatherer{} }

// Attach adds a registry whose series will be exposed with the given label
// pairs injected (e.g. "job", jobID). Attaching the same registry again
// replaces its label set. A nil registry is ignored.
func (g *Gatherer) Attach(reg *Registry, labels ...string) {
	if g == nil || reg == nil {
		return
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list for gatherer attach: %v", labels))
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, p := range g.parts {
		if p.reg == reg {
			g.parts[i].labels = append([]string(nil), labels...)
			return
		}
	}
	g.parts = append(g.parts, gatherPart{reg: reg, labels: append([]string(nil), labels...)})
}

// Snapshot merges every attached registry's labeled snapshot. Series keys
// are canonical (`name{k="v",...}` with the injected labels folded in and
// sorted), so two attached runs with distinct labels can never collide. If
// two parts do produce the same key (colliding label choices), counters and
// histogram counts sum and gauges keep the last value written — the same
// semantics Prometheus applies to duplicate samples.
func (g *Gatherer) Snapshot() *Snapshot { return g.merge(nil) }

// WriteProm writes the merged snapshot through the registry's encoder, so
// each family's TYPE line appears exactly once with all its series beneath
// it, as the text format requires. HELP comes from the first attached
// registry that registered one. A nil gatherer writes nothing.
func (g *Gatherer) WriteProm(w io.Writer) error {
	help := map[string]string{}
	return writeProm(w, g.merge(help), help)
}

// merge builds Snapshot's merged snapshot and, when help is non-nil, copies
// each part's HELP strings into it.
func (g *Gatherer) merge(help map[string]string) *Snapshot {
	out := newSnapshot()
	if g == nil {
		return out
	}
	g.mu.Lock()
	parts := append([]gatherPart(nil), g.parts...)
	g.mu.Unlock()
	for _, p := range parts {
		s := p.reg.LabeledSnapshot(p.labels...)
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
		for k, h := range s.Histograms {
			if prev, ok := out.Histograms[k]; ok && len(prev.Counts) == len(h.Counts) {
				for i := range h.Counts {
					h.Counts[i] += prev.Counts[i]
				}
				h.Sum += prev.Sum
				h.Count += prev.Count
			}
			out.Histograms[k] = h
		}
		if help != nil {
			p.reg.copyHelp(help)
		}
	}
	return out
}
