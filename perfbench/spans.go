package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one op share Op;
// probes use their own op ids. Times are offsets from the run's start.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for an op's root span
	Op     string        `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how the untraced run passes it around.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog(origin time.Time) *spanLog { return &spanLog{origin: origin} }

// add records a finished span and returns its id (0 on a nil log).
func (l *spanLog) add(parent int, op, name string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(l.origin), End: end.Sub(l.origin)})
	return id
}

// reserve allocates an id for a span whose end is not known yet, so its
// children can name it as their parent; finish fills it in.
func (l *spanLog) reserve(parent int, op, name string, start time.Time) int {
	return l.add(parent, op, name, start, start)
}

func (l *spanLog) finish(id int, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].End = end.Sub(l.origin)
	l.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time of its spans: each
// span's duration minus the part of it that the union of its children
// covers (children are clipped to their parent).
func selfTimes(spans []span) map[string]time.Duration {
	kids := children(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// children maps each span id to its child spans.
func children(spans []span) map[int][]span {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	for k, x := range iv {
		if k == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}

// uncoveredShare is, per op root span named root, the share of the op its
// child spans do not cover; it returns the median over ops.
func uncoveredShare(spans []span, root string) float64 {
	kids := children(spans)
	var shares []float64
	for _, s := range spans {
		if s.Name == root && s.End > s.Start {
			shares = append(shares, float64(s.End-s.Start-covered(s, kids[s.ID]))/float64(s.End-s.Start))
		}
	}
	return median(shares)
}

// write stores the spans, one JSON object a line, followed by a summary line
// with each name's self time. It is called once, when the run ends.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	self := make(map[string]float64)
	for name, d := range selfTimes(l.spans) {
		self[name] = d.Seconds()
	}
	if err := enc.Encode(map[string]any{"self_s": self}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}
