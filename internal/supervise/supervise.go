// Package supervise implements the slave-lifecycle policy behind the
// master's self-healing farm: per-node restart budgets, capped exponential
// backoff with seeded jitter, and a progress-watermark watchdog that tells a
// hung slave from a merely slow one.
//
// The package is deliberately pure bookkeeping: it never spawns goroutines,
// never reads the clock (callers pass `now` in — the in-process master passes
// its simulated clock), and draws jitter from per-node streams split from one
// seeded generator at construction. Two supervisors built with the same
// (Policy, n, seed) therefore make the same decisions for the same
// observation sequence regardless of how the farm's goroutines interleave —
// which is what makes a supervised chaos run reproducible. The master in
// internal/core owns the actual respawn mechanics (stop/ack handshake, farm
// revival, warm start); this package only answers "may node i be restarted
// now, and how long must the next death wait?".
package supervise

import (
	"fmt"
	"time"

	"repro/internal/rng"
)

// Policy configures the supervisor. The zero value is NOT usable; call
// WithDefaults (internal callers) or leave fields zero and let the parallel
// layer default them. Durations are read on whatever clock the caller passes
// as `now`: the in-process master passes simulated time (the paper-platform
// duration of the rounds played plus simulated idle), so a backoff there is
// a number of rounds, not host time. A stop order needs no grace period: the
// master waits for the acknowledgement until nothing more can arrive.
type Policy struct {
	// MaxRestarts is the per-node restart budget: how many times one node may
	// be resurrected over the whole run. Once spent, the node stays dead and
	// the run degrades permanently, exactly as without supervision.
	// Default 3.
	MaxRestarts int
	// BaseBackoff is the delay before the first restart of a node; each
	// subsequent death of the same node doubles it (capped by MaxBackoff).
	// Default 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff. Default 5s.
	MaxBackoff time.Duration
	// Jitter randomizes each backoff by ±Jitter (a fraction in [0, 1)), so a
	// mass failure does not resurrect every node in the same instant. The
	// draws come from per-node seeded streams and are reproducible.
	// Default 0.2.
	Jitter float64
	// StallChecks is how many consecutive rendezvous-deadline checks a node's
	// progress watermark may stay frozen before the watchdog declares it hung.
	// A node whose watermark advances is never charged, no matter how many
	// deadlines it misses — it is slow, not dead. Default 2.
	StallChecks int
}

// WithDefaults fills unset fields with the documented defaults.
func (p Policy) WithDefaults() Policy {
	if p.MaxRestarts <= 0 {
		p.MaxRestarts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = p.BaseBackoff
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.StallChecks <= 0 {
		p.StallChecks = 2
	}
	return p
}

// Validate rejects policies the supervisor cannot execute.
func (p *Policy) Validate() error {
	if p.MaxRestarts < 0 {
		return fmt.Errorf("supervise: MaxRestarts %d < 0", p.MaxRestarts)
	}
	if p.Jitter < 0 || p.Jitter >= 1 {
		return fmt.Errorf("supervise: Jitter %v outside [0,1)", p.Jitter)
	}
	if p.BaseBackoff < 0 || p.MaxBackoff < 0 {
		return fmt.Errorf("supervise: negative backoff")
	}
	if p.BaseBackoff > 0 && p.MaxBackoff > 0 && p.MaxBackoff < p.BaseBackoff {
		return fmt.Errorf("supervise: MaxBackoff %v < BaseBackoff %v", p.MaxBackoff, p.BaseBackoff)
	}
	return nil
}

// Progress classifies one watchdog observation of a node's watermark.
type Progress int

const (
	// Advanced: the watermark moved since the last check — the node is
	// computing (slow, not hung) and must not be charged a silent miss.
	Advanced Progress = iota
	// Frozen: no progress since the last check, but still under the stall
	// threshold. The usual silent-miss accounting applies.
	Frozen
	// Stalled: frozen for StallChecks consecutive checks — the watchdog
	// trips and the node should be declared hung.
	Stalled
)

func (p Progress) String() string {
	switch p {
	case Advanced:
		return "advanced"
	case Frozen:
		return "frozen"
	case Stalled:
		return "stalled"
	default:
		return fmt.Sprintf("Progress(%d)", int(p))
	}
}

// nodeState is the supervisor's per-node bookkeeping.
type nodeState struct {
	restarts     int       // restarts already performed
	backoffUntil time.Time // earliest allowed respawn after the latest death
	watermark    int64     // last progress watermark seen by the watchdog
	frozen       int       // consecutive frozen watchdog checks
	jr           *rng.Rand // per-node jitter stream (order-independent draws)
}

// Supervisor tracks restart budgets, backoff windows and watchdog state for
// n nodes. It is not safe for concurrent use; the master owns it.
type Supervisor struct {
	pol   Policy
	nodes []nodeState
}

// New builds a supervisor for n nodes. The policy is defaulted and the
// jitter streams are split from seed up front, so draw order for one node
// never depends on which other nodes died first.
func New(pol Policy, n int, seed uint64) *Supervisor {
	pol = pol.WithDefaults()
	root := rng.New(seed)
	s := &Supervisor{pol: pol, nodes: make([]nodeState, n)}
	for i := range s.nodes {
		s.nodes[i].jr = root.Split()
	}
	return s
}

// OnDeath records that node died at now: the next respawn may happen no
// earlier than now plus the node's current backoff. Calling it for a node
// that is already waiting does not extend the window (a death is one event,
// however many symptoms report it).
func (s *Supervisor) OnDeath(node int, now time.Time) {
	st := &s.nodes[node]
	if !st.backoffUntil.IsZero() && st.backoffUntil.After(now) {
		return
	}
	st.backoffUntil = now.Add(s.backoffFor(st))
}

// backoffFor computes min(Base << restarts, Max) scaled by a ±Jitter factor
// drawn from the node's private stream.
func (s *Supervisor) backoffFor(st *nodeState) time.Duration {
	k := uint(st.restarts)
	if k > 30 {
		k = 30
	}
	d := s.pol.BaseBackoff << k
	if d <= 0 || d > s.pol.MaxBackoff {
		d = s.pol.MaxBackoff
	}
	if s.pol.Jitter > 0 {
		// factor in [1-Jitter, 1+Jitter)
		f := 1 + s.pol.Jitter*(2*st.jr.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Exhausted reports whether node has spent its restart budget.
func (s *Supervisor) Exhausted(node int) bool {
	return s.nodes[node].restarts >= s.pol.MaxRestarts
}

// Due reports whether node may be respawned at now: budget remaining and
// backoff window elapsed.
func (s *Supervisor) Due(node int, now time.Time) bool {
	st := &s.nodes[node]
	return st.restarts < s.pol.MaxRestarts && !now.Before(st.backoffUntil)
}

// NextDue returns the earliest instant at which any of the given dead nodes
// becomes due, and ok=false when every one of them has exhausted its budget.
func (s *Supervisor) NextDue(dead []int) (time.Time, bool) {
	var best time.Time
	found := false
	for _, n := range dead {
		st := &s.nodes[n]
		if st.restarts >= s.pol.MaxRestarts {
			continue
		}
		if !found || st.backoffUntil.Before(best) {
			best, found = st.backoffUntil, true
		}
	}
	return best, found
}

// OnRestart consumes one unit of node's restart budget and resets the
// watchdog state for the fresh incarnation.
func (s *Supervisor) OnRestart(node int, watermark int64) {
	st := &s.nodes[node]
	st.restarts++
	st.watermark = watermark
	st.frozen = 0
}

// Restarts returns how many times node has been respawned.
func (s *Supervisor) Restarts(node int) int { return s.nodes[node].restarts }

// Observe feeds the watchdog one deadline-check observation of node's
// progress watermark and classifies it. A frozen watermark accumulates
// toward Stalled; any advancement resets the count.
func (s *Supervisor) Observe(node int, watermark int64) Progress {
	st := &s.nodes[node]
	if watermark != st.watermark {
		st.watermark = watermark
		st.frozen = 0
		return Advanced
	}
	st.frozen++
	if st.frozen >= s.pol.StallChecks {
		st.frozen = 0
		return Stalled
	}
	return Frozen
}

// NoteProgress records a known-good watermark (a result arrived from the
// node) without charging the watchdog, so the next deadline check starts
// from fresh state.
func (s *Supervisor) NoteProgress(node int, watermark int64) {
	st := &s.nodes[node]
	st.watermark = watermark
	st.frozen = 0
}
