package core

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/mkp"
	"repro/internal/rng"
	"repro/internal/supervise"
	"repro/internal/tabu"
	"repro/internal/trace"
	"repro/internal/transport/inproc"
	"repro/internal/transport/proto"
)

// healer holds the self-healing mechanics the supervisor policy drives: the
// stop/ack handshake with a dying incarnation, the transport revival and warm
// respawn, the cooperative warm-start pool, the heartbeat plumbing and the
// simulated clock the policy reads. The policy itself (budgets, backoff,
// watchdog thresholds) lives in internal/supervise; everything here is the
// engine acting on its verdicts.
// The component exists only when Options.Supervise is armed — the master's
// heal field stays nil otherwise, and the collector and dispatcher check
// for that. Supervision is in-process only, so the healer holds the farm
// itself: it reads crash faults, revives links and launches respawns on it.
type healer struct {
	*slaveTable
	farm  *inproc.Farm
	ins   *mkp.Instance
	opts  *Options
	stats *Stats
	mx    *masterMetrics
	best  *mkp.Solution

	// sv is the restart/backoff/watchdog policy engine. inc[i] is node i+1's
	// current incarnation number; hb[i] is the cell its heartbeat writes
	// (swapped for a fresh one on respawn so a lingering write cannot pollute
	// the successor's watermark); nodeMoves accumulates each node's lifetime
	// kernel moves across incarnations (the warm-start epoch); pool is the
	// merged cooperative B-best pool respawns warm-start from; idle is the
	// simulated time the master spent waiting for a backoff to expire.
	sv        *supervise.Supervisor
	inc       []int
	hb        []*int64
	nodeMoves []int64
	pool      []mkp.Solution
	idle      time.Duration
}

func newHealer(sv *supervise.Supervisor, p int) *healer {
	h := &healer{
		sv:        sv,
		inc:       make([]int, p),
		hb:        make([]*int64, p),
		nodeMoves: make([]int64, p),
	}
	for i := range h.hb {
		h.hb[i] = new(int64)
	}
	return h
}

// heartbeatFor returns the progress-watermark publisher dispatched to node's
// kernel. The closure runs on the slave goroutine, so it captures the cell
// rather than indexing h.hb (which the master swaps on respawn). A node whose
// sends are being swallowed by a crash fault stops publishing: in-process the
// goroutine could still reach shared memory, but a real partitioned process
// could not, and the watchdog must see the same frozen watermark either way.
func (h *healer) heartbeatFor(node int) func(int64) {
	cell := h.hb[node-1]
	farm := h.farm
	return func(moves int64) {
		if farm.Crashed(node) {
			return
		}
		atomic.StoreInt64(cell, moves)
	}
}

// now is the supervisor's clock: Stats.SimElapsed plus the simulated time
// spent idle in awaitRevival. When a node comes back is thus decided by the
// rounds played, never by how fast the host played them.
func (h *healer) now() time.Time {
	return time.Unix(0, 0).Add(h.stats.SimElapsed + h.idle)
}

// noteResult accounts a completed round from node index n: the moves feed
// the lifetime epoch the next incarnation warm-starts from, and the watchdog
// is reset to the watermark the node will freeze at if it dies.
func (h *healer) noteResult(n int, moves int64) {
	h.nodeMoves[n] += moves
	h.sv.NoteProgress(n, atomic.LoadInt64(h.hb[n]))
}

// observe feeds node index n's current heartbeat watermark to the watchdog
// and returns its verdict on a missed rendezvous deadline.
func (h *healer) observe(n int) supervise.Progress {
	return h.sv.Observe(n, atomic.LoadInt64(h.hb[n]))
}

// watermark returns node index n's last published heartbeat watermark.
func (h *healer) watermark(n int) int64 {
	return atomic.LoadInt64(h.hb[n])
}

// superviseRound runs the resurrection window at a round boundary: every
// dead node whose backoff has elapsed and whose budget remains is stopped,
// acknowledged, revived in the transport and respawned warm.
func (h *healer) superviseRound(round int) {
	now := h.now()
	for n := 0; n < h.opts.P; n++ {
		// A departed slot (graceful leave or quarantine) is retired for good:
		// resurrection would re-admit the very worker the master evicted.
		if h.alive[n] || h.departed[n] || !h.sv.Due(n, now) {
			continue
		}
		// The order rides the control plane, so even a crash-faulted node
		// hears it.
		h.farm.SendControl(0, n+1, proto.TagStop, proto.Stop{Inc: h.inc[n], Ack: true}, 0)
		if h.awaitAck(n + 1) {
			h.respawn(n, round)
		}
	}
}

// awaitAck waits for node's stop acknowledgement through the collector's
// receive: in-process that wait ends only once nothing more can arrive, and
// a stopping incarnation always acks, so no grace period is needed. Stale
// round results, which precede the ack on the node's link, are dropped.
func (h *healer) awaitAck(node int) bool {
	for {
		msg, ok := h.farm.RecvTimeout(0, h.opts.SlaveTimeout)
		if !ok {
			return false
		}
		if msg.Tag == proto.TagStopped && msg.From == node {
			return true
		}
	}
}

// respawn replaces node index n's process: the transport link is revived
// (mailbox drained, send counter and crash fault cleared), a fresh
// incarnation is launched with a seed that is a pure function of (run seed,
// node, incarnation) — so restart order never shifts anyone's stream — and
// warm state rebuilt from the master's cooperative pool. The slot's next
// start is drawn from the pool too: the respawned searcher resumes from the
// farm's collective frontier, not from scratch.
func (h *healer) respawn(n, round int) {
	drained := h.farm.Revive(n + 1)
	h.inc[n]++
	h.sv.OnRestart(n, 0)
	h.hb[n] = new(int64)
	h.nodeFail[n] = 0
	h.alive[n] = true
	h.stats.SlaveRestarts++
	h.mx.slaveRestarts.Inc()
	seed := h.opts.Seed ^ (uint64(n+1) << 40) ^ (uint64(h.inc[n]) << 20) ^ 0xD1B54A32D192ED03
	// rng.New(seed).Uint64() reproduces the draw the pre-refactor respawn
	// made when it handed the slave a *rng.Rand: the searcher seed chain is
	// unchanged across the transport refactor.
	go slaveLoop(h.farm, n+1, h.ins, rng.New(seed).Uint64(), h.inc[n], h.warmFor(n), 0)
	if len(h.pool) > 0 {
		pick := (h.inc[n] - 1 + n) % len(h.pool)
		h.starts[n] = h.pool[pick].Clone()
	}
	if h.opts.Tracer != nil {
		h.opts.Tracer.Record(trace.Event{
			Kind: trace.KindSlaveRestart, Actor: -1, Round: round, Value: h.best.Value,
			Detail: fmt.Sprintf("node=%d incarnation=%d restarts=%d drained=%d pool=%d",
				n+1, h.inc[n], h.sv.Restarts(n), drained, len(h.pool)),
		})
	}
}

// warmFor builds the warm-start package for node index n's next incarnation.
// The pool is cloned at the boundary (it crosses into the slave goroutine);
// the epoch is the node's lifetime move count across incarnations, so the
// successor's diversification thresholds see a mature search.
func (h *healer) warmFor(n int) *warmStart {
	if len(h.pool) == 0 && h.nodeMoves[n] == 0 {
		return nil
	}
	w := &warmStart{moves: h.nodeMoves[n]}
	for _, s := range h.pool {
		w.pool = append(w.pool, s.Clone())
	}
	return w
}

// mergePool folds this round's results into the master's cooperative pool:
// every reported best and B-best member, deduplicated by assignment, best
// BBest kept. Only supervised runs pay for it.
func (h *healer) mergePool(results []*tabu.Result) {
	for _, res := range results {
		if res == nil {
			continue
		}
		h.poolAdd(res.Best)
		for _, s := range res.Pool {
			h.poolAdd(s)
		}
	}
}

// poolAdd inserts a solution into the supervised warm pool unless an equal
// assignment is already present, keeping the pool sorted best-first and
// capped at the per-slave B-best size.
func (h *healer) poolAdd(sol mkp.Solution) {
	if sol.X == nil {
		return
	}
	for _, p := range h.pool {
		if p.X.Equal(sol.X) {
			return
		}
	}
	h.pool = append(h.pool, sol.Clone())
	sort.SliceStable(h.pool, func(i, j int) bool { return h.pool[i].Value > h.pool[j].Value })
	if limit := h.opts.Base.BBest; len(h.pool) > limit {
		h.pool = h.pool[:limit]
	}
}

// awaitRevival idles the master until the next dead node's backoff expires
// and runs a resurrection window, so a fully-dead farm can refill instead of
// aborting. The idle time passes on the simulated clock, not the host's. It
// returns false when every dead node has exhausted its restart budget.
func (h *healer) awaitRevival(round int) bool {
	var dead []int
	for i := 0; i < h.opts.P; i++ {
		if !h.alive[i] && !h.departed[i] {
			dead = append(dead, i)
		}
	}
	due, ok := h.sv.NextDue(dead)
	if !ok {
		return false
	}
	h.idle += max(due.Sub(h.now()), 0)
	h.superviseRound(round)
	return true
}
