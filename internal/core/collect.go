package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/mkp"
	"repro/internal/supervise"
	"repro/internal/tabu"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/proto"
	"repro/internal/transport/wire"
)

// lifecycle is the narrow interface the collector reports failures through:
// declaring a node dead, writing off a slot's round and striking a node whose
// payload failed revalidation are engine-level decisions (they touch
// supervision, quarantine, stats and tracing), so the collector hands them up
// instead of owning them.
type lifecycle interface {
	slaveDied(node, round int, err error)
	slotFailed(slot, round int)
	resultRejected(node, round int, reason string)
}

// collector runs the rendezvous: it waits for the round's dispatched results,
// re-dispatches lost rounds and feeds the watchdog.
type collector struct {
	*slaveTable
	net   transport.Hub
	ins   *mkp.Instance
	opts  *Options
	stats *Stats
	mx    *masterMetrics
	disp  *dispatcher
	life  lifecycle
	heal  *healer     // nil unless supervised: watchdog observations
	rec   *reconciler // nil unless elastic: membership and gossip state; steals only happen then
	best  *mkp.Solution

	// fleet is the master's wire fleet, nil in-process. On a fleet waits end
	// at deadlines priced by perMove, the measured cost of one kernel move.
	// In-process the farm ends a wait, and the collector reads no clock.
	fleet   *wire.Fleet
	perMove time.Duration
}

// vetResult revalidates a reported round result before it can touch the
// incumbent, the pool or the tuner — the same trust boundary noteGossip
// applies to donated solutions. The claimed value is recomputed from the
// shipped bits and feasibility is checked against the instance, so a confused
// or hostile worker can never poison the run with an inflated number or an
// over-capacity assignment. Vetting is pure (no RNG draws, no mutation), so
// the fault-free bitwise-replay contract is untouched; honest workers always
// pass. It returns "" for a good result or the reject reason.
func (c *collector) vetResult(rep proto.Result) string {
	res := rep.Res
	if res == nil {
		return "missing result body"
	}
	if res.Best.X == nil || res.Best.X.Len() != c.ins.N {
		return "malformed assignment"
	}
	if !mkp.IsFeasibleAssignment(c.ins, res.Best.X) {
		return "infeasible assignment"
	}
	// The kernel accumulates its value incrementally; allow float dust, but
	// nothing a forger could exploit (profits are integral in every generator).
	value := mkp.ValueOf(c.ins, res.Best.X)
	if math.Abs(value-res.Best.Value) > 1e-6*math.Max(1, math.Abs(value)) {
		return fmt.Sprintf("forged value (claimed %g, bits are worth %g)", res.Best.Value, value)
	}
	return ""
}

// deadAfterMisses is how many consecutive completely-silent rounds a node
// may have before the master declares it dead. On a merely lossy link a
// whole round of silence means every attempt to the node was dropped —
// unlucky but recoverable — so one or two are forgiven; a crashed node is
// silent every round and crosses the threshold immediately.
const deadAfterMisses = 3

// maxRedispatch is how many times one slot's round may be re-sent after a
// missed rendezvous before the round is abandoned for that slot: once to the
// original slave, once to a borrowed live slave.
const maxRedispatch = 2

// quarantineStrikes is how many revalidation failures (forged or infeasible
// results, malformed gossip) one worker may accumulate before the master
// quarantines it: the node is marked departed, excluded from dispatch and
// borrowing, and — on a wire fleet — its connection is torn down via the
// leave ledger so it is never counted as a crash. Honest workers never
// strike: the master recomputes each claimed value from the shipped bits, so
// only a worker whose payloads lie about their own contents can accumulate
// strikes.
const quarantineStrikes = 3

// collect runs one rendezvous (the synchronous centralized scheme, §4.2): it
// waits for the round's dispatched results and reports whether any failure
// occurred. A receive that returns nothing ends a wait with slots still
// pending: on the in-process farm that happens exactly when nothing more can
// arrive, on a wire fleet when the deadline passes. There, TCP loses nothing
// on a live connection: a slot whose member is still live is missed only once
// SlaveTimeout has passed since its order went out. Each missed slot is then
// re-dispatched — first to its own slave (the loss may have been a dropped
// message), then to a live slave that has already reported this round — and
// abandoned once maxRedispatch re-sends are spent. On an elastic fleet a
// straggler's slot is also stolen before the deadline, lent early to a node
// that has already reported. A node that stays silent deadAfterMisses rounds
// in a row is declared dead, as is one that reports an error; an error also
// abandons that slot's round. Traffic is attributed to the sender the
// transport stamped (Message.From), never to the node a payload names.
func (c *collector) collect(round int, budgets []int64, results []*tabu.Result) bool {
	const (
		pending = iota
		done
		abandoned
	)
	p := c.size()
	state := make([]int, p)
	attempts := make([]int, p)  // re-sends spent per slot this round
	assigned := make([]int, p)  // node currently responsible for each slot
	timedOut := make([]bool, p) // node already charged a miss this round
	var finished []int          // nodes that reported a pending slot this round, ascending (borrow candidates)
	borrow := 0
	outstanding := 0
	var maxBudget int64
	for i := 0; i < p; i++ {
		assigned[i] = i + 1
		if c.alive[i] {
			outstanding++
			if budgets[i] > maxBudget {
				maxBudget = budgets[i]
			}
		} else {
			state[i] = abandoned
		}
	}

	var deadline time.Time
	rearm := func() {
		if c.fleet != nil {
			deadline = time.Now().Add(c.timeoutFor(maxBudget))
		}
	}
	rearm()

	// A straggler's round becomes stealable once it has been outstanding for
	// half the rendezvous deadline: early enough that a thief's re-run can
	// beat the deadline, late enough that a healthy slot (deadlines are 4×
	// the measured cost) is never stolen and the no-churn run stays
	// equivalent to the static one. A steal is an early borrow: the thief is
	// the first node in finished that is live, is not the slot's node and
	// holds no stolen order it has not answered yet. Only an elastic fleet
	// steals.
	stealAfter := c.timeoutFor(maxBudget) / 2
	thiefOf := make([]int, p)  // per slot: the node holding its stolen order, 0 if none
	robbing := make([]bool, p) // per node index: holds a stolen order not yet answered
	thief := func(victim int) int {
		for _, n := range finished {
			if n != victim && c.alive[n-1] && !robbing[n-1] {
				return n
			}
		}
		return 0
	}
	// stealable returns the thief for slot s and when it may steal: a
	// pending, unstolen slot is stealable from its dispatch plus stealAfter.
	// n is 0 while the slot cannot be stolen.
	stealable := func(s int) (at time.Time, n int) {
		at = c.disp.dispatchedAt[s]
		if c.rec == nil || state[s] != pending || thiefOf[s] != 0 || at.IsZero() {
			return at, 0
		}
		return at.Add(stealAfter), thief(assigned[s])
	}
	trySteal := func() {
		if c.rec == nil {
			return
		}
		now := time.Now()
		for s := 0; s < p; s++ {
			at, n := stealable(s)
			if n == 0 || now.Before(at) {
				continue
			}
			// assigned[s] stays the original node: the victim still owns the
			// miss if nobody delivers, and first result wins either way.
			if err := c.disp.dispatch(s, n, round, budgets[s]); err != nil {
				continue
			}
			thiefOf[s] = n
			robbing[n-1] = true
			c.stats.Steals++
			c.mx.steals.Inc()
			if c.opts.Tracer != nil {
				c.opts.Tracer.Record(trace.Event{
					Kind: trace.KindSteal, Actor: -1, Round: round, Value: c.best.Value,
					Detail: fmt.Sprintf("slot=%d thief=%d victim=%d", s, n, assigned[s]),
				})
			}
		}
	}

	// retry re-dispatches slot s or, with its re-sends spent, abandons it. It
	// reports whether the slot is in flight again.
	retry := func(s int) bool {
		if c.redispatch(s, round, budgets, attempts, assigned, finished, &borrow) {
			return true
		}
		state[s] = abandoned
		outstanding--
		c.life.slotFailed(s, round)
		return false
	}

	hadFailure := false
	for outstanding > 0 {
		// In-process the wait is nominal: the farm ignores it.
		wait := c.opts.SlaveTimeout
		poll := wait
		if c.fleet != nil {
			wait = time.Until(deadline)
			poll = max(wait, 0)
			// Wake at the earliest moment a pending slot becomes stealable
			// instead of sleeping out the deadline.
			for s := 0; s < p; s++ {
				if at, n := stealable(s); n != 0 {
					poll = max(min(poll, time.Until(at)), time.Millisecond)
				}
			}
		}
		msg, ok := c.net.RecvTimeout(poll)
		if !ok {
			trySteal()
			if poll < wait {
				continue // a steal poll, not the deadline
			}
			// The wait is over: every still-pending slot whose member cannot
			// still answer missed the rendezvous.
			progressed := false
			for s := 0; s < p; s++ {
				if state[s] != pending {
					continue
				}
				if c.fleet != nil && c.fleet.MemberState(assigned[s]) == wire.MemberLive &&
					time.Since(c.disp.dispatchedAt[s]) < c.opts.SlaveTimeout {
					progressed = true // slow, not lost: keep waiting
					continue
				}
				hadFailure = true
				if c.opts.Tracer != nil {
					c.opts.Tracer.Record(trace.Event{
						Kind: trace.KindSlaveTimeout, Actor: -1, Round: round, Value: c.best.Value,
						Detail: fmt.Sprintf("slot=%d node=%d attempt=%d", s, assigned[s], attempts[s]),
					})
				}
				if n := assigned[s] - 1; n >= 0 && n < p && !timedOut[n] {
					timedOut[n] = true
					c.chargeMiss(n, round)
				}
				if retry(s) {
					progressed = true
				}
			}
			if progressed {
				rearm()
			}
			continue
		}

		from := msg.From
		switch pl := msg.Payload.(type) {
		case proto.Leave:
			// A graceful departure mid-rendezvous: retire the member (never
			// charged to DeadSlaves) and move any round it still owed to
			// another worker.
			if c.rec != nil {
				c.checkIdentity(from, pl.Node, round)
				hadFailure = true
				c.rec.retire(from, round)
				for s := 0; s < p; s++ {
					if state[s] == pending && assigned[s] == from && retry(s) {
						rearm()
					}
				}
			}
		case proto.Gossip:
			if c.rec != nil {
				// A donated solution that fails validation is a strike:
				// honest workers only ever echo or improve feasible state, so
				// a malformed or infeasible donation is a protocol violation,
				// not a timing artifact.
				if reason := c.rec.noteGossip(pl); reason != "" {
					c.life.resultRejected(from-1, round, "gossip: "+reason)
				}
			}
		case proto.Result:
			rep := pl
			c.checkIdentity(from, rep.Node, round)
			if rep.Round != round {
				continue // stale round: a redispatched or duplicated order landed late
			}
			if rep.Err != "" {
				// The slave's own error ends its slot's round: re-running the
				// same order elsewhere would only repeat it.
				hadFailure = true
				c.life.slaveDied(from-1, round, errors.New(rep.Err))
				if s := rep.Slot; s >= 0 && s < p && state[s] == pending {
					state[s] = abandoned
					outstanding--
					c.life.slotFailed(s, round)
				}
				continue
			}
			if rep.Slot < 0 || rep.Slot >= p {
				// No dispatch ever carried this slot: a hostile stamp, not a
				// timing artifact, so it strikes the sender.
				c.life.resultRejected(from-1, round, fmt.Sprintf("slot %d out of range", rep.Slot))
				continue
			}
			if thiefOf[rep.Slot] == from {
				robbing[from-1] = false // the thief answered: free to steal again
			}
			if state[rep.Slot] != pending {
				trySteal()
				continue // duplicate, or already-abandoned slot
			}
			if reason := c.vetResult(rep); reason != "" {
				// A result that fails revalidation is treated exactly like a
				// lost one — the slot goes back through the redispatch path —
				// plus a strike for the sender.
				hadFailure = true
				c.life.resultRejected(from-1, round, reason)
				if retry(rep.Slot) {
					rearm()
				}
				continue
			}
			state[rep.Slot] = done
			results[rep.Slot] = rep.Res
			c.mx.results.Inc()
			outstanding--
			if n := from - 1; n >= 0 && n < p {
				c.nodeFail[n] = 0
				// Kept in node order, not arrival order, so which node a
				// redispatch borrows does not depend on timing once the same
				// nodes have reported.
				at, _ := slices.BinarySearch(finished, from)
				finished = slices.Insert(finished, at, from)
				if c.heal != nil && rep.Res != nil {
					// A result is definitive progress: account the moves and
					// reset the watchdog to the watermark the node will freeze
					// at if it dies.
					c.heal.noteResult(n, rep.Res.Moves)
				}
			}
			// Calibrate the budget-proportional deadline from real arrivals,
			// measured from the slot's own dispatch so waits on other slots
			// don't inflate it; keep the largest observation so transient
			// hiccups can only make later deadlines more generous.
			if c.fleet != nil && rep.Res != nil && rep.Res.Moves > 0 && !c.disp.dispatchedAt[rep.Slot].IsZero() {
				if per := time.Since(c.disp.dispatchedAt[rep.Slot]) / time.Duration(rep.Res.Moves); per > c.perMove {
					c.perMove = per
				}
			}
			trySteal()
		default:
			// heartbeat, a late stop ack, or other non-rendezvous traffic
		}
	}
	return hadFailure
}

// chargeMiss books node index n's silence through a whole wait. Under
// supervision the watchdog reads the node's progress watermark first: a
// node that advanced is computing, only slower than the deadline, and is
// forgiven; one frozen for StallChecks checks in a row is hung and declared
// dead at once. Otherwise the silence counts toward deadAfterMisses.
func (c *collector) chargeMiss(n, round int) {
	if c.heal != nil {
		switch c.heal.observe(n) {
		case supervise.Advanced:
			return
		case supervise.Stalled:
			c.stats.WatchdogTrips++
			c.mx.watchdogTrips.Inc()
			if c.opts.Tracer != nil {
				c.opts.Tracer.Record(trace.Event{
					Kind: trace.KindWatchdogTrip, Actor: -1, Round: round, Value: c.best.Value,
					Detail: fmt.Sprintf("node=%d watermark frozen at %d", n+1, c.heal.watermark(n)),
				})
			}
			if c.alive[n] {
				c.life.slaveDied(n, round, nil)
			}
			return
		}
	}
	c.nodeFail[n]++
	if c.nodeFail[n] >= deadAfterMisses && c.alive[n] {
		c.life.slaveDied(n, round, nil)
	}
}

// checkIdentity strikes a sender whose payload names another node. Honest
// workers always name themselves, so a mismatch is a forgery, never a timing
// artifact; the message is still handled as the sender's own.
func (c *collector) checkIdentity(from, claimed, round int) {
	if claimed != from {
		c.life.resultRejected(from-1, round, fmt.Sprintf("forged identity: claims node %d", claimed))
	}
}

// redispatch re-sends slot's round: the first retry goes back to the slot's
// current node, later ones to live slaves that already reported this round.
// It reports false when the retry budget is spent or no target exists.
func (c *collector) redispatch(slot, round int, budgets []int64, attempts, assigned []int, finished []int, borrow *int) bool {
	for attempts[slot] < maxRedispatch {
		attempts[slot]++
		node := assigned[slot]
		if attempts[slot] > 1 || !c.alive[node-1] {
			// The original slave already had its chance (or is dead):
			// borrow a live one that proved responsive this round. A node
			// that reported and was then declared dead or quarantined is
			// skipped — "finished" is a history, not a liveness promise.
			borrowed := 0
			for tries := 0; tries < len(finished); tries++ {
				cand := finished[*borrow%len(finished)]
				*borrow++
				if cand >= 1 && cand <= c.size() && c.alive[cand-1] {
					borrowed = cand
					break
				}
			}
			if borrowed != 0 {
				node = borrowed
			} else if !c.alive[node-1] {
				continue // no live borrow target yet; spend another attempt
			}
		}
		assigned[slot] = node
		c.stats.Redispatches++
		c.mx.redispatches.Inc()
		if c.opts.Tracer != nil {
			c.opts.Tracer.Record(trace.Event{
				Kind: trace.KindRedispatch, Actor: -1, Round: round, Value: c.best.Value,
				Detail: fmt.Sprintf("slot=%d node=%d attempt=%d", slot, node, attempts[slot]),
			})
		}
		if err := c.disp.dispatch(slot, node, round, budgets[slot]); err == nil {
			return true
		}
	}
	return false
}

// timeoutFor returns the wire rendezvous deadline for a round whose largest
// slave budget is maxBudget. Until a round has completed, the configured
// SlaveTimeout cap applies; afterwards the deadline is proportional to the
// round's move budget via the measured per-move cost — a virtual-time
// deadline that tracks budget changes instead of a fixed wall clock — and
// SlaveTimeout remains the upper bound.
func (c *collector) timeoutFor(maxBudget int64) time.Duration {
	if c.perMove > 0 && maxBudget > 0 {
		est := 4*time.Duration(maxBudget)*c.perMove + 100*time.Millisecond
		if est < c.opts.SlaveTimeout {
			return est
		}
	}
	return c.opts.SlaveTimeout
}
