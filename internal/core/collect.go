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

// collector runs the rendezvous: it waits for the round's dispatched results
// and, on the deadline-driven path, re-dispatches lost rounds and feeds the
// watchdog. It owns the measured per-move cost that calibrates rendezvous
// deadlines.
type collector struct {
	*slaveTable
	net   transport.Transport
	ins   *mkp.Instance
	opts  *Options
	stats *Stats
	mx    *masterMetrics
	disp  *dispatcher
	life  lifecycle
	heal  *healer     // nil unless supervised: ack caching + watchdog observations
	rec   *reconciler // nil unless elastic: membership, steal and gossip state
	best  *mkp.Solution

	// perMove is the measured real cost of one kernel move, the basis of the
	// budget-proportional rendezvous deadline.
	perMove time.Duration
}

// collect is the plain blocking rendezvous used when fault injection is off:
// every dispatched order produces exactly one reply, so the collector waits
// for `dispatched` messages. This is byte-for-byte the pre-fault-tolerance
// behavior — a fault-free run replays bitwise — except that a slave
// reporting an error no longer aborts the whole cooperative run: the slave
// is declared dead and the run degrades. It reports whether any failure
// occurred.
func (c *collector) collect(round, dispatched int, results []*tabu.Result) bool {
	hadFailure := false
	for recvd := 0; recvd < dispatched; recvd++ {
		msg := c.net.Recv(0)
		rep := msg.Payload.(proto.Result)
		if rep.Err != "" {
			c.life.slaveDied(rep.Node-1, round, errors.New(rep.Err))
			c.life.slotFailed(rep.Slot, round)
			hadFailure = true
			continue
		}
		if rep.Slot < 0 || rep.Slot >= len(results) {
			c.life.resultRejected(msg.From-1, round, fmt.Sprintf("slot %d out of range", rep.Slot))
			hadFailure = true
			continue
		}
		if reason := c.vetResult(rep); reason != "" {
			c.life.resultRejected(msg.From-1, round, reason)
			c.life.slotFailed(rep.Slot, round)
			hadFailure = true
			continue
		}
		results[rep.Slot] = rep.Res
		c.mx.results.Inc()
	}
	return hadFailure
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

// collectFaulty is the deadline-driven rendezvous used when fault injection
// is armed, when the supervisor needs watchdog observations, or when slaves
// are remote worker processes (whose deaths only ever manifest as silence).
// Missing results are re-dispatched — first to the original slave (the loss
// may have been a dropped message), then to a live slave that has already
// reported this round — and abandoned once MaxRedispatch re-sends are spent.
// A node that stays silent deadAfterMisses rounds in a row, or reports an
// error, is declared dead and its slot excluded from future rounds.
func (c *collector) collectFaulty(round int, budgets []int64, results []*tabu.Result) bool {
	const (
		pending = iota
		done
		abandoned
	)
	p := c.size()
	if c.rec != nil {
		c.rec.resetRound(round)
	}
	state := make([]int, p)
	attempts := make([]int, p)  // re-sends spent per slot this round
	assigned := make([]int, p)  // node currently responsible for each slot
	timedOut := make([]bool, p) // node already charged a miss this round
	stolen := make([]bool, p)   // slot already handed to a thief this round
	var finished []int          // nodes that reported this round, ascending (borrow candidates)
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

	// A straggler's round becomes stealable once it has been outstanding for
	// half the rendezvous deadline: early enough that a thief's re-run can
	// beat the deadline, late enough that a healthy slot (deadlines are 4×
	// the measured cost) is never stolen and the no-churn run stays
	// equivalent to the static one.
	stealAfter := c.timeoutFor(maxBudget) / 2
	trySteal := func() {
		if c.rec == nil || c.rec.thiefCount() == 0 {
			return
		}
		now := time.Now()
		for s := 0; s < p; s++ {
			if state[s] != pending || stolen[s] {
				continue
			}
			if c.disp.dispatchedAt[s].IsZero() || now.Sub(c.disp.dispatchedAt[s]) < stealAfter {
				continue
			}
			thief, ok := c.rec.takeThief(assigned[s])
			if !ok {
				return
			}
			// assigned[s] stays the original node: the victim still owns the
			// miss if nobody delivers, and first result wins either way.
			if err := c.disp.dispatch(s, thief, round, budgets[s]); err != nil {
				continue
			}
			stolen[s] = true
			c.stats.Steals++
			c.mx.steals.Inc()
			if c.opts.Tracer != nil {
				c.opts.Tracer.Record(trace.Event{
					Kind: trace.KindSteal, Actor: -1, Round: round, Value: c.best.Value,
					Detail: fmt.Sprintf("slot=%d thief=%d victim=%d", s, thief, assigned[s]),
				})
			}
		}
	}

	hadFailure := false
	began := time.Now()
	waitUntil := began.Add(c.timeoutFor(maxBudget))
	for outstanding > 0 {
		if wait := time.Until(waitUntil); wait > 0 {
			// With thieves queued, wake at the earliest moment a pending slot
			// becomes stealable instead of sleeping out the full deadline.
			poll := wait
			if c.rec != nil && c.rec.thiefCount() > 0 {
				now := time.Now()
				for s := 0; s < p; s++ {
					if state[s] != pending || stolen[s] || c.disp.dispatchedAt[s].IsZero() {
						continue
					}
					if d := c.disp.dispatchedAt[s].Add(stealAfter).Sub(now); d < poll {
						poll = d
					}
				}
				if poll < time.Millisecond {
					poll = time.Millisecond
				}
			}
			msg, ok := c.net.RecvTimeout(0, poll)
			if !ok {
				trySteal()
				if time.Now().Before(waitUntil) {
					continue
				}
			} else {
				switch pl := msg.Payload.(type) {
				case proto.Ack:
					// A dying incarnation confirmed its stop after the grace
					// window expired; cache it for the next respawn attempt.
					if c.heal != nil {
						c.heal.cacheAck(pl.Node)
					}
				case proto.Leave:
					// A graceful departure mid-rendezvous: retire the member
					// (never charged to DeadSlaves) and move any round it
					// still owed to another worker.
					if c.rec != nil {
						hadFailure = true
						c.rec.retire(pl.Node, round)
						for s := 0; s < p; s++ {
							if state[s] != pending || assigned[s] != pl.Node {
								continue
							}
							if c.redispatch(s, round, budgets, attempts, assigned, finished, &borrow) {
								waitUntil = time.Now().Add(c.timeoutFor(maxBudget))
							} else {
								state[s] = abandoned
								outstanding--
								c.life.slotFailed(s, round)
							}
						}
					}
				case proto.Gossip:
					if c.rec != nil {
						// A donated solution that fails validation is a strike:
						// honest workers only ever echo or improve feasible
						// state, so a malformed or infeasible donation is a
						// protocol violation, not a timing artifact.
						if reason := c.rec.noteGossip(pl); reason != "" {
							c.life.resultRejected(msg.From-1, round, "gossip: "+reason)
						}
					}
				case proto.Steal:
					if c.rec != nil {
						c.rec.noteSteal(pl)
						trySteal()
					}
				case proto.Result:
					rep := pl
					if rep.Err != "" {
						hadFailure = true
						c.life.slaveDied(rep.Node-1, round, errors.New(rep.Err))
						if s := rep.Slot; s >= 0 && s < p && state[s] == pending {
							if c.redispatch(s, round, budgets, attempts, assigned, finished, &borrow) {
								waitUntil = time.Now().Add(c.timeoutFor(maxBudget))
							} else {
								state[s] = abandoned
								outstanding--
								c.life.slotFailed(s, round)
							}
						}
						continue
					}
					if rep.Round != round {
						continue // stale round: a redispatched order landed late
					}
					if rep.Slot < 0 || rep.Slot >= p {
						// No dispatch ever carried this slot: a hostile stamp,
						// not a timing artifact, so it strikes the sender.
						c.life.resultRejected(msg.From-1, round, fmt.Sprintf("slot %d out of range", rep.Slot))
						continue
					}
					if state[rep.Slot] != pending {
						continue // duplicate, or already-abandoned slot
					}
					if reason := c.vetResult(rep); reason != "" {
						// A result that fails revalidation is treated exactly
						// like a lost one — the slot goes back through the
						// redispatch path — plus a strike for the sender.
						hadFailure = true
						c.life.resultRejected(msg.From-1, round, reason)
						if c.redispatch(rep.Slot, round, budgets, attempts, assigned, finished, &borrow) {
							waitUntil = time.Now().Add(c.timeoutFor(maxBudget))
						} else {
							state[rep.Slot] = abandoned
							outstanding--
							c.life.slotFailed(rep.Slot, round)
						}
						continue
					}
					state[rep.Slot] = done
					results[rep.Slot] = rep.Res
					c.mx.results.Inc()
					outstanding--
					if n := rep.Node - 1; n >= 0 && n < p {
						c.nodeFail[n] = 0
						// Kept in node order, not arrival order, so which
						// node a redispatch borrows does not depend on
						// timing once the same nodes have reported.
						at, _ := slices.BinarySearch(finished, rep.Node)
						finished = slices.Insert(finished, at, rep.Node)
						if c.heal != nil && rep.Res != nil {
							// A result is definitive progress: account the moves
							// and reset the watchdog to the watermark the node
							// will freeze at if it dies.
							c.heal.noteResult(n, rep.Res.Moves)
						}
					}
					// Calibrate the budget-proportional deadline from real
					// arrivals, measured from the slot's own dispatch so waits
					// on other slots don't inflate it; keep the largest
					// observation so transient hiccups can only make later
					// deadlines more generous.
					if rep.Res != nil && rep.Res.Moves > 0 && !c.disp.dispatchedAt[rep.Slot].IsZero() {
						if per := time.Since(c.disp.dispatchedAt[rep.Slot]) / time.Duration(rep.Res.Moves); per > c.perMove {
							c.perMove = per
						}
					}
				default:
					// heartbeat or other non-rendezvous traffic
				}
				continue
			}
		}

		// Deadline expired: every still-pending slot missed the rendezvous.
		hadFailure = true
		progressed := false
		for s := 0; s < p; s++ {
			if state[s] != pending {
				continue
			}
			if c.opts.Tracer != nil {
				c.opts.Tracer.Record(trace.Event{
					Kind: trace.KindSlaveTimeout, Actor: -1, Round: round, Value: c.best.Value,
					Detail: fmt.Sprintf("slot=%d node=%d attempt=%d", s, assigned[s], attempts[s]),
				})
			}
			if n := assigned[s] - 1; n >= 0 && n < p && !timedOut[n] {
				timedOut[n] = true
				charge := true
				if c.heal != nil {
					switch c.heal.observe(n) {
					case supervise.Advanced:
						// The watermark moved: the node is computing, just
						// slower than the deadline. Forgive the silence.
						charge = false
					case supervise.Stalled:
						// Frozen for StallChecks deadline checks in a row:
						// hung, no need to wait out the silent-miss count.
						charge = false
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
					}
				}
				if charge {
					c.nodeFail[n]++
					if c.nodeFail[n] >= deadAfterMisses && c.alive[n] {
						c.life.slaveDied(n, round, nil)
					}
				}
			}
			if c.redispatch(s, round, budgets, attempts, assigned, finished, &borrow) {
				progressed = true
			} else {
				state[s] = abandoned
				outstanding--
				c.life.slotFailed(s, round)
			}
		}
		if progressed {
			waitUntil = time.Now().Add(c.timeoutFor(maxBudget))
		}
	}
	return hadFailure
}

// redispatch re-sends slot's round: the first retry goes back to the slot's
// current node, later ones to live slaves that already reported this round.
// It reports false when the retry budget is spent or no target exists.
func (c *collector) redispatch(slot, round int, budgets []int64, attempts, assigned []int, finished []int, borrow *int) bool {
	for attempts[slot] < c.opts.MaxRedispatch {
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

// timeoutFor returns the rendezvous deadline for a round whose largest slave
// budget is maxBudget. Until a round has completed, the configured
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
