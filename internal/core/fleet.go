package core

import (
	"fmt"
	"time"

	"repro/internal/backoff"
	"repro/internal/mkp"
	"repro/internal/rng"
	"repro/internal/tabu"
	"repro/internal/trace"
	"repro/internal/transport/proto"
	"repro/internal/transport/wire"
)

// reconciler is the healer generalized to fleet level: where the healer
// resurrects the fixed slaves it was born with, the reconciler drives the
// slot table toward the DESIRED fleet size (Options.P) from whatever members
// the elastic wire fleet currently has. At every round boundary it retires
// graceful leavers (never charged to DeadSlaves), declares crashed members
// dead immediately (their connection state says so — no need to wait out
// deadAfterMisses rounds of silence), and admits queued joiners into fresh
// slots while live membership is below the desired size. It also owns the
// fleet epoch — bumped on every membership change and every global-best
// broadcast — and the round's donated-solution state the collector feeds.
type reconciler struct {
	*slaveTable
	fleet *wire.Fleet
	ins   *mkp.Instance
	opts  *Options
	stats *Stats
	mx    *masterMetrics
	disp  *dispatcher
	life  lifecycle
	best  *mkp.Solution

	// masterR is the master's private stream: the initial cohort draws its
	// strategies and starts from it in node order, exactly the sequence a
	// static run draws, which is what makes a never-churning elastic run
	// value-equivalent to the static one. elasticR is a separate stream
	// drawn once at build time; post-assembly joiners draw from it so churn
	// never shifts the master stream.
	masterR  *rng.Rand
	elasticR *rng.Rand

	epoch        uint64
	pendingJoins []int
	gossip       mkp.Solution // best validated worker-donated solution this round, cleared by foldGossip
}

// elasticSeed is the searcher seed for nodes beyond the pre-split desired-P
// block: a pure function of (run seed, node id), like the healer's respawn
// seeds, so an admission replays deterministically.
func elasticSeed(runSeed uint64, node int) uint64 {
	return rng.New(runSeed ^ uint64(node)<<32 ^ 0x9E3779B97F4A7C15).Uint64()
}

func (rc *reconciler) bumpEpoch() {
	rc.epoch++
	rc.stats.Epoch = rc.epoch
	rc.fleet.SetEpoch(rc.epoch)
	rc.mx.fleetEpoch.Set(float64(rc.epoch))
}

func (rc *reconciler) liveCount() int {
	n := 0
	for _, ok := range rc.alive {
		if ok {
			n++
		}
	}
	return n
}

// assemble waits for the initial cohort (Elastic.Min members within
// JoinGrace), admits up to the desired P of them in node order with state
// drawn from the master stream, and seeds the global best from their starts —
// the elastic equivalent of newMaster's static initialization. Joiners beyond
// the desired size stay queued for later admission.
func (rc *reconciler) assemble() error {
	began := time.Now()
	cfg := rc.opts.Elastic
	rc.fleet.WaitJoins(nil, cfg.Min, cfg.JoinGrace)
	rc.pendingJoins = append(rc.pendingJoins, rc.fleet.TakeJoins()...)

	admitted := 0
	queued := rc.pendingJoins[:0]
	for _, node := range rc.pendingJoins {
		if admitted >= rc.opts.P {
			queued = append(queued, node)
			continue
		}
		if rc.fleet.MemberState(node) != wire.MemberLive {
			continue
		}
		rc.growSlot(node)
		rc.seat(node-1, tabu.RandomStrategy(rc.ins.N, rc.masterR), mkp.RandomFeasible(rc.ins, rc.masterR), rc.opts)
		admitted++
	}
	rc.pendingJoins = queued
	if admitted < cfg.Min {
		return fmt.Errorf("core: only %d of the required %d workers joined the fleet within %s", admitted, cfg.Min, cfg.JoinGrace)
	}

	first := true
	for slot := 0; slot < rc.size(); slot++ {
		if !rc.alive[slot] {
			continue
		}
		if first || rc.starts[slot].Value > rc.best.Value {
			*rc.best = rc.starts[slot].Clone()
			first = false
		}
	}
	rc.mx.bestValue.Set(rc.best.Value)
	rc.mx.fleetLive.Set(float64(admitted))
	rc.stats.Assembled = time.Since(began)
	return nil
}

// growSlot extends the slot table (and the dispatcher's timestamp column)
// to cover the given node id.
func (rc *reconciler) growSlot(node int) {
	rc.growTo(node)
	for len(rc.disp.dispatchedAt) < node {
		rc.disp.dispatchedAt = append(rc.disp.dispatchedAt, time.Time{})
	}
}

// reconcile runs the fleet-level healing pass at a round boundary: sync the
// slot table with the fleet's connection states, then admit queued joiners
// while live membership is below the desired size.
func (rc *reconciler) reconcile(round int) {
	rc.pendingJoins = append(rc.pendingJoins, rc.fleet.TakeJoins()...)
	for slot := 0; slot < rc.size(); slot++ {
		if !rc.admitted[slot] || rc.departed[slot] {
			continue
		}
		switch rc.fleet.MemberState(slot + 1) {
		case wire.MemberLeft:
			rc.retire(slot+1, round)
		case wire.MemberDead:
			// The connection died without a Leave: a crash, detected at wire
			// speed instead of after deadAfterMisses silent rounds. slaveDied
			// is idempotent per node, so a crash the collector already
			// charged is not double-counted.
			if rc.alive[slot] {
				rc.life.slaveDied(slot, round, nil)
			}
		}
	}
	for rc.liveCount() < rc.opts.P && len(rc.pendingJoins) > 0 {
		node := rc.pendingJoins[0]
		rc.pendingJoins = rc.pendingJoins[1:]
		if rc.fleet.MemberState(node) != wire.MemberLive {
			continue
		}
		rc.admit(node, round)
	}
	rc.mx.fleetLive.Set(float64(rc.liveCount()))
}

// admit grants a queued joiner a fresh slot mid-run: strategy from the
// elastic stream (the master stream never shifts under churn), start from
// the global best (the warmest state in hand; ISP takes over from there),
// and a Gossip carrying the incumbent under the freshly bumped epoch.
func (rc *reconciler) admit(node, round int) {
	rc.growSlot(node)
	rc.seat(node-1, tabu.RandomStrategy(rc.ins.N, rc.elasticR), rc.best.Clone(), rc.opts)
	rc.stats.Joins++
	rc.mx.joins.Inc()
	rc.bumpEpoch()
	rc.fleet.Send(0, node, proto.TagGossip,
		proto.Gossip{Epoch: rc.epoch, Best: *rc.best}, proto.SolutionSize(rc.ins.N))
	if rc.opts.Tracer != nil {
		rc.opts.Tracer.Record(trace.Event{
			Kind: trace.KindJoin, Actor: -1, Round: round, Value: rc.best.Value,
			Detail: fmt.Sprintf("node=%d name=%q live=%d epoch=%d", node, rc.fleet.MemberName(node), rc.liveCount(), rc.epoch),
		})
	}
}

// retire marks a graceful leaver's slot departed. Unlike a death, a retire
// is never charged to DeadSlaves — and a node the collector already declared
// dead (alive=false) whose Leave arrives late is not charged to Leaves
// either: each departure lands in exactly one ledger.
func (rc *reconciler) retire(node, round int) {
	slot := node - 1
	if slot < 0 || slot >= rc.size() || !rc.admitted[slot] || rc.departed[slot] {
		return
	}
	rc.departed[slot] = true
	if !rc.alive[slot] {
		return
	}
	rc.alive[slot] = false
	rc.stats.Leaves++
	rc.mx.leaves.Inc()
	rc.bumpEpoch()
	if rc.opts.Tracer != nil {
		rc.opts.Tracer.Record(trace.Event{
			Kind: trace.KindLeave, Actor: -1, Round: round, Value: rc.best.Value,
			Detail: fmt.Sprintf("node=%d live=%d epoch=%d", node, rc.liveCount(), rc.epoch),
		})
	}
}

// joinPollBackoff paces awaitJoin's membership polling: the same jittered
// exponential policy the wire dialer retries under, so an empty fleet is
// checked eagerly at first and lazily once the wait drags on.
var joinPollBackoff = backoff.Policy{Base: 25 * time.Millisecond, Cap: 400 * time.Millisecond, Jitter: 0.2}

// awaitJoin blocks until a joiner can be admitted (true) or JoinGrace
// expires (false) — the elastic analogue of the healer's awaitRevival, for
// the moment every admitted worker is gone but the run need not be: fresh
// capacity may be dialing in right now.
func (rc *reconciler) awaitJoin(round int) bool {
	deadline := time.Now().Add(rc.opts.Elastic.JoinGrace)
	bo := joinPollBackoff.Timer(backoff.Seed(rc.opts.Elastic.Listen))
	for {
		rc.reconcile(round)
		if rc.liveCount() > 0 {
			return true
		}
		until := time.Until(deadline)
		if until <= 0 {
			return false
		}
		wait := bo.Next()
		if wait > until {
			wait = until
		}
		time.Sleep(wait)
	}
}

// noteGossip validates a worker-donated solution and keeps the round's best.
// The value is recomputed and feasibility checked against the instance — a
// confused or hostile worker must never be able to poison the global best —
// and epochs from the future (beyond anything this master ever published)
// are rejected outright. It returns "" when the donation was accepted (or
// benignly superseded) and the reject reason otherwise; every reason names a
// protocol violation an honest worker cannot commit, so the collector counts
// it as a strike against the sender.
func (rc *reconciler) noteGossip(g proto.Gossip) string {
	if g.Epoch > rc.epoch {
		return "future epoch"
	}
	if g.Best.X == nil || g.Best.X.Len() != rc.ins.N {
		return "malformed assignment"
	}
	if !mkp.IsFeasibleAssignment(rc.ins, g.Best.X) {
		return "infeasible assignment"
	}
	sol := mkp.Solution{X: g.Best.X, Value: mkp.ValueOf(rc.ins, g.Best.X)}
	if rc.gossip.X == nil || sol.Value > rc.gossip.Value {
		rc.gossip = sol
	}
	return ""
}

// foldGossip merges the round's best donated solution into the global best.
// The fold is monotone and runs after the results fold, so on a quiescent
// fleet (no churn, no donations) it is inert — the equivalence guarantee.
func (rc *reconciler) foldGossip() {
	if rc.gossip.X != nil && rc.gossip.Value > rc.best.Value {
		*rc.best = rc.gossip.Clone()
	}
	rc.gossip = mkp.Solution{}
}

// broadcastBest publishes an improved incumbent to every live member under a
// freshly bumped epoch — the asynchronous best-propagation channel that
// replaces "wait for the next rendezvous to learn the best".
func (rc *reconciler) broadcastBest(round int) {
	rc.bumpEpoch()
	sent := rc.fleet.Broadcast(proto.TagGossip,
		proto.Gossip{Epoch: rc.epoch, Best: *rc.best}, proto.SolutionSize(rc.ins.N))
	if rc.opts.Tracer != nil {
		rc.opts.Tracer.Record(trace.Event{
			Kind: trace.KindGossip, Actor: -1, Round: round, Value: rc.best.Value,
			Detail: fmt.Sprintf("epoch=%d fanout=%d", rc.epoch, sent),
		})
	}
}
