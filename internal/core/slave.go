package core

import (
	"repro/internal/mkp"
	"repro/internal/search"
	"repro/internal/tabu"
	"repro/internal/transport"
	"repro/internal/transport/proto"
)

// warmStart carries the master's cooperative memory into a respawned slave:
// the merged B-best pool reconstructs the long-term frequency history, and
// moves restores the lifetime move epoch so diversification thresholds see a
// mature search rather than a newborn one.
type warmStart struct {
	pool  []mkp.Solution
	moves int64
}

// searcherSet is a slave's portfolio: one searcher per algorithm the master
// has dispatched to it, built lazily on first use. The tabu member is built
// eagerly with exactly the node seed — the homogeneous farm's stream — and
// the other members derive theirs through search.SeedFor, so a slave that is
// never asked to run them consumes nothing from any stream (the all-tabu
// inert contract). Warm-start state is replayed into every member, including
// ones built after the respawn.
type searcherSet struct {
	ins  *mkp.Instance
	seed uint64
	by   map[tabu.AlgoID]search.Searcher
	warm *warmStart
}

func newSearcherSet(ins *mkp.Instance, seed uint64, warm *warmStart) (*searcherSet, error) {
	s := &searcherSet{ins: ins, seed: seed, by: make(map[tabu.AlgoID]search.Searcher, 1), warm: warm}
	if _, err := s.get(tabu.AlgoTabu); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *searcherSet) get(algo tabu.AlgoID) (search.Searcher, error) {
	if sr, ok := s.by[algo]; ok {
		return sr, nil
	}
	sr, err := search.New(algo, s.ins, s.seed)
	if err != nil {
		return nil, err
	}
	if s.warm != nil {
		sr.WarmStart(s.warm.pool, s.warm.moves)
	}
	s.by[algo] = sr
	return sr, nil
}

// run executes one dispatched round on the searcher the order names.
func (s *searcherSet) run(req proto.Start) (*tabu.Result, error) {
	sr, err := s.get(req.Params.Strategy.Algo)
	if err != nil {
		return nil, err
	}
	return sr.Run(req.Start, req.Params, req.Budget)
}

// Slave runs one worker node's slave loop over the given transport: wait for
// a start order, execute one tabu-search round, report the result, repeat
// until stopped. This is the entry point a separate worker process calls
// after the wire handshake handed it its node number, instance and seed; the
// in-process substrate runs the same loop as a goroutine.
func Slave(net transport.Transport, node int, ins *mkp.Instance, seed uint64) {
	slaveLoop(net, node, ins, seed, 0, nil, 0)
}

// ElasticOptions shapes a worker's behavior as a member of an elastic fleet.
type ElasticOptions struct {
	// LeaveAfter, when positive, is the number of rounds the worker serves
	// before announcing a graceful Leave and exiting — the bounded work
	// budget of a scavenged/spot machine. Zero serves until stopped.
	LeaveAfter int
}

// ElasticSlave runs the slave loop for a member of an elastic fleet: when its
// LeaveAfter budget drains, it donates its own best back to the master and
// announces a graceful Leave.
func ElasticSlave(net transport.Transport, node int, ins *mkp.Instance, seed uint64, opts ElasticOptions) {
	slaveLoop(net, node, ins, seed, 0, nil, opts.LeaveAfter)
}

// absorbGossip folds an epoch-stamped gossip into a member's local view. A
// regression — an epoch below the highest already seen — is rejected outright
// (stale broadcast from before a membership change); equal or newer epochs
// advance the watermark and update the incumbent if it improved. It reports
// whether the gossip was absorbed.
func absorbGossip(epoch *uint64, best *mkp.Solution, g proto.Gossip) bool {
	if g.Epoch < *epoch {
		return false
	}
	*epoch = g.Epoch
	if best.X == nil || g.Best.Value > best.Value {
		*best = g.Best.Clone()
	}
	return true
}

// slaveLoop is the process every worker node runs: in-process, supervised
// respawn, roster and elastic alike. The report echoes the order's slot and
// round so the master can route it to the right bookkeeping entry and
// discard stale replies after re-dispatch. inc is this incarnation's number
// (0 for the original process); warm, when non-nil, reconstructs the
// predecessor's long-term memory before the first round. Gossip from an
// elastic master is absorbed (tracking the fleet's best-known incumbent);
// leaveAfter, when positive, ends the loop after that many rounds with the
// member's own best donated if the fleet may not have it, then a Leave.
func slaveLoop(net transport.Transport, node int, ins *mkp.Instance, seed uint64, inc int, warm *warmStart, leaveAfter int) {
	searchers, err := newSearcherSet(ins, seed, warm)
	if err != nil {
		// The master validated the instance; this is unreachable in normal
		// operation but reported rather than swallowed.
		net.Send(node, 0, proto.TagResult,
			proto.Result{Slot: node - 1, Node: node, Round: -1, Err: err.Error()}, 0)
		return
	}
	var (
		epoch  uint64       // highest gossip epoch seen (regressions dropped)
		gBest  mkp.Solution // fleet incumbent as last gossiped
		myBest mkp.Solution // own best across rounds, kept only to donate on leaving
		served int
	)
	for {
		msg := net.Recv(node)
		switch msg.Tag {
		case proto.TagStop:
			req, supervised := msg.Payload.(proto.Stop)
			if !supervised {
				return // shutdown order (or a dead wire): exit silently
			}
			if req.Inc < inc {
				continue // aimed at a predecessor that is already gone
			}
			if req.Ack {
				net.SendControl(node, 0, proto.TagStopped, proto.Ack{Node: node, Inc: inc}, 0)
			}
			return
		case proto.TagGossip:
			if g, ok := msg.Payload.(proto.Gossip); ok {
				absorbGossip(&epoch, &gBest, g)
			}
		case proto.TagStart:
			req := msg.Payload.(proto.Start)
			res, err := searchers.run(req)
			size := 0
			if res != nil {
				size = proto.SolutionSize(ins.N) * (1 + len(res.Pool))
				if leaveAfter > 0 && (myBest.X == nil || res.Best.Value > myBest.Value) {
					myBest = res.Best.Clone()
				}
			}
			errStr := ""
			if err != nil {
				errStr = err.Error()
			}
			rep := proto.Result{Slot: req.Slot, Node: node, Round: req.Round, Res: res, Err: errStr}
			net.Send(node, 0, proto.TagResult, rep, size)
			if served++; leaveAfter > 0 && served >= leaveAfter {
				// Budget drained: rescue anything the fleet might not have
				// yet, then leave gracefully (classified as a Leave, never a
				// crash, by the fleet reader).
				if myBest.X != nil && (gBest.X == nil || myBest.Value > gBest.Value) {
					net.Send(node, 0, proto.TagGossip,
						proto.Gossip{Epoch: epoch, Best: myBest}, proto.SolutionSize(ins.N))
				}
				net.SendControl(node, 0, proto.TagLeave, proto.Leave{Node: node, Reason: "budget"}, 0)
				return
			}
		}
	}
}
