package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mkp"
	"repro/internal/rng"
	"repro/internal/tabu"
	"repro/internal/transport/proto"
	"repro/internal/vtime"
)

// AsyncOptions configures the decentralized asynchronous scheme the paper
// announces as future work (§6): no master, peers exchange improvements
// directly "at different moments, determined by the internal state of the
// thread" (§2).
type AsyncOptions struct {
	// P is the number of peers. Default 8.
	P int
	// Seed drives all random choices. Like the synchronous solver, an
	// asynchronous run is a pure function of its options: the same options
	// give the same result, bit for bit, whatever the host's parallelism.
	Seed uint64
	// TotalMoves is the per-peer move budget. Default 40000.
	TotalMoves int64
	// ChunkMoves is how many moves a peer runs between communication points.
	// Default 1000.
	ChunkMoves int64
	// Alpha plays the ISP role locally: a peer whose best falls below Alpha
	// times the best value it has seen restarts from that best. Default 0.99.
	Alpha float64
	// Ring restricts each peer's broadcasts to its two ring neighbors
	// instead of all peers. Improvements then propagate hop by hop — less
	// traffic, slower convergence; the classic trade-off of decentralized
	// topologies.
	Ring bool
}

// A peer restarts from a random solution after asyncStagnationLimit
// consecutive chunks without a new best, and regenerates its strategy once
// its self-adaptation credit, starting at asyncInitialScore (the paper's 4),
// runs out.
const (
	asyncStagnationLimit = 3
	asyncInitialScore    = 4
)

func (o AsyncOptions) withDefaults() AsyncOptions {
	if o.P <= 0 {
		o.P = 8
	}
	if o.TotalMoves <= 0 {
		o.TotalMoves = 40000
	}
	if o.ChunkMoves <= 0 {
		o.ChunkMoves = 1000
	}
	if o.ChunkMoves > o.TotalMoves {
		o.ChunkMoves = o.TotalMoves
	}
	if o.Alpha <= 0 || o.Alpha >= 1 {
		o.Alpha = 0.99
	}
	return o
}

// asyncPeer is one search thread. It owns its searcher, its random stream
// and its state; nothing else touches them while its chunk runs.
type asyncPeer struct {
	searcher *tabu.Searcher
	r        *rng.Rand
	strategy tabu.Strategy
	score    int
	start    mkp.Solution
	best     mkp.Solution // best seen by this peer, own or adopted
	stagnant int
	run      *tabu.Result // the chunk just run
	err      error
}

// asyncMessage is an improvement in flight to peer `to`, arriving at
// simulated time `arrive`. The solution is the recipient's own clone.
type asyncMessage struct {
	arrive time.Duration
	to     int
	sol    mkp.Solution
}

// SolveAsync runs the decentralized asynchronous cooperative tabu search.
// Each peer publishes every new personal best to its targets (asyncTargets)
// and folds in what has arrived at its communication points; strategy
// adaptation is performed locally by each peer with the same score/diameter
// rules the master uses in CTS2.
//
// The run is simulated on the paper's platform (vtime.Alpha): a chunk of k
// moves costs k × MoveDuration(n, m), a message sent at a chunk's end
// arrives MessageDuration(proto.SolutionSize(n)) later, and sending costs the
// sender nothing. Searcher.Run always spends its whole budget, and every
// peer runs the same schedule (ChunkMoves per chunk, then the remainder), so
// every peer reaches every communication point at the same simulated
// instant. The link latency is positive, so nothing sent at an instant can
// arrive by that instant: the P chunks of one step are independent. That is
// Chandy–Misra's conservative window, here exactly one step wide, so one
// lockstep loop replays the asynchronous schedule with no event queue and no
// lookahead to compute. Each step:
//
//  1. runs every peer's chunk in parallel;
//  2. in peer-id order, publishes each strict improvement, one clone per
//     recipient, arriving at now + latency;
//  3. delivers every message that has arrived by now, in (arrival, sender)
//     order: a peer adopts a strictly better solution and its stagnation
//     count resets;
//  4. lets each peer apply its local SGP, then its local ISP.
//
// The result's best is the lowest-id peer holding the maximum value, and
// Stats.SimElapsed is the final simulated clock.
func SolveAsync(ins *mkp.Instance, opts AsyncOptions) (*Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	began := time.Now()
	clock := vtime.Alpha()
	size := proto.SolutionSize(ins.N)
	perMove, latency := clock.MoveDuration(ins.N, ins.M), clock.MessageDuration(size)
	base := tabu.DefaultParams(ins.N)

	root := rng.New(opts.Seed)
	peers := make([]*asyncPeer, opts.P)
	for id := range peers {
		r := root.Split()
		searcher, err := tabu.NewSearcher(ins, r.Uint64())
		if err != nil {
			return nil, fmt.Errorf("core: async peer %d: %w", id, err)
		}
		p := &asyncPeer{searcher: searcher, r: r, strategy: tabu.RandomStrategy(ins.N, r), score: asyncInitialScore}
		if id == 0 {
			p.start = mkp.Greedy(ins)
		} else {
			p.start = mkp.RandomFeasible(ins, r)
		}
		p.best = p.start.Clone()
		peers[id] = p
	}

	res := &Result{Strategies: make([]tabu.Strategy, opts.P)}
	st := &res.Stats
	st.Algorithm = CTS2 // closest label; reported distinctly by callers
	st.P = opts.P
	var inflight []asyncMessage // ordered by (arrival, sender) as appended
	for moved := int64(0); moved < opts.TotalMoves; {
		budget := min(opts.ChunkMoves, opts.TotalMoves-moved)
		var wg sync.WaitGroup
		for _, p := range peers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				params := base
				params.Strategy = p.strategy
				p.run, p.err = p.searcher.Run(p.start, params, budget)
			}()
		}
		wg.Wait()
		moved += budget
		st.SimElapsed += time.Duration(budget) * perMove

		for id, p := range peers {
			if p.err != nil {
				return nil, fmt.Errorf("core: async peer %d: %w", id, p.err)
			}
			st.TotalMoves += p.run.Moves
			if p.run.Best.Value <= p.best.Value {
				p.stagnant++
				continue
			}
			p.best = p.run.Best
			p.stagnant = 0
			for _, to := range asyncTargets(id, opts.P, opts.Ring) {
				inflight = append(inflight, asyncMessage{arrive: st.SimElapsed + latency, to: to, sol: p.best.Clone()})
				st.Messages++
				st.BytesSent += int64(size)
			}
		}

		k := 0
		for ; k < len(inflight) && inflight[k].arrive <= st.SimElapsed; k++ {
			m := inflight[k]
			if p := peers[m.to]; m.sol.Value > p.best.Value {
				p.best = m.sol
				p.stagnant = 0
			}
		}
		inflight = inflight[k:]

		for _, p := range peers {
			p.adapt(ins, opts.Alpha, st)
		}
	}

	best := peers[0].best
	for id, p := range peers {
		if p.best.Value > best.Value {
			best = p.best
		}
		res.Strategies[id] = p.strategy
	}
	res.Best = best
	st.Elapsed = time.Since(began)
	return res, nil
}

// adapt applies the peer's local SGP (the CTS2 score rule, run by the peer
// itself instead of a master), then its local ISP: continue from the chunk's
// best, upgraded to the best seen when too weak, or to a random solution
// when stagnant.
func (p *asyncPeer) adapt(ins *mkp.Instance, alpha float64, st *Stats) {
	if p.run.Improved {
		p.score++
	} else {
		p.score--
	}
	if p.score <= 0 {
		p.strategy, _ = regenerate(p.strategy, p.run.Pool, ins.N, p.r)
		p.score = asyncInitialScore
		st.StrategyResets++
	}
	p.start = p.run.Best
	if p.start.Value < alpha*p.best.Value {
		p.start = p.best
		st.Replacements++
	}
	if p.stagnant >= asyncStagnationLimit {
		p.start = mkp.RandomFeasible(ins, p.r)
		st.RandomRestarts++
		p.stagnant = 0
	}
}

// asyncTargets lists the peers id publishes improvements to.
func asyncTargets(id, p int, ring bool) []int {
	if p <= 1 {
		return nil
	}
	if !ring || p <= 3 {
		out := make([]int, 0, p-1)
		for other := 0; other < p; other++ {
			if other != id {
				out = append(out, other)
			}
		}
		return out
	}
	return []int{(id + 1) % p, (id + p - 1) % p}
}
