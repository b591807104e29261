package core

import (
	"fmt"
	"time"

	"repro/internal/mkp"
	"repro/internal/rng"
	"repro/internal/tabu"
	"repro/internal/transport/inproc"
	"repro/internal/transport/proto"
)

// AsyncOptions configures the decentralized asynchronous scheme the paper
// announces as future work (§6): no master, peers exchange improvements
// directly "at different moments, determined by the internal state of the
// thread" (§2).
type AsyncOptions struct {
	// P is the number of peers. Default 8.
	P int
	// Seed drives all random choices. Unlike the synchronous solver, an
	// asynchronous run is NOT bitwise reproducible: adoption depends on when
	// messages arrive relative to each peer's chunks.
	Seed uint64
	// TotalMoves is the per-peer move budget. Default 40000.
	TotalMoves int64
	// ChunkMoves is how many moves a peer runs between communication points.
	// Default 1000.
	ChunkMoves int64
	// Alpha plays the ISP role locally: a peer whose best falls below Alpha
	// times the best value it has seen restarts from that best. Default 0.99.
	Alpha float64
	// StagnationLimit is the number of consecutive chunks without a new best
	// before the peer restarts from a random solution. Default 3.
	StagnationLimit int
	// InitialScore is the self-adaptation credit (the paper's 4).
	InitialScore int
	// Base supplies structural tabu parameters; zero value means defaults.
	Base tabu.Params
	// Ring restricts each peer's broadcasts to its two ring neighbors
	// instead of all peers. Improvements then propagate hop by hop — less
	// traffic, slower convergence; the classic trade-off of decentralized
	// topologies.
	Ring bool
}

func (o AsyncOptions) withDefaults(n int) AsyncOptions {
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
	if o.StagnationLimit <= 0 {
		o.StagnationLimit = 3
	}
	if o.InitialScore <= 0 {
		o.InitialScore = 4
	}
	if o.Base.BBest == 0 {
		o.Base = tabu.DefaultParams(n)
	}
	return o
}

// peerReport is what each peer hands the collector when its budget is spent.
type peerReport struct {
	peer  int
	best  mkp.Solution
	moves int64
	err   error

	replacements   int
	randomRestarts int
	strategyResets int
	strategy       tabu.Strategy
}

// SolveAsync runs the decentralized asynchronous cooperative tabu search.
// Peers broadcast every new personal best to all other peers and poll their
// mailbox between chunks; strategy adaptation is performed locally by each
// peer with the same score/diameter rules the master uses in CTS2.
func SolveAsync(ins *mkp.Instance, opts AsyncOptions) (*Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(ins.N)
	if err := opts.Base.Validate(); err != nil {
		return nil, fmt.Errorf("core: base params: %w", err)
	}

	start := time.Now()
	net := inproc.New(opts.P, inproc.WithMailboxSize(4*opts.P*int(opts.TotalMoves/opts.ChunkMoves+1)))
	root := rng.New(opts.Seed)
	reports := make(chan peerReport, opts.P)
	for i := 0; i < opts.P; i++ {
		go asyncPeer(net, i, ins, opts, root.Split(), reports)
	}

	res := &Result{Strategies: make([]tabu.Strategy, opts.P)}
	res.Stats.Algorithm = CTS2 // closest label; reported distinctly by callers
	res.Stats.P = opts.P
	var best mkp.Solution
	for i := 0; i < opts.P; i++ {
		rep := <-reports
		if rep.err != nil {
			return nil, fmt.Errorf("core: async peer %d: %w", rep.peer, rep.err)
		}
		if best.X == nil || rep.best.Value > best.Value {
			best = rep.best
		}
		res.Stats.TotalMoves += rep.moves
		res.Stats.Replacements += rep.replacements
		res.Stats.RandomRestarts += rep.randomRestarts
		res.Stats.StrategyResets += rep.strategyResets
		res.Strategies[rep.peer] = rep.strategy
	}
	fs := net.Stats()
	res.Stats.Messages = fs.Messages
	res.Stats.BytesSent = fs.Bytes
	res.Stats.Elapsed = time.Since(start)
	res.Best = best
	return res, nil
}

const tagBest = "best" // peer -> peer: a new personal best solution

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

// asyncPeer runs one decentralized search thread.
func asyncPeer(net *inproc.Farm, id int, ins *mkp.Instance, opts AsyncOptions, r *rng.Rand, reports chan<- peerReport) {
	searcher, err := tabu.NewSearcher(ins, r.Uint64())
	if err != nil {
		reports <- peerReport{peer: id, err: err}
		return
	}

	rep := peerReport{peer: id}
	strategy := tabu.RandomStrategy(ins.N, r)
	score := opts.InitialScore
	var start mkp.Solution
	if id == 0 {
		start = mkp.Greedy(ins)
	} else {
		start = mkp.RandomFeasible(ins, r)
	}
	best := start.Clone() // best seen by this peer (own or received)
	stagnant := 0

	var moved int64
	for moved < opts.TotalMoves {
		budget := opts.ChunkMoves
		if rest := opts.TotalMoves - moved; budget > rest {
			budget = rest
		}
		params := opts.Base
		params.Strategy = strategy
		res, err := searcher.Run(start, params, budget)
		if err != nil {
			rep.err = err
			reports <- rep
			return
		}
		moved += res.Moves

		// Publish a strict improvement, asynchronously: to every other peer
		// (full crossbar) or to the two ring neighbors. Each recipient gets
		// its own clone: a shared bitset would alias this peer's working
		// copy across goroutines, and a peer that forwards or adopts the
		// message must be able to treat it as exclusively owned.
		if res.Best.Value > best.Value {
			best = res.Best
			stagnant = 0
			for _, other := range asyncTargets(id, net.Nodes(), opts.Ring) {
				net.Send(id, other, tagBest, best.Clone(), proto.SolutionSize(ins.N))
			}
		} else {
			stagnant++
		}

		// Fold in anything peers sent while we were searching, cloning at
		// the store boundary so the adopted solution is owned by this peer.
		for {
			msg, ok := net.TryRecv(id)
			if !ok {
				break
			}
			if sol, ok := msg.Payload.(mkp.Solution); ok && sol.Value > best.Value {
				best = sol.Clone()
				stagnant = 0
			}
		}

		// Local strategy adaptation (the CTS2 rules, applied by the peer
		// itself instead of a master).
		if res.Improved {
			score++
		} else {
			score--
		}
		if score <= 0 {
			d := poolDiameter(res.Pool)
			clustered, scattered := ins.N/10, ins.N/4
			if clustered < 1 {
				clustered = 1
			}
			if scattered <= clustered {
				scattered = clustered + 1
			}
			switch {
			case d <= clustered:
				strategy = diversifyStrategy(strategy, ins.N)
			case d >= scattered:
				strategy = intensifyStrategy(strategy)
			default:
				strategy = tabu.RandomStrategy(ins.N, r)
			}
			score = opts.InitialScore
			rep.strategyResets++
		}

		// Local ISP: continue from own round best, upgraded to the best seen
		// when too weak, or to a random solution when stagnant.
		next := res.Best
		if next.Value < opts.Alpha*best.Value {
			next = best
			rep.replacements++
		}
		if stagnant >= opts.StagnationLimit {
			next = mkp.RandomFeasible(ins, r)
			rep.randomRestarts++
			stagnant = 0
		}
		start = next
	}

	rep.best = best
	rep.moves = moved
	rep.strategy = strategy
	reports <- rep
}
