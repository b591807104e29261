package tabu

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/mkp"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Result is what one Run (one search round) reports back: exactly the data a
// slave sends to the master at a rendezvous (§4.2).
type Result struct {
	Best     mkp.Solution   // best solution of the round
	Pool     []mkp.Solution // B best distinct solutions, decreasing value
	Moves    int64          // compound moves actually executed
	Improved bool           // Best beats the round's starting value
}

// Searcher runs the sequential tabu search of Fig. 1 on one instance. It owns
// the long-term structures that persist across rounds — the frequency memory
// History and the move counter the tabu tenures are expressed in — so a slave
// that is handed a new start and strategy every round still diversifies
// against everything it has seen "since the beginning of the search" (§3.3).
//
// A Searcher is not safe for concurrent use; the parallel layer gives each
// slave goroutine its own.
type Searcher struct {
	ins *mkp.Instance
	r   *rng.Rand

	st       *mkp.State
	rank     []int     // items by decreasing pseudo-utility (the instance's, read-only)
	sufMin   []float64 // suffix min of MinWeight along rank (scan early exit)
	core     *Core     // adopted LP core; nil = unrestricted
	order    []int     // scan order: core.Order under guidance, rank otherwise
	orderSuf []float64 // suffix min of MinWeight along order
	pos      []int32   // pos[j] = j's index in order, -1 when order leaves j out
	history  []int64   // history[j] = moves during which x_j was 1
	tabuAdd  []int64   // move count until which j may not be re-added
	tabuDrop []int64   // move count until which j may not be dropped
	moves    int64     // lifetime move counter

	// Alternative tabu-list managers (§4.1 baselines), created lazily when a
	// Run requests the corresponding policy.
	react *reactiveState
	rem   *remState

	// km holds this Run's metric handles (all nil when Params.Metrics is),
	// resolved once per round so the move loop never touches the registry.
	km kernelMetrics

	// scratch buffers reused across calls
	idxBuf    []int
	flipBuf   []int
	addBuf    []int  // refillSweep's tentative refill
	forcedBuf []int  // diversify's forced-in items
	locked    []bool // repairKeeping's marks, all false between calls
}

// NewSearcher validates the instance and prepares a searcher seeded with seed.
func NewSearcher(ins *mkp.Instance, seed uint64) (*Searcher, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	rank := mkp.RankByUtility(ins)
	sufMin := mkp.SuffixMinWeight(ins, rank)
	s := &Searcher{
		ins:      ins,
		r:        rng.New(seed),
		st:       mkp.NewState(ins),
		rank:     rank,
		sufMin:   sufMin,
		order:    rank,
		orderSuf: sufMin,
		pos:      make([]int32, ins.N),
		history:  make([]int64, ins.N),
		tabuAdd:  make([]int64, ins.N),
		tabuDrop: make([]int64, ins.N),
		locked:   make([]bool, ins.N),
	}
	s.indexOrder()
	return s, nil
}

// Instance returns the instance the searcher solves.
func (s *Searcher) Instance() *mkp.Instance { return s.ins }

// TotalMoves returns the lifetime number of compound moves executed.
func (s *Searcher) TotalMoves() int64 { return s.moves }

// History returns the long-term frequency memory (do not mutate).
func (s *Searcher) History() []int64 { return s.history }

// ResetMemory clears the long-term memory and tabu state, as if the searcher
// were fresh. The master never does this mid-search; tests do.
func (s *Searcher) ResetMemory() {
	s.moves = 0
	for j := range s.history {
		s.history[j] = 0
		s.tabuAdd[j] = 0
		s.tabuDrop[j] = 0
	}
}

// WarmStart seeds a fresh searcher's long-term structures from the
// cooperative state the master holds: the merged B-best pool and the farm's
// move epoch. A resurrected slave cannot inherit its dead incarnation's
// process-local memory — exactly as a checkpoint resume cannot (see
// core.Checkpoint) — but the master CAN hand it what the cooperation knows:
// each item's appearance share across the pool becomes frequency credit
// scaled to `moves`, and the lifetime move counter jumps to `moves`. The
// resurrected searcher therefore diversifies away from the region the farm
// has already covered instead of re-exploring it cold, and its tabu tenures
// live in the same epoch as everyone else's budgets. Pool members whose
// assignment does not match the instance are skipped.
func (s *Searcher) WarmStart(pool []mkp.Solution, moves int64) {
	s.ResetMemory()
	if moves <= 0 {
		return
	}
	s.moves = moves
	n := 0
	for _, sol := range pool {
		if sol.X != nil && sol.X.Len() == s.ins.N {
			n++
		}
	}
	if n == 0 {
		return
	}
	share := moves / int64(n)
	for _, sol := range pool {
		if sol.X == nil || sol.X.Len() != s.ins.N {
			continue
		}
		for j := sol.X.NextSet(0); j >= 0; j = sol.X.NextSet(j + 1) {
			s.history[j] += share
		}
	}
}

// Run executes one search round: Fig. 1 driven by a move budget. The start
// solution may be infeasible or non-maximal; it is repaired and topped up
// first. Run returns after exactly `budget` compound moves (or earlier only
// on parameter error).
func (s *Searcher) Run(start mkp.Solution, p Params, budget int64) (*Result, error) {
	if err := p.validateFor(s.ins.N); err != nil {
		return nil, err
	}
	if budget <= 0 {
		return nil, errors.New("tabu: non-positive move budget")
	}
	if start.X == nil || start.X.Len() != s.ins.N {
		return nil, fmt.Errorf("tabu: start solution has wrong length")
	}

	s.km = kernelMetricsFor(p.Metrics, p.TraceID)
	if p.Heartbeat != nil {
		// Publish life immediately: the watermark tells the watchdog the
		// order was received even before the first move lands.
		p.Heartbeat(s.moves)
	}

	switch p.Policy {
	case PolicyReactive:
		if s.react == nil {
			s.react = newReactiveState(s.ins.N, float64(p.Strategy.LtLength), s.r)
		}
	case PolicyREM:
		if s.rem == nil {
			s.rem = newREMState(s.ins.N, p.REMDepth)
		}
		s.rem.reset()
	}

	s.adoptCore(p.Core)
	s.st.Load(start.X)
	if s.core != nil {
		s.applyCore()
	} else if !s.st.Feasible() {
		mkp.Repair(s.st)
	}
	s.fill()
	startValue := s.st.Value

	best := s.st.Snapshot()
	pool := NewPool(p.BBest)
	pool.Offer(best)

	var executed int64
	oscToggle := false

	done := func() bool { return executed >= budget }

outer:
	for {
		for div := 0; div < p.NbDiv; div++ {
			for intl := 0; intl < p.NbInt; intl++ {
				local := s.st.Snapshot()
				noImp := 0
				for noImp < p.Strategy.NbLocal {
					if done() {
						break outer
					}
					if s.km.moveLatency != nil {
						t0 := time.Now()
						s.move(p, best.Value)
						s.km.moveLatency.Observe(time.Since(t0).Seconds())
					} else {
						s.move(p, best.Value)
					}
					executed++
					if p.Heartbeat != nil && executed&0xff == 0 {
						p.Heartbeat(s.moves)
					}
					if p.Policy == PolicyReactive && s.react.takeEscape() {
						// Reactive escape: too many repetitions of one
						// solution; answer with a diversification jump.
						s.km.escapes.Inc()
						if p.Tracer != nil {
							p.Tracer.Record(trace.Event{
								Kind: trace.KindEscape, Actor: p.TraceID,
								Round: -1, Move: s.moves, Value: s.st.Value,
							})
						}
						s.diversify(p, &best, pool)
					}
					switch {
					case s.st.Value > best.Value:
						best = s.st.Snapshot()
						local = best
						noImp = 0
						s.km.improvements.Inc()
						if p.Tracer != nil {
							p.Tracer.Record(trace.Event{
								Kind: trace.KindImprovement, Actor: p.TraceID,
								Round: -1, Move: s.moves, Value: best.Value,
							})
						}
					case s.st.Value > local.Value:
						local = s.st.Snapshot()
						noImp++
					default:
						noImp++
					}
					s.offer(pool, p)
				}
				if done() {
					break outer
				}
				s.intensify(p, local, &best, pool, &oscToggle)
			}
			if done() {
				break outer
			}
			s.diversify(p, &best, pool)
		}
	}

	return &Result{
		Best:     best,
		Pool:     pool.Solutions(),
		Moves:    executed,
		Improved: best.Value > startValue,
	}, nil
}

// offer inserts the current state into the pool when it can qualify, keeping
// the hot path free of needless clones.
func (s *Searcher) offer(pool *Pool, p Params) {
	s.km.poolOffers.Inc()
	if pool.Len() == p.BBest {
		if worst := pool.sols[pool.Len()-1].Value; s.st.Value <= worst {
			return
		}
	}
	if pool.Offer(mkp.Solution{X: s.st.X, Value: s.st.Value}) {
		s.km.poolAccepts.Inc()
	}
}

// move executes one compound Drop/Add move (Fig. 1 step 5, §3.1) and updates
// the long-term memory. bestValue is the incumbent for the aspiration test.
// Tabu status comes from the configured policy: the static recency arrays,
// the reactive tenure, or the REM running-list walk.
func (s *Searcher) move(p Params, bestValue float64) {
	useREM := p.Policy == PolicyREM
	if useREM {
		s.rem.computeTabu()
		s.flipBuf = s.flipBuf[:0]
	}
	tenure := int64(p.Strategy.LtLength)
	if p.Policy == PolicyReactive {
		tenure = int64(s.react.tenure)
	}
	var dropped, scanned, tabuHits, aspirations int64

	// Drop phase: NbDrop times, pick the most saturated constraint and drop
	// its worst packed item.
	for d := 0; d < p.Strategy.NbDrop && s.st.X.Count() > 0; d++ {
		i := s.st.MostSaturated()
		j := s.pickDrop(i, useREM, p.DropNoise)
		if j < 0 {
			break
		}
		s.st.Drop(j)
		dropped++
		if useREM {
			s.flipBuf = append(s.flipBuf, j)
		} else {
			s.tabuAdd[j] = s.moves + tenure
		}
	}
	// Add phase: greedy by pseudo-utility until nothing fits (or CandWidth
	// insertions); a tabu item may enter only under aspiration (it would
	// beat the incumbent). AddNoise occasionally skips a candidate for one
	// pass, so ties on pseudo-utility break differently across slaves and
	// rounds. The MinWeight/MaxSlack quick reject prunes candidates that
	// cannot fit under any constraint with one compare instead of an O(m)
	// Fits probe, and the suffix-min bound over the rank ends the scan once
	// no remaining candidate can pass that reject (max slack only shrinks as
	// items land). Both only replace Fits=false outcomes — no RNG is drawn
	// for a rejected candidate — so the RNG stream and the resulting
	// trajectory are unchanged.
	minW := s.ins.MinWeight
	inserted := 0
	for {
		added := false
		maxSlack := s.st.MaxSlack()
		for k, j := range s.order {
			if p.CandWidth > 0 && inserted >= p.CandWidth {
				break
			}
			if s.orderSuf[k] > maxSlack {
				break
			}
			scanned++
			if minW[j] > maxSlack || s.st.X.Get(j) || !s.st.Fits(j) {
				continue
			}
			if p.AddNoise > 0 && s.r.Bool(p.AddNoise) {
				continue
			}
			blocked := s.tabuAdd[j] > s.moves
			if useREM && !blocked {
				blocked = s.rem.tabu(j) || s.flippedThisMove(j)
			}
			if blocked {
				if s.st.Value+s.ins.Profit[j] <= bestValue {
					tabuHits++
					continue
				}
				aspirations++
			}
			maxSlack = s.st.AddMax(j)
			inserted++
			if useREM {
				s.flipBuf = append(s.flipBuf, j)
			} else {
				s.tabuDrop[j] = s.moves + tenure
			}
			added = true
		}
		if !added || (p.CandWidth > 0 && inserted >= p.CandWidth) {
			break
		}
	}
	s.moves++
	s.km.moves.Inc()
	s.km.drops.Add(dropped)
	s.km.adds.Add(int64(inserted))
	s.km.tabuHits.Add(tabuHits)
	s.km.aspirations.Add(aspirations)
	s.km.addScan.Observe(float64(scanned))
	for j := s.st.X.NextSet(0); j >= 0; j = s.st.X.NextSet(j + 1) {
		s.history[j]++
	}
	if useREM {
		s.rem.record(s.flipBuf)
	}
	if p.Policy == PolicyReactive {
		s.react.observe(s)
	}
}

// flippedThisMove reports whether item j was already dropped or added within
// the current compound move (REM mode only; the static arrays cover it
// otherwise). NbDrop is tiny, so a linear scan is fine.
func (s *Searcher) flippedThisMove(j int) bool {
	for _, f := range s.flipBuf {
		if f == j {
			return true
		}
	}
	return false
}

// pickDrop returns the packed, non-tabu item maximizing a_ij/c_j for
// constraint i — "the most saturated constraint's least efficient item"
// (§3.1) — falling back to ignoring tabu status when every packed item is
// locked, so the search can never deadlock. With probability noise the
// runner-up is taken instead, decorrelating parallel trajectories.
func (s *Searcher) pickDrop(i int, useREM bool, noise float64) int {
	best, second, bestTabu := -1, -1, -1
	var bestScore, secondScore, bestTabuScore float64
	row := s.ins.Weight[i]
	for j := s.st.X.NextSet(0); j >= 0; j = s.st.X.NextSet(j + 1) {
		if s.core != nil && s.core.In.Get(j) {
			continue // proven in every improving solution; never drop
		}
		score := row[j] / s.ins.Profit[j]
		blocked := s.tabuDrop[j] > s.moves
		if useREM && !blocked {
			blocked = s.rem.tabu(j) || s.flippedThisMove(j)
		}
		switch {
		case blocked:
			if bestTabu == -1 || score > bestTabuScore {
				bestTabu, bestTabuScore = j, score
			}
		case best == -1 || score > bestScore:
			second, secondScore = best, bestScore
			best, bestScore = j, score
		case second == -1 || score > secondScore:
			second, secondScore = j, score
		}
	}
	if best == -1 {
		return bestTabu
	}
	if second >= 0 && noise > 0 && s.r.Bool(noise) {
		return second
	}
	return best
}

// intensify dispatches to the configured intensification procedure (§3.2).
func (s *Searcher) intensify(p Params, local mkp.Solution, best *mkp.Solution, pool *Pool, oscToggle *bool) {
	mode := p.Intensify
	if mode == IntensifyBoth {
		if *oscToggle {
			mode = IntensifyOscillation
		} else {
			mode = IntensifySwap
		}
		*oscToggle = !*oscToggle
	}
	switch mode {
	case IntensifySwap:
		s.intensifySwap(local, best, pool)
	case IntensifyOscillation:
		s.intensifyOscillation(p, best, pool)
	}
	s.km.intensifications.Inc()
	if p.Tracer != nil {
		p.Tracer.Record(trace.Event{
			Kind: trace.KindIntensify, Actor: p.TraceID,
			Round: -1, Move: s.moves, Value: s.st.Value, Detail: mode.String(),
		})
	}
}

// intensifySwap restarts from the best solution of the last local loop and
// exchanges packed items for more profitable unpacked ones while feasibility
// holds ("intensification by swapping components", §3.2). The improved
// solution becomes the new current point.
func (s *Searcher) intensifySwap(local mkp.Solution, best *mkp.Solution, pool *Pool) {
	s.st.Load(local.X)
	s.swapPass()
	s.refillSweep()
	s.fill()
	s.adopt(best, pool)
}

// swapPass sweeps the packed items until a sweep exchanges nothing. Each
// free packed item i is dropped and replaced by the first item of the scan
// order that is out, more profitable than i and fits; i goes back in when
// there is none.
//
// Most of the scan order fails the profit test, so the pass does not walk
// it: it walks the instance's profit order down to the first item no more
// profitable than i, and of the candidates that fit keeps the one with the
// smallest scan position — the item the first-fit walk of the order picks.
// Once a candidate is found, only earlier positions are probed further.
func (s *Searcher) swapPass() {
	byProfit := s.ins.ProfitOrder()
	profit := s.ins.Profit
	minW := s.ins.MinWeight
	for improved := true; improved; {
		improved = false
		packed := s.st.X.Indices(s.idxBuf[:0])
		for _, i := range packed {
			if s.core != nil && !s.core.Free(i) {
				continue // fixed-in items are not swap candidates
			}
			ci := profit[i]
			s.st.Drop(i)
			maxSlack := s.st.MaxSlack()
			pick, at := -1, int32(len(s.order))
			for _, j := range byProfit {
				if profit[j] <= ci {
					break // the rest are no more profitable than i
				}
				// A negative position (j outside the order) fails as a
				// huge unsigned one.
				if k := s.pos[j]; uint32(k) < uint32(at) &&
					minW[j] <= maxSlack && !s.st.X.Get(j) && s.st.Fits(j) {
					pick, at = j, k
				}
			}
			if pick >= 0 {
				s.st.Add(pick)
				improved = true
			} else {
				s.st.Add(i) // undo
			}
		}
		s.idxBuf = packed[:0]
	}
}

// refillSweep generalizes the 1-for-1 swap: for each packed item, try
// dropping it and greedily refilling with any other fitting items; keep the
// exchange only when the total value improves. One sweep catches the
// 1-for-2 exchanges that separate near-optimal solutions on strongly
// correlated instances.
func (s *Searcher) refillSweep() {
	packed := s.st.X.Indices(s.idxBuf[:0])
	minW := s.ins.MinWeight
	added := s.addBuf[:0]
	for _, i := range packed {
		if !s.st.X.Get(i) {
			continue // removed by an earlier exchange in this sweep
		}
		if s.core != nil && !s.core.Free(i) {
			continue // fixed-in items stay packed
		}
		before := s.st.Value
		s.st.Drop(i)
		maxSlack := s.st.MaxSlack()
		added = added[:0]
		for k, j := range s.order {
			if s.orderSuf[k] > maxSlack {
				break // nothing below can fit any constraint
			}
			if minW[j] > maxSlack || j == i || s.st.X.Get(j) || !s.st.Fits(j) {
				continue
			}
			maxSlack = s.st.AddMax(j)
			added = append(added, j)
		}
		if s.st.Value > before {
			continue
		}
		for _, j := range added {
			s.st.Drop(j)
		}
		s.st.Add(i)
	}
	s.idxBuf, s.addBuf = packed[:0], added[:0]
}

// intensifyOscillation pushes the current solution across the feasibility
// boundary by force-adding up to OscDepth best-utility items, then projects
// back by dropping the largest-burden items and topping up greedily
// ("strategic oscillation" with a bounded infeasible depth, §3.2).
func (s *Searcher) intensifyOscillation(p Params, best *mkp.Solution, pool *Pool) {
	for d := 0; d < p.OscDepth; d++ {
		picked := -1
		for _, j := range s.order {
			if !s.st.X.Get(j) {
				picked = j
				break
			}
		}
		if picked == -1 {
			break
		}
		s.st.Add(picked)
	}
	if s.core != nil {
		s.repairKeeping(s.core.Keep)
	} else {
		mkp.Repair(s.st)
	}
	s.fill()
	s.adopt(best, pool)
}

// diversify forces the search into a neglected region using the long-term
// frequency memory (§3.3): high-frequency components are evicted and locked
// out, low-frequency components are forced in and locked in, then the state
// is repaired (preferring to keep the forced items) and topped up.
func (s *Searcher) diversify(p Params, best *mkp.Solution, pool *Pool) {
	if s.moves == 0 {
		return
	}
	total := float64(s.moves)
	lock := s.moves + int64(p.DiverLock)
	forced := s.forcedBuf[:0]
	for j := 0; j < s.ins.N; j++ {
		if s.core != nil && !s.core.Free(j) {
			continue // fixed items are not diversification material
		}
		freq := float64(s.history[j]) / total
		switch {
		case freq > p.HighFreq && s.st.X.Get(j):
			s.st.Drop(j)
			s.tabuAdd[j] = lock
		case freq < p.LowFreq && !s.st.X.Get(j):
			s.st.Add(j) // may go infeasible; repaired below
			s.tabuDrop[j] = lock
			forced = append(forced, j)
		}
	}
	s.forcedBuf = forced[:0]
	s.repairKeeping(forced)
	s.fill()
	s.adopt(best, pool)
	s.km.diversifications.Inc()
	if p.Tracer != nil {
		p.Tracer.Record(trace.Event{
			Kind: trace.KindDiversify, Actor: p.TraceID,
			Round: -1, Move: s.moves, Value: s.st.Value,
			Detail: fmt.Sprintf("forced=%d", len(forced)),
		})
	}
}

// repairKeeping restores feasibility dropping unlocked items first (largest
// burden ratio first), touching the locked `keep` items only as a last
// resort.
func (s *Searcher) repairKeeping(keep []int) {
	if s.st.Feasible() {
		return
	}
	s.markLocked(keep, true)
	packed := s.st.X.Indices(s.idxBuf[:0])
	sort.SliceStable(packed, func(a, b int) bool {
		return s.ins.BurdenRatio(packed[a]) > s.ins.BurdenRatio(packed[b])
	})
	// The first pass drops unlocked items, the second locked ones.
	for pass := 0; pass < 2; pass++ {
		for _, j := range packed {
			if s.st.Feasible() {
				break
			}
			if s.locked[j] == (pass == 1) && s.st.X.Get(j) {
				s.st.Drop(j)
			}
		}
	}
	s.markLocked(keep, false)
	s.idxBuf = packed[:0]
}

// markLocked sets repairKeeping's marks for keep and the core's fixed-in
// items to v.
func (s *Searcher) markLocked(keep []int, v bool) {
	for _, j := range keep {
		s.locked[j] = v
	}
	if s.core != nil {
		for _, j := range s.core.Keep {
			s.locked[j] = v
		}
	}
}

// adopt records the current (feasible) state into best and the pool. It is
// called exactly after the solution jumps discontinuously (intensification,
// diversification), so it also invalidates the REM running list, which only
// describes contiguous move trajectories.
func (s *Searcher) adopt(best *mkp.Solution, pool *Pool) {
	if s.st.Value > best.Value {
		*best = s.st.Snapshot()
	}
	pool.Offer(mkp.Solution{X: s.st.X, Value: s.st.Value})
	if s.rem != nil {
		s.rem.reset()
	}
}

// Search is a convenience wrapper: build a fresh Searcher, run one round from
// the greedy start, and return the result.
func Search(ins *mkp.Instance, p Params, budget int64, seed uint64) (*Result, error) {
	s, err := NewSearcher(ins, seed)
	if err != nil {
		return nil, err
	}
	return s.Run(mkp.Greedy(ins), p, budget)
}

// adoptCore installs the round's core (or clears it). The scan order and its
// suffix-min bound are recomputed only when the core pointer actually
// changes, so repeated rounds under one epoch pay a pointer compare.
func (s *Searcher) adoptCore(c *Core) {
	if c == s.core {
		return
	}
	s.core = c
	if c == nil {
		s.order, s.orderSuf = s.rank, s.sufMin
	} else {
		s.order = c.Order
		s.orderSuf = mkp.SuffixMinWeight(s.ins, c.Order)
	}
	s.indexOrder()
}

// indexOrder rebuilds pos from the current scan order.
func (s *Searcher) indexOrder() {
	for j := range s.pos {
		s.pos[j] = -1
	}
	for k, j := range s.order {
		s.pos[j] = int32(k)
	}
}

// applyCore projects the freshly loaded start onto the core: items fixed at
// 0 leave, items fixed at 1 enter (possibly crossing the feasibility
// boundary), then feasibility is restored while keeping the fixed-in items
// packed whenever possible.
func (s *Searcher) applyCore() {
	for j := s.core.Out.NextSet(0); j >= 0; j = s.core.Out.NextSet(j + 1) {
		if s.st.X.Get(j) {
			s.st.Drop(j)
		}
	}
	for j := s.core.In.NextSet(0); j >= 0; j = s.core.In.NextSet(j + 1) {
		if !s.st.X.Get(j) {
			s.st.Add(j)
		}
	}
	if !s.st.Feasible() {
		s.repairKeeping(s.core.Keep)
	}
}

// fill packs any still-fitting items of the scan order in decreasing
// pseudo-utility — mkp.FillGreedy restricted to s.order. With a nil core the
// order is the full utility ranking and the walk is identical to
// mkp.FillGreedy's, so unguided rounds are unchanged bit for bit.
func (s *Searcher) fill() {
	st := s.st
	minW := s.ins.MinWeight
	maxSlack := st.MaxSlack()
	for k, j := range s.order {
		if s.orderSuf[k] > maxSlack {
			break
		}
		if minW[j] > maxSlack || st.X.Get(j) {
			continue
		}
		if st.Fits(j) {
			maxSlack = st.AddMax(j)
		}
	}
}
