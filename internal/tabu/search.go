package tabu

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/bitset"
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
	addBuf    []int         // refillSweep's tentative refill
	forcedBuf []int         // diversify's forced-in items
	locked    []bool        // repairKeeping's marks, all false between calls
	allPos    []int32       // 0, 1, …, N−1: addPhase's first pass walks every position
	deferBuf  []int32       // addPhase's positions to walk again
	screen    []screenEntry // refillSweep's out-items
	outSet    *bitset.Set   // swapPass's out-items, indexed by profit rank

	// pickDrop's index, ⌈N/64⌉ words per constraint in each half: the first
	// half holds X's words as of that constraint's last pickDrop, the second
	// its packed items as a bitset over positions in its drop order. One
	// slice header, not two: with two, the struct and its 8-byte allocation
	// header outgrow the 576-byte size class.
	drop []uint64
}

// screenEntry is an out-item on refillSweep's list with its weights in the
// two constraints it overflowed most when the list was built.
type screenEntry struct {
	j      int32
	c1, c2 int32
	w1, w2 float64
}

// NewSearcher validates the instance and prepares a searcher seeded with seed.
func NewSearcher(ins *mkp.Instance, seed uint64) (*Searcher, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	rank := mkp.RankByUtility(ins)
	s := &Searcher{
		ins:      ins,
		r:        rng.New(seed),
		st:       mkp.NewState(ins),
		rank:     rank,
		order:    rank,
		orderSuf: ins.RankSuffixMin(),
		pos:      make([]int32, ins.N),
		history:  make([]int64, ins.N),
		tabuAdd:  make([]int64, ins.N),
		tabuDrop: make([]int64, ins.N),
		locked:   make([]bool, ins.N),
		allPos:   make([]int32, ins.N),
		deferBuf: make([]int32, 0, ins.N),
		screen:   make([]screenEntry, 0, ins.N),
		outSet:   bitset.New(ins.N),
		drop:     make([]uint64, 2*ins.M*((ins.N+63)/64)),
	}
	for k := range s.allPos {
		s.allPos[k] = int32(k)
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
	} else {
		s.repairKeeping(nil)
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
	var dropped int64

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
	inserted, scanned, tabuHits, aspirations := s.addPhase(p, bestValue, tenure, useREM)
	s.moves++
	s.km.moves.Inc()
	s.km.drops.Add(dropped)
	s.km.adds.Add(inserted)
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

// addPhase is the Add phase of a compound move: greedy by pseudo-utility
// until nothing fits (or CandWidth insertions); a tabu item may enter only
// under aspiration (it would beat the incumbent). AddNoise occasionally skips
// a candidate for one pass, so ties on pseudo-utility break differently
// across slaves and rounds. It returns the items inserted, the scan
// positions examined, and the tabu hits and aspirations.
//
// The MinWeight/MaxSlack quick reject prunes candidates that cannot fit under
// any constraint with one compare instead of an O(m) Fits probe, and the
// suffix-min bound over the order ends a pass once no remaining candidate can
// pass that reject. Both only replace Fits=false outcomes — no RNG is drawn
// for a rejected candidate — so the RNG stream is that of a full Fits walk.
//
// The first pass walks the whole scan order; each later pass walks only the
// positions the previous pass skipped after Fits passed (an AddNoise coin or
// a tabu item without aspiration). The phase only adds, and subtracting a
// non-negative weight never raises a slack, so every other position stays
// packed, keeps failing Fits, or stays past the suffix-min exit: a full
// rescan would draw no coin and add nothing there. Later passes therefore
// make exactly the decisions and draws of the full rescans they replace.
func (s *Searcher) addPhase(p Params, bestValue float64, tenure int64, useREM bool) (inserted, scanned, tabuHits, aspirations int64) {
	minW := s.ins.MinWeight
	width := int64(math.MaxInt64)
	if p.CandWidth > 0 {
		width = int64(p.CandWidth)
	}
	maxSlack := s.st.MaxSlack()
	walk := s.allPos[:len(s.order)]
	for {
		added := false
		// deferred shares walk's array on later passes: it is appended to at
		// most once per position read, so a write never passes the read.
		deferred := s.deferBuf[:0]
		for _, k := range walk {
			if inserted >= width || s.orderSuf[k] > maxSlack {
				break
			}
			scanned++
			j := s.order[k]
			if minW[j] > maxSlack || s.st.X.Get(j) || !s.st.Fits(j) {
				continue
			}
			if p.AddNoise > 0 && s.r.Bool(p.AddNoise) {
				deferred = append(deferred, k)
				continue
			}
			blocked := s.tabuAdd[j] > s.moves
			if useREM && !blocked {
				blocked = s.rem.tabu(j) || s.flippedThisMove(j)
			}
			if blocked {
				if s.st.Value+s.ins.Profit[j] <= bestValue {
					tabuHits++
					deferred = append(deferred, k)
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
		if !added || len(deferred) == 0 || inserted >= width {
			return inserted, scanned, tabuHits, aspirations
		}
		walk = deferred
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
// runner-up is taken instead, decorrelating parallel trajectories. Ties go to
// the lower index: the item is the first index of the strict maximum, the
// runner-up that of the rest, and the fallback that of the locked items.
//
// The packed items are walked best-first, in the instance's drop order for
// i (decreasing score, ties to the lower index), so the item, the runner-up
// and the fallback are the first two free items and the first locked one
// the walk meets. The walk stops at the runner-up: the fallback is read only
// when there is no free item, and then every packed item has been visited.
func (s *Searcher) pickDrop(i int, useREM bool, noise float64) int {
	order, pos := s.ins.DropOrder(i)
	half := len(s.drop) / 2
	nw := half / s.ins.M
	snap := s.drop[i*nw : (i+1)*nw]
	packed := s.drop[half+i*nw : half+(i+1)*nw]
	// Bring the position bitset up to date with the words of X that changed
	// since constraint i was last used. Nothing hooks the changes, so every
	// path that writes X is covered.
	for k := range snap {
		w := s.st.X.Word(k)
		for d := w ^ snap[k]; d != 0; d &= d - 1 {
			p := uint(pos[k*64+bits.TrailingZeros64(d)])
			packed[p/64] ^= 1 << (p % 64)
		}
		snap[k] = w
	}
	best, second, bestTabu := -1, -1, -1
walk:
	for k, w := range packed {
		for ; w != 0; w &= w - 1 {
			j := int(order[k*64+bits.TrailingZeros64(w)])
			if s.core != nil && s.core.In.Get(j) {
				continue // proven in every improving solution; never drop
			}
			blocked := s.tabuDrop[j] > s.moves
			if useREM && !blocked {
				blocked = s.rem.tabu(j) || s.flippedThisMove(j)
			}
			switch {
			case blocked:
				if bestTabu == -1 {
					bestTabu = j
				}
			case best == -1:
				best = j
			default:
				second = j
				break walk
			}
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
//
// Only out-items can be picked, so the walk visits the profit ranks of
// outSet, which holds the out-items by rank: built from X on entry and
// updated on every exchange, it yields exactly the items an X.Get filter of
// the whole profit order would keep, in the same order. The dropped item i
// is not in it, and need not be: its profit ends the walk before its rank.
func (s *Searcher) swapPass() {
	byProfit := s.ins.ProfitOrder()
	rankOf := s.ins.ProfitRank()
	profit := s.ins.Profit
	minW := s.ins.MinWeight
	out := s.outSet
	out.Reset()
	for r, j := range byProfit {
		if !s.st.X.Get(j) {
			out.Set(r)
		}
	}
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
			for r := out.NextSet(0); r >= 0; r = out.NextSet(r + 1) {
				j := byProfit[r]
				if profit[j] <= ci {
					break // the rest are no more profitable than i
				}
				// A negative position (j outside the order) fails as a
				// huge unsigned one.
				if k := s.pos[j]; uint32(k) < uint32(at) && minW[j] <= maxSlack && s.st.Fits(j) {
					pick, at = j, k
				}
			}
			if pick >= 0 {
				s.st.Add(pick)
				out.Clear(int(rankOf[pick]))
				out.Set(int(rankOf[i]))
				improved = true
			} else {
				s.st.Add(i) // undo
			}
		}
		s.idxBuf = packed[:0]
	}
}

// refillSweep generalizes the 1-for-1 swap: for each packed item, try
// dropping it and greedily refilling, in scan order, with any other fitting
// items; keep the exchange only when the total value improves. One sweep
// catches the 1-for-2 exchanges that separate near-optimal solutions on
// strongly correlated instances.
//
// The refill candidates are the scan order's out-items other than i. Between
// kept exchanges they are the same for every drop — an exchange that is not
// kept restores the assignment — so the sweep lists them once, and again
// after each kept exchange (screenOut). An entry whose weight in either of
// its two listed constraints exceeds that constraint's live slack is
// rejected without a Fits call: that is one of the compares Fits makes, so
// the reject is exact however far the slacks have moved since the listing.
func (s *Searcher) refillSweep() {
	packed := s.st.X.Indices(s.idxBuf[:0])
	slack := s.st.Slack
	list := s.screenOut()
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
		added = added[:0]
		for _, e := range list {
			if e.w1 > slack[e.c1] || e.w2 > slack[e.c2] {
				continue
			}
			if j := int(e.j); s.st.Fits(j) {
				s.st.AddMax(j)
				added = append(added, j)
			}
		}
		if s.st.Value > before {
			list = s.screenOut()
			continue
		}
		for _, j := range added {
			s.st.Drop(j)
		}
		s.st.Add(i)
	}
	s.idxBuf, s.addBuf = packed[:0], added[:0]
}

// screenOut lists the scan order's out-items in order, each with the two
// constraints it overflows most (largest weight minus slack) at the current
// slacks — the two most likely to reject it once an item is dropped. With
// one constraint both entries name it.
func (s *Searcher) screenOut() []screenEntry {
	m := s.ins.M
	slack := s.st.Slack
	list := s.screen[:0]
	for _, j := range s.order {
		if s.st.X.Get(j) {
			continue
		}
		col := s.ins.ItemWeights(j)
		c1, c2 := 0, 0
		if m > 1 {
			o1, o2 := col[0]-slack[0], col[1]-slack[1]
			if o2 > o1 {
				c1, c2, o1, o2 = 1, 0, o2, o1
			} else {
				c2 = 1
			}
			for c := 2; c < m; c++ {
				switch over := col[c] - slack[c]; {
				case over > o1:
					c1, c2, o1, o2 = c, c1, over, o1
				case over > o2:
					c2, o2 = c, over
				}
			}
		}
		list = append(list, screenEntry{j: int32(j), c1: int32(c1), c2: int32(c2), w1: col[c1], w2: col[c2]})
	}
	s.screen = list
	return list
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
	s.repairKeeping(nil)
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
// burden ratio first), touching the locked `keep` items and the core's
// fixed-in items only as a last resort. With nothing locked it drops exactly
// what mkp.Repair drops, without allocating.
func (s *Searcher) repairKeeping(keep []int) {
	if s.st.Feasible() {
		return
	}
	s.markLocked(keep, true)
	packed := s.st.X.Indices(s.idxBuf[:0])
	slices.SortStableFunc(packed, func(a, b int) int {
		return cmp.Compare(s.ins.BurdenRatio(b), s.ins.BurdenRatio(a))
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
		s.order, s.orderSuf = s.rank, s.ins.RankSuffixMin()
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
