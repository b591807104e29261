package tabu

import (
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/mkp"
)

// Pool keeps the B best *distinct* solutions seen by a search, sorted by
// decreasing value — the paper's BestSol array (Fig. 1 step 7). The master's
// SGP measures its Hamming diameter to decide whether a slave has been
// exploring or circling (§4.2).
type Pool struct {
	cap  int
	sols []mkp.Solution
}

// NewPool returns a pool holding at most capacity solutions. capacity < 1 is
// treated as 1.
func NewPool(capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{cap: capacity, sols: make([]mkp.Solution, 0, capacity)}
}

// Offer inserts a snapshot of sol if it is distinct and good enough to rank
// among the B best. It reports whether the pool changed. Every solution
// offered to one pool must have the same length.
//
// Offer sits on the search hot path (it is probed after every compound move),
// so once the pool is full it allocates nothing: duplicates are found by
// comparing against the at most B members, and an accepted solution is
// copied into the storage of the member it evicts. The new member goes after
// the last member of greater or equal value — where appending it and stably
// sorting by decreasing value would put it.
func (p *Pool) Offer(sol mkp.Solution) bool {
	if len(p.sols) == p.cap && sol.Value <= p.sols[len(p.sols)-1].Value {
		return false
	}
	for _, s := range p.sols {
		if s.X.Equal(sol.X) {
			return false
		}
	}
	at := sort.Search(len(p.sols), func(k int) bool { return p.sols[k].Value < sol.Value })
	if len(p.sols) < p.cap {
		p.sols = slices.Insert(p.sols, at, sol.Clone())
		return true
	}
	last := len(p.sols) - 1 // the worst member, evicted
	x := p.sols[last].X
	copy(p.sols[at+1:], p.sols[at:last])
	x.CopyFrom(sol.X)
	p.sols[at] = mkp.Solution{X: x, Value: sol.Value}
	return true
}

// Best returns the top solution, or ok=false when the pool is empty. Its
// storage stays the pool's: a later Offer may overwrite it.
func (p *Pool) Best() (mkp.Solution, bool) {
	if len(p.sols) == 0 {
		return mkp.Solution{}, false
	}
	return p.sols[0], true
}

// Len returns the number of stored solutions.
func (p *Pool) Len() int { return len(p.sols) }

// Solutions hands the stored solutions to the caller in decreasing value
// order and empties the pool. It copies nothing: the members now belong to
// the caller, and the pool forgets them, so no later Offer can write into
// the returned slice or the solutions in it.
func (p *Pool) Solutions() []mkp.Solution {
	out := p.sols
	p.sols = nil
	return out
}

// Reset empties the pool.
func (p *Pool) Reset() {
	p.sols = p.sols[:0]
}

// Diameter returns the maximum pairwise Hamming distance among sols (0 for
// fewer than two). This is the dispersion measure SGP reads from a slave's
// reported pool: a small diameter means the slave kept finding
// near-identical solutions.
func Diameter(sols []mkp.Solution) int {
	max := 0
	for a := 0; a < len(sols); a++ {
		for b := a + 1; b < len(sols); b++ {
			if d := bitset.Distance(sols[a].X, sols[b].X); d > max {
				max = d
			}
		}
	}
	return max
}
