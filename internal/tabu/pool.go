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
	cap    int
	sols   []mkp.Solution
	keys   map[string]bool
	keyBuf []byte // scratch for allocation-free duplicate lookups
}

// NewPool returns a pool holding at most capacity solutions. capacity < 1 is
// treated as 1.
func NewPool(capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{
		cap:  capacity,
		sols: make([]mkp.Solution, 0, capacity+1),
		keys: make(map[string]bool, capacity+1),
	}
}

// Offer inserts a snapshot of sol if it is distinct and good enough to rank
// among the B best. It reports whether the pool changed.
//
// Offer sits on the search hot path (it is probed after every compound move),
// so the duplicate check uses bitset.AppendKey into a reused scratch buffer:
// the map[string] lookup via string(buf) compiles to an allocation-free
// access, and a key string is only materialized for genuinely new entries.
// The new member goes after the last member of greater or equal value —
// where appending it and stably sorting by decreasing value would put it.
func (p *Pool) Offer(sol mkp.Solution) bool {
	if len(p.sols) == p.cap && sol.Value <= p.sols[len(p.sols)-1].Value {
		return false
	}
	p.keyBuf = sol.X.AppendKey(p.keyBuf[:0])
	if p.keys[string(p.keyBuf)] {
		return false
	}
	p.keys[string(p.keyBuf)] = true
	at := sort.Search(len(p.sols), func(k int) bool { return p.sols[k].Value < sol.Value })
	p.sols = slices.Insert(p.sols, at, sol.Clone())
	if last := len(p.sols) - 1; last == p.cap {
		p.keyBuf = p.sols[last].X.AppendKey(p.keyBuf[:0])
		delete(p.keys, string(p.keyBuf))
		p.sols[last] = mkp.Solution{}
		p.sols = p.sols[:last]
	}
	return true
}

// Best returns the top solution, or ok=false when the pool is empty.
func (p *Pool) Best() (mkp.Solution, bool) {
	if len(p.sols) == 0 {
		return mkp.Solution{}, false
	}
	return p.sols[0], true
}

// Len returns the number of stored solutions.
func (p *Pool) Len() int { return len(p.sols) }

// Solutions returns a copy of the stored solutions in decreasing value order.
func (p *Pool) Solutions() []mkp.Solution {
	out := make([]mkp.Solution, len(p.sols))
	for i, s := range p.sols {
		out[i] = s.Clone()
	}
	return out
}

// Reset empties the pool.
func (p *Pool) Reset() {
	p.sols = p.sols[:0]
	p.keys = make(map[string]bool, p.cap+1)
}

// Diameter returns the maximum pairwise Hamming distance among the stored
// solutions (0 for fewer than two). This is the dispersion measure SGP uses:
// a small diameter means the slave kept finding near-identical solutions.
func (p *Pool) Diameter() int {
	max := 0
	for a := 0; a < len(p.sols); a++ {
		for b := a + 1; b < len(p.sols); b++ {
			if d := bitset.Distance(p.sols[a].X, p.sols[b].X); d > max {
				max = d
			}
		}
	}
	return max
}
