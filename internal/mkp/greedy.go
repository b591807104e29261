package mkp

import (
	"sort"

	"repro/internal/bitset"
	"repro/internal/rng"
)

// RankByUtility returns item indices sorted by decreasing pseudo-utility
// c_j / Σ_i (a_ij / b_i). Ties break to the lower index for determinism.
// The ranking is computed once per instance (in Finalize) and cached; this
// returns the shared cache itself, so callers must treat it as read-only and
// copy it before reordering.
func RankByUtility(ins *Instance) []int {
	ins.Finalize()
	return ins.utilRank
}

// rankByUtility computes the utility ordering from scratch. Finalize calls it
// exactly once per instance; everyone else goes through the cache.
func rankByUtility(ins *Instance) []int {
	util := make([]float64, ins.N)
	for j := 0; j < ins.N; j++ {
		util[j] = ins.PseudoUtility(j)
	}
	order := make([]int, ins.N)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return util[order[a]] > util[order[b]] })
	return order
}

// Greedy builds a feasible solution by packing items in decreasing
// pseudo-utility order, skipping anything that no longer fits. This is the
// deterministic baseline constructor.
func Greedy(ins *Instance) Solution {
	st := NewState(ins)
	maxSlack := st.MaxSlack()
	for k, j := range ins.utilRank {
		if ins.rankSufMin[k] > maxSlack {
			break // no remaining candidate fits any constraint
		}
		if ins.MinWeight[j] > maxSlack {
			continue // cannot fit in any constraint; skip the O(m) probe
		}
		if st.Fits(j) {
			maxSlack = st.AddMax(j)
		}
	}
	return st.Snapshot()
}

// RandomizedGreedy builds a feasible solution by repeatedly picking uniformly
// among the rcl best-utility items that still fit (a GRASP-style restricted
// candidate list). rcl <= 1 degenerates to Greedy with random tie-breaking.
// The master uses it to inject fresh random starting solutions (ISP rule 2).
func RandomizedGreedy(ins *Instance, r *rng.Rand, rcl int) Solution {
	if rcl < 1 {
		rcl = 1
	}
	st := NewState(ins)
	remaining := append([]int(nil), RankByUtility(ins)...)
	for len(remaining) > 0 {
		// Collect up to rcl fitting candidates in utility order.
		cands := make([]int, 0, rcl)
		next := remaining[:0]
		maxSlack := st.MaxSlack()
		for _, j := range remaining {
			if ins.MinWeight[j] > maxSlack {
				continue // certainly does not fit now or later: slack shrinks
			}
			if st.Fits(j) {
				if len(cands) < rcl {
					cands = append(cands, j)
				}
				next = append(next, j)
			}
		}
		remaining = next
		if len(cands) == 0 {
			break
		}
		pick := cands[r.Intn(len(cands))]
		st.Add(pick)
		// Remove the packed item from the remaining pool.
		for k, j := range remaining {
			if j == pick {
				remaining = append(remaining[:k], remaining[k+1:]...)
				break
			}
		}
	}
	return st.Snapshot()
}

// RandomFeasible draws a uniformly random 0-1 vector and repairs it into the
// feasible domain, then greedily tops it up. The paper's ISP substitutes such
// "new randomly generated solutions" for stagnant starts (§4.2).
func RandomFeasible(ins *Instance, r *rng.Rand) Solution {
	x := bitset.New(ins.N)
	for j := 0; j < ins.N; j++ {
		if r.Bool(0.5) {
			x.Set(j)
		}
	}
	st := NewState(ins)
	st.Load(x)
	Repair(st)
	FillGreedy(st)
	return st.Snapshot()
}

// Repair projects an infeasible state onto the feasible domain by dropping
// packed items in decreasing burden ratio Σ_i a_ij/c_j — "excluding from the
// knapsack the less interesting objects" (§3.2) — until all constraints hold.
// A feasible state is returned unchanged.
func Repair(st *State) {
	if st.Feasible() {
		return
	}
	packed := st.X.Indices(nil)
	sort.SliceStable(packed, func(a, b int) bool {
		return st.Ins.BurdenRatio(packed[a]) > st.Ins.BurdenRatio(packed[b])
	})
	for _, j := range packed {
		if st.Feasible() {
			return
		}
		st.Drop(j)
	}
}

// FillGreedy packs any still-fitting items in decreasing pseudo-utility
// order. It requires a feasible state and keeps it feasible. The MinWeight
// quick reject skips the O(m) Fits probe for items that exceed even the
// loosest constraint's remaining room, and the suffix-min bound over the
// utility order ends the scan outright once no remaining candidate can fit
// (max slack only shrinks as items are packed, so the exit is
// behavior-preserving).
func FillGreedy(st *State) {
	ins := st.Ins
	maxSlack := st.MaxSlack()
	for k, j := range ins.utilRank {
		if ins.rankSufMin[k] > maxSlack {
			break
		}
		if ins.MinWeight[j] > maxSlack || st.X.Get(j) {
			continue
		}
		if st.Fits(j) {
			maxSlack = st.AddMax(j)
		}
	}
}
