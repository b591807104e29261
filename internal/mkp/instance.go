// Package mkp models the 0-1 multidimensional knapsack problem:
//
//	max  Σ_j c_j x_j
//	s.t. Σ_j a_ij x_j <= b_i   (i = 1..m)
//	     x_j ∈ {0,1}           (j = 1..n)
//
// with all a_ij, b_i, c_j positive, exactly as defined in Niar & Fréville
// (IPPS 1997, §1). The package provides the instance representation, an
// incremental solution evaluator (the tabu-search hot path), greedy
// construction and repair heuristics, and OR-Library-format I/O.
package mkp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// Instance is an immutable 0-1 MKP instance. Weight is indexed [constraint][item].
// BestKnown, when positive, records a reference objective value (an optimum
// from the exact solver or a best-known bound) used for deviation reporting;
// zero means unknown.
//
// The evaluator hot path (State.Add/Drop/Fits) never reads the row-major
// Weight matrix: Finalize derives a flattened column-major copy plus per-item
// pruning bounds, so one item's M coefficients are a single contiguous cache
// run instead of M strided slice lookups. Weight remains the canonical
// representation for I/O, validation, and column-indexed readers (bounds,
// reduction, drop scoring). An instance must not be mutated after Finalize
// (equivalently, after its first Validate or its first use by a solver).
type Instance struct {
	Name      string
	N         int         // number of items (variables)
	M         int         // number of constraints (dimensions)
	Profit    []float64   // c_j, length N
	Weight    [][]float64 // a_ij, M rows of length N
	Capacity  []float64   // b_i, length M
	BestKnown float64

	// Derived, built once by Finalize (nil until then).
	WeightCol []float64 // column-major a_ij: item j's M weights at [j*M:(j+1)*M]
	MinWeight []float64 // min_i a_ij per item: quick-reject bound for Fits

	// Blocked layout for the word-parallel Fits scan: PadM is M rounded up
	// to a multiple of fitsBlock, and WeightColPad holds item j's column at
	// [j*PadM:(j+1)*PadM] padded with zero weights (a zero weight can never
	// exceed a slack pad of +Inf, so the unrolled k-wide compare needs no
	// remainder loop).
	PadM         int
	WeightColPad []float64

	utilRank   []int     // items by decreasing pseudo-utility (shared, read-only)
	rankSufMin []float64 // suffix min of MinWeight along utilRank (scan early exit)
	finalize   sync.Once

	// Built on first use rather than in Finalize, which a wire worker runs
	// inside its handshake: only the searches that read them pay for them.
	byProfit   []int     // items by decreasing profit (ProfitOrder)
	profitRank []int32   // each item's index in byProfit (ProfitRank)
	burden     []float64 // BurdenRatio per item
	dropBlock  []int32   // M drop orders, then M position rows (DropOrder)
	profitOnce sync.Once
	burdenOnce sync.Once
	dropOnce   sync.Once
}

// fitsBlock is the unroll width of the word-parallel Fits scan; PadM is a
// multiple of it so the compare loop has no scalar remainder.
const fitsBlock = 4

// Finalize builds the derived column-major layout and pruning bounds. It is
// idempotent and safe for concurrent callers (the first caller builds, the
// rest wait), so every solver entry point can call it defensively. Validate
// and NewState both invoke it; constructors that bypass Validate (tests,
// generators) get finalized on first evaluator use.
func (ins *Instance) Finalize() {
	ins.finalize.Do(func() {
		m, n := ins.M, ins.N
		col := make([]float64, n*m)
		minW := make([]float64, n)
		for j := 0; j < n; j++ {
			base := j * m
			lo := 0.0
			for i := 0; i < m; i++ {
				a := ins.Weight[i][j]
				col[base+i] = a
				if i == 0 || a < lo {
					lo = a
				}
			}
			minW[j] = lo
		}
		ins.WeightCol = col
		ins.MinWeight = minW

		pm := (m + fitsBlock - 1) &^ (fitsBlock - 1)
		pad := make([]float64, n*pm) // pads stay 0: a zero weight never rejects
		for j := 0; j < n; j++ {
			copy(pad[j*pm:j*pm+m], col[j*m:(j+1)*m])
		}
		ins.PadM = pm
		ins.WeightColPad = pad

		ins.utilRank = rankByUtility(ins)
		ins.rankSufMin = SuffixMinWeight(ins, ins.utilRank)
	})
}

// SuffixMinWeight returns suf aligned with order, where suf[k] is the minimum
// MinWeight over the tail order[k:]. A scan that walks order against a
// non-increasing slack bound can stop at the first k with suf[k] > maxSlack:
// every remaining candidate would fail the MinWeight quick reject anyway, so
// the early exit is behavior-preserving. The instance must be finalized (or
// being finalized, as in the Finalize call itself, which runs after MinWeight
// is built).
func SuffixMinWeight(ins *Instance, order []int) []float64 {
	suf := make([]float64, len(order))
	min := math.Inf(1)
	for k := len(order) - 1; k >= 0; k-- {
		if w := ins.MinWeight[order[k]]; w < min {
			min = w
		}
		suf[k] = min
	}
	return suf
}

// ItemWeights returns item j's M coefficients as one contiguous slice of the
// column-major layout (read-only). The instance must be finalized.
func (ins *Instance) ItemWeights(j int) []float64 {
	return ins.WeightCol[j*ins.M : (j+1)*ins.M : (j+1)*ins.M]
}

// Validate checks structural consistency and the paper's positivity
// assumptions. Every solver in this repository calls it once up front so the
// hot paths can skip bounds and sign checks.
func (ins *Instance) Validate() error {
	if ins == nil {
		return errors.New("mkp: nil instance")
	}
	if ins.N <= 0 {
		return fmt.Errorf("mkp: instance %q has N=%d, want > 0", ins.Name, ins.N)
	}
	if ins.M <= 0 {
		return fmt.Errorf("mkp: instance %q has M=%d, want > 0", ins.Name, ins.M)
	}
	if len(ins.Profit) != ins.N {
		return fmt.Errorf("mkp: instance %q has %d profits, want %d", ins.Name, len(ins.Profit), ins.N)
	}
	if len(ins.Capacity) != ins.M {
		return fmt.Errorf("mkp: instance %q has %d capacities, want %d", ins.Name, len(ins.Capacity), ins.M)
	}
	if len(ins.Weight) != ins.M {
		return fmt.Errorf("mkp: instance %q has %d weight rows, want %d", ins.Name, len(ins.Weight), ins.M)
	}
	// The comparisons also reject NaN; +Inf is rejected explicitly.
	for j, c := range ins.Profit {
		if !(c > 0) || math.IsInf(c, 1) {
			return fmt.Errorf("mkp: instance %q profit[%d]=%v, want finite > 0", ins.Name, j, c)
		}
	}
	for i, row := range ins.Weight {
		if len(row) != ins.N {
			return fmt.Errorf("mkp: instance %q weight row %d has %d entries, want %d", ins.Name, i, len(row), ins.N)
		}
		for j, a := range row {
			if !(a >= 0) || math.IsInf(a, 1) {
				return fmt.Errorf("mkp: instance %q weight[%d][%d]=%v, want finite >= 0", ins.Name, i, j, a)
			}
		}
	}
	for i, b := range ins.Capacity {
		if !(b > 0) || math.IsInf(b, 1) {
			return fmt.Errorf("mkp: instance %q capacity[%d]=%v, want finite > 0", ins.Name, i, b)
		}
	}
	ins.Finalize()
	return nil
}

// Size returns the conventional "m*n" label used in the paper's tables.
func (ins *Instance) Size() string {
	return fmt.Sprintf("%d*%d", ins.M, ins.N)
}

// Clone returns a deep copy of the instance.
func (ins *Instance) Clone() *Instance {
	c := &Instance{
		Name:      ins.Name,
		N:         ins.N,
		M:         ins.M,
		Profit:    append([]float64(nil), ins.Profit...),
		Capacity:  append([]float64(nil), ins.Capacity...),
		Weight:    make([][]float64, ins.M),
		BestKnown: ins.BestKnown,
	}
	for i, row := range ins.Weight {
		c.Weight[i] = append([]float64(nil), row...)
	}
	if ins.WeightCol != nil {
		c.Finalize()
	}
	return c
}

// TotalWeight returns Σ_j a_ij for constraint i: the row sum used by the
// Glover–Kochenberger-style capacity rule b_i = tightness·Σ_j a_ij.
func (ins *Instance) TotalWeight(i int) float64 {
	s := 0.0
	for _, a := range ins.Weight[i] {
		s += a
	}
	return s
}

// Tightness returns b_i / Σ_j a_ij for constraint i, the standard hardness
// knob for generated MKP instances.
func (ins *Instance) Tightness(i int) float64 {
	tw := ins.TotalWeight(i)
	if tw == 0 {
		return 1
	}
	return ins.Capacity[i] / tw
}

// PseudoUtility returns c_j divided by the capacity-normalized aggregate
// weight of item j, the classic bang-for-buck score used by the greedy
// constructor and the Add phase of the tabu move:
//
//	u_j = c_j / Σ_i (a_ij / b_i)
//
// Items that consume nothing (all a_ij = 0) get +Inf via a tiny denominator
// guard, so they sort first and are always packed.
func (ins *Instance) PseudoUtility(j int) float64 {
	d := 0.0
	for i := 0; i < ins.M; i++ {
		d += ins.Weight[i][j] / ins.Capacity[i]
	}
	if d <= 0 {
		d = 1e-300
	}
	return ins.Profit[j] / d
}

// BurdenRatio returns Σ_i a_ij / c_j for item j: the "less interesting
// objects ... with large Σ_i a_ij/c_j ratio" score the paper's strategic
// oscillation uses to project infeasible solutions back into the feasible
// domain (§3.2). The ratios are computed once per instance, on first use,
// each summing its column in constraint order, so repair's sort keys are
// exactly those of a from-scratch evaluation while a comparison costs an
// index instead of M strided loads.
func (ins *Instance) BurdenRatio(j int) float64 {
	ins.burdenOnce.Do(func() {
		br := make([]float64, ins.N)
		for k := range br {
			s := 0.0
			for i := 0; i < ins.M; i++ {
				s += ins.Weight[i][k]
			}
			br[k] = s / ins.Profit[k]
		}
		ins.burden = br
	})
	return ins.burden[j]
}

// ProfitOrder returns the items by decreasing profit c_j (read-only), ties
// to the lower index, computed once per instance on first use. A scan that
// wants only the items more profitable than some c walks a prefix of it.
func (ins *Instance) ProfitOrder() []int {
	ins.profitOnce.Do(ins.buildProfitOrder)
	return ins.byProfit
}

// ProfitRank returns each item's index in ProfitOrder (read-only), built
// with it.
func (ins *Instance) ProfitRank() []int32 {
	ins.profitOnce.Do(ins.buildProfitOrder)
	return ins.profitRank
}

func (ins *Instance) buildProfitOrder() {
	order := make([]int, ins.N)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ins.Profit[order[a]] > ins.Profit[order[b]]
	})
	rank := make([]int32, ins.N)
	for r, j := range order {
		rank[j] = int32(r)
	}
	ins.byProfit, ins.profitRank = order, rank
}

// RankSuffixMin returns SuffixMinWeight along the utility ranking
// (read-only), computed once per instance by Finalize.
func (ins *Instance) RankSuffixMin() []float64 {
	ins.Finalize()
	return ins.rankSufMin
}

// DropOrder returns constraint i's drop order — the items by decreasing
// a_ij/c_j, the score of the tabu move's Drop step, ties to the lower index —
// and each item's position in it (read-only). The orders of all constraints
// are built together on first use. Validate admits no score that is NaN, so
// on a valid instance the order ranks items as comparing their scores does.
func (ins *Instance) DropOrder(i int) (order, pos []int32) {
	ins.dropOnce.Do(ins.buildDropOrders)
	n, m := ins.N, ins.M
	order = ins.dropBlock[i*n : (i+1)*n : (i+1)*n]
	pos = ins.dropBlock[(m+i)*n : (m+i+1)*n : (m+i+1)*n]
	return order, pos
}

// buildDropOrders sorts each row's items on a uint64 key: the complemented
// bits of the score — monotone in a non-negative float, so ascending keys
// mean descending scores — with the low ⌈log₂N⌉ bits replaced by the item.
// Two scores that differ only in those low bits may then sit out of order,
// but only next to each other, so one insertion pass with the exact
// comparator (score descending, then item ascending) finishes the sort.
func (ins *Instance) buildDropOrders() {
	n, m := ins.N, ins.M
	block := make([]int32, 2*m*n)
	keys := make([]uint64, n)
	score := make([]float64, n)
	low := uint64(1)<<bits.Len(uint(n-1)) - 1
	for i, row := range ins.Weight {
		for j := range score {
			s := row[j] / ins.Profit[j]
			if s == 0 {
				s = 0 // −0 would key after every positive score
			}
			score[j] = s
			keys[j] = ^math.Float64bits(s)&^low | uint64(j)
		}
		slices.Sort(keys)
		order := block[i*n : (i+1)*n]
		for k, key := range keys {
			j := int32(key & low)
			t := k
			for ; t > 0; t-- {
				prev := order[t-1]
				if score[j] < score[prev] || score[j] == score[prev] && j > prev {
					break
				}
				order[t] = prev
			}
			order[t] = j
		}
		pos := block[(m+i)*n : (m+i+1)*n]
		for k, j := range order {
			pos[j] = int32(k)
		}
	}
	ins.dropBlock = block
}
