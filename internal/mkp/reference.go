package mkp

import (
	"fmt"
	"math"

	"repro/internal/bitset"
)

// NaiveState is the retained row-major reference evaluator: it implements
// exactly the same contract as State but reads the original Weight matrix
// with an M-way strided access per item, the layout the repository shipped
// with before the column-major kernel. It exists for two reasons:
//
//   - the differential property tests drive it and the optimized State
//     through identical move sequences and assert bit-identical values,
//     slacks, and feasibility flags, proving the kernel rewrite changed the
//     memory layout and nothing else;
//   - the kernel microbenchmarks (internal/bench, BENCH_kernel.json) report
//     its timings as the "before" baseline next to the optimized kernel.
//
// It is deliberately not optimized. Solvers must use State.
type NaiveState struct {
	Ins   *Instance
	X     *bitset.Set
	Value float64
	Slack []float64

	negative int
}

// NewNaiveState returns an empty reference state for ins. Unlike NewState it
// does not require or build the column-major layout.
func NewNaiveState(ins *Instance) *NaiveState {
	return &NaiveState{
		Ins:   ins,
		X:     bitset.New(ins.N),
		Slack: append([]float64(nil), ins.Capacity...),
	}
}

// Reset empties the assignment and restores full slack.
func (s *NaiveState) Reset() {
	s.X.Reset()
	s.Value = 0
	copy(s.Slack, s.Ins.Capacity)
	s.negative = 0
}

// Load overwrites the state with the given assignment.
func (s *NaiveState) Load(x *bitset.Set) {
	s.Reset()
	x.ForEach(func(j int) bool {
		s.Add(j)
		return true
	})
}

// Add packs item j, updating value and slacks row by row.
func (s *NaiveState) Add(j int) {
	if s.X.Get(j) {
		panic(fmt.Sprintf("mkp: NaiveState.Add(%d) but item already packed", j))
	}
	s.X.Set(j)
	s.Value += s.Ins.Profit[j]
	for i := 0; i < s.Ins.M; i++ {
		before := s.Slack[i]
		s.Slack[i] -= s.Ins.Weight[i][j]
		if before >= 0 && s.Slack[i] < 0 {
			s.negative++
		}
	}
}

// Drop removes item j, updating value and slacks row by row.
func (s *NaiveState) Drop(j int) {
	if !s.X.Get(j) {
		panic(fmt.Sprintf("mkp: NaiveState.Drop(%d) but item not packed", j))
	}
	s.X.Clear(j)
	s.Value -= s.Ins.Profit[j]
	for i := 0; i < s.Ins.M; i++ {
		before := s.Slack[i]
		s.Slack[i] += s.Ins.Weight[i][j]
		if before < 0 && s.Slack[i] >= 0 {
			s.negative--
		}
	}
}

// Fits reports whether item j can be added without violating any constraint.
func (s *NaiveState) Fits(j int) bool {
	for i := 0; i < s.Ins.M; i++ {
		if s.Ins.Weight[i][j] > s.Slack[i] {
			return false
		}
	}
	return true
}

// Feasible reports whether every constraint is satisfied.
func (s *NaiveState) Feasible() bool { return s.negative == 0 }

// Violation returns Σ_i max(0, −slack_i).
func (s *NaiveState) Violation() float64 {
	if s.negative == 0 {
		return 0
	}
	v := 0.0
	for _, sl := range s.Slack {
		if sl < 0 {
			v -= sl
		}
	}
	return v
}

// MostSaturated returns the index of the minimum-slack constraint, ties to
// the lowest index.
func (s *NaiveState) MostSaturated() int {
	best, bestSlack := 0, math.Inf(1)
	for i, sl := range s.Slack {
		if sl < bestSlack {
			best, bestSlack = i, sl
		}
	}
	return best
}

// FillGreedyNaive is the pre-pruning add phase: walk the utility ranking and
// probe every unpacked item with the full O(m) Fits, no quick reject. The
// AddPhase benchmark measures it against FillGreedy, so it keeps the per-call
// copy of the ranking the pre-optimization code paid for.
func FillGreedyNaive(s *NaiveState) {
	for _, j := range append([]int(nil), RankByUtility(s.Ins)...) {
		if !s.X.Get(j) && s.Fits(j) {
			s.Add(j)
		}
	}
}
