package mkp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// randInstance builds a random valid instance. Roughly a tenth of the weight
// entries are zero, exercising the MinWeight=0 quick-reject edge and items
// that are free under some constraints.
func randInstance(r *rand.Rand, n, m int) *Instance {
	ins := &Instance{
		Name:     "diff",
		N:        n,
		M:        m,
		Profit:   make([]float64, n),
		Weight:   make([][]float64, m),
		Capacity: make([]float64, m),
	}
	for j := 0; j < n; j++ {
		ins.Profit[j] = float64(1 + r.Intn(100))
	}
	for i := 0; i < m; i++ {
		ins.Weight[i] = make([]float64, n)
		total := 0.0
		for j := 0; j < n; j++ {
			if r.Intn(10) == 0 {
				ins.Weight[i][j] = 0
			} else {
				ins.Weight[i][j] = float64(1 + r.Intn(50))
			}
			total += ins.Weight[i][j]
		}
		ins.Capacity[i] = 1 + total*(0.2+0.3*r.Float64())
	}
	return ins
}

// assertStatesAgree compares every observable of the optimized and reference
// evaluators. The slacks must be bit-identical: both kernels apply the same
// float64 additions in the same order, only from different memory layouts.
func assertStatesAgree(t *testing.T, opt *State, ref *NaiveState, tag string) {
	t.Helper()
	if opt.Value != ref.Value {
		t.Fatalf("%s: value %v (optimized) != %v (reference)", tag, opt.Value, ref.Value)
	}
	if !opt.X.Equal(ref.X) {
		t.Fatalf("%s: assignments diverged", tag)
	}
	for i := range ref.Slack {
		if opt.Slack[i] != ref.Slack[i] {
			t.Fatalf("%s: slack[%d] %v (optimized) != %v (reference)", tag, i, opt.Slack[i], ref.Slack[i])
		}
	}
	if opt.Feasible() != ref.Feasible() {
		t.Fatalf("%s: feasible %v (optimized) != %v (reference)", tag, opt.Feasible(), ref.Feasible())
	}
	if opt.Violation() != ref.Violation() {
		t.Fatalf("%s: violation %v != %v", tag, opt.Violation(), ref.Violation())
	}
	if opt.MostSaturated() != ref.MostSaturated() {
		t.Fatalf("%s: most saturated %d != %d", tag, opt.MostSaturated(), ref.MostSaturated())
	}
	maxSlack := opt.MaxSlack()
	for j := 0; j < opt.Ins.N; j++ {
		if opt.X.Get(j) {
			continue
		}
		of, rf := opt.Fits(j), ref.Fits(j)
		if of != rf {
			t.Fatalf("%s: Fits(%d) %v (optimized) != %v (reference)", tag, j, of, rf)
		}
		// The quick-reject bound must never contradict a positive Fits.
		if opt.Ins.MinWeight[j] > maxSlack && of {
			t.Fatalf("%s: quick reject would skip item %d but Fits=true", tag, j)
		}
	}
}

// TestKernelDifferential drives the optimized column-major State and the
// naive row-major NaiveState through identical random Add/Drop/oscillation
// sequences — including deliberately infeasible excursions — and requires
// identical values, slacks, and feasibility flags at every step.
func TestKernelDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(20260806))
	shapes := [][2]int{{1, 1}, {1, 5}, {5, 1}, {7, 3}, {30, 10}, {80, 25}, {200, 5}}
	for _, sh := range shapes {
		n, m := sh[0], sh[1]
		for trial := 0; trial < 4; trial++ {
			ins := randInstance(r, n, m)
			if err := ins.Validate(); err != nil {
				t.Fatal(err)
			}
			opt, ref := NewState(ins), NewNaiveState(ins)
			steps := 200 + r.Intn(400)
			for step := 0; step < steps; step++ {
				j := r.Intn(n)
				switch {
				case opt.X.Get(j):
					opt.Drop(j)
					ref.Drop(j)
				case r.Intn(4) == 0:
					// Oscillation-style forced add: ignore feasibility so the
					// pair wanders through infeasible states too.
					opt.Add(j)
					ref.Add(j)
				case opt.Fits(j):
					opt.Add(j)
					ref.Add(j)
				default:
					opt.Add(j) // force it anyway: deeper infeasible excursion
					ref.Add(j)
				}
				if step%17 == 0 {
					assertStatesAgree(t, opt, ref, ins.Size())
				}
			}
			assertStatesAgree(t, opt, ref, ins.Size())

			// Load must agree with replaying the reference from scratch.
			x := bitset.New(n)
			for j := 0; j < n; j++ {
				if r.Intn(2) == 0 {
					x.Set(j)
				}
			}
			opt.Load(x)
			ref.Load(x)
			assertStatesAgree(t, opt, ref, ins.Size()+"/load")

			// Recompute must not drift: the incremental column walk applies
			// the same additions as the from-scratch rebuild.
			if drift := opt.Recompute(); drift != 0 {
				t.Fatalf("%s: Recompute drift %v after random walk", ins.Size(), drift)
			}
			assertStatesAgree(t, opt, ref, ins.Size()+"/recompute")
		}
	}
}

// TestKernelDifferentialGreedy checks that the pruned add phase packs exactly
// what the unpruned reference add phase packs.
func TestKernelDifferentialGreedy(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n, m := 1+r.Intn(120), 1+r.Intn(20)
		ins := randInstance(r, n, m)
		if err := ins.Validate(); err != nil {
			t.Fatal(err)
		}
		got := Greedy(ins)

		ref := NewNaiveState(ins)
		FillGreedyNaive(ref)
		if got.Value != ref.Value || !got.X.Equal(ref.X) {
			t.Fatalf("n=%d m=%d: pruned greedy %v differs from reference %v", n, m, got.Value, ref.Value)
		}

		// FillGreedy from a random feasible prefix must match the naive fill.
		opt := NewState(ins)
		ref.Reset()
		for j := 0; j < n; j++ {
			if r.Intn(3) == 0 && opt.Fits(j) {
				opt.Add(j)
				ref.Add(j)
			}
		}
		FillGreedy(opt)
		FillGreedyNaive(ref)
		if opt.Value != ref.Value || !opt.X.Equal(ref.X) {
			t.Fatalf("n=%d m=%d: pruned fill %v differs from reference %v", n, m, opt.Value, ref.Value)
		}
	}
}

// TestFinalizeDerivedLayout pins the derived arrays to the row-major source.
func TestFinalizeDerivedLayout(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ins := randInstance(r, 13, 4)
	// Non-integer weights and profits make the burden sums round, so a
	// cache summed in another order would differ in the last bits.
	for i := range ins.Weight {
		for j := range ins.Weight[i] {
			ins.Weight[i][j] *= 0.1 + r.Float64()
		}
	}
	for j := range ins.Profit {
		ins.Profit[j] /= 3
	}
	ins.Finalize()
	if len(ins.WeightCol) != 13*4 {
		t.Fatalf("WeightCol has %d entries, want %d", len(ins.WeightCol), 13*4)
	}
	for j := 0; j < ins.N; j++ {
		col := ins.ItemWeights(j)
		minW, sum := col[0], 0.0
		for i := 0; i < ins.M; i++ {
			if col[i] != ins.Weight[i][j] {
				t.Fatalf("WeightCol[%d*M+%d] = %v, want Weight[%d][%d] = %v", j, i, col[i], i, j, ins.Weight[i][j])
			}
			if col[i] < minW {
				minW = col[i]
			}
			sum += ins.Weight[i][j]
		}
		if ins.MinWeight[j] != minW {
			t.Fatalf("MinWeight[%d] = %v, want %v", j, ins.MinWeight[j], minW)
		}
		// The cached burden ratio must be the from-scratch sum bit for bit:
		// repair sorts by it, and one ulp reorders a tie.
		if got, want := ins.BurdenRatio(j), sum/ins.Profit[j]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("BurdenRatio(%d) = %v (%#x), want %v (%#x)", j, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// Clone carries an equivalent finalized layout.
	c := ins.Clone()
	for k, v := range ins.WeightCol {
		if c.WeightCol[k] != v {
			t.Fatal("Clone dropped the column-major layout")
		}
	}
}
