package tabu

import (
	"math"
	"testing"

	"repro/internal/mkp"
	"repro/internal/rng"
)

// swapPassFirstFit is the retained reference for swapPass: for each free
// packed item i, walk the whole scan order and take the first item that is
// out, strictly more profitable than i and fits.
func swapPassFirstFit(s *Searcher) {
	minW := s.ins.MinWeight
	for improved := true; improved; {
		improved = false
		for _, i := range s.st.X.Indices(nil) {
			if s.core != nil && !s.core.Free(i) {
				continue
			}
			ci := s.ins.Profit[i]
			s.st.Drop(i)
			maxSlack := s.st.MaxSlack()
			swapped := false
			for k, j := range s.order {
				if s.orderSuf[k] > maxSlack {
					break
				}
				if minW[j] > maxSlack || s.st.X.Get(j) || s.ins.Profit[j] <= ci {
					continue
				}
				if s.st.Fits(j) {
					s.st.Add(j)
					swapped, improved = true, true
					break
				}
			}
			if !swapped {
				s.st.Add(i)
			}
		}
	}
}

// swapDiffInstance draws an instance built to stress the profit-ordered
// scan: profits from a handful of values (many ties, so the scan's stop at
// the first item no more profitable than i must cut between equals) and
// non-integer weights with some zeros.
func swapDiffInstance(r *rng.Rand, n, m int) *mkp.Instance {
	ins := &mkp.Instance{
		Name:     "swapdiff",
		N:        n,
		M:        m,
		Profit:   make([]float64, n),
		Weight:   make([][]float64, m),
		Capacity: make([]float64, m),
	}
	levels := 1 + r.Intn(6)
	for j := range ins.Profit {
		ins.Profit[j] = 5 + 7.5*float64(r.Intn(levels)) + float64(r.Intn(3))/4
	}
	for i := range ins.Weight {
		row := make([]float64, n)
		total := 0.0
		for j := range row {
			if r.Intn(12) != 0 {
				row[j] = 0.5 + 30*r.Float64()
			}
			total += row[j]
		}
		ins.Weight[i] = row
		ins.Capacity[i] = math.Max(1, (0.15+0.6*r.Float64())*total)
	}
	return ins
}

// randomSwapCore fixes roughly a tenth of the items at 1 and another tenth
// at 0.
func randomSwapCore(t *testing.T, r *rng.Rand, ins *mkp.Instance, epoch int) *Core {
	at0 := make([]bool, ins.N)
	at1 := make([]bool, ins.N)
	for j := range at0 {
		switch r.Intn(10) {
		case 0:
			at0[j] = true
		case 1:
			at1[j] = true
		}
	}
	c, err := NewCore(ins, at0, at1, 0, 0, 0, epoch)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSwapPassMatchesFirstFit runs the indexed swap pass and the first-fit
// reference from the same starts — with and without a core, switching cores
// between starts so the scan positions are rebuilt — and demands identical
// assignments, values and slacks, bit for bit.
func TestSwapPassMatchesFirstFit(t *testing.T) {
	r := rng.New(20240)
	swaps := 0
	for trial := 0; trial < 150; trial++ {
		n := 2 + r.Intn(90)
		m := 1 + r.Intn(9)
		ins := swapDiffInstance(r, n, m)
		got, err := NewSearcher(ins, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewSearcher(ins, 1)
		for start := 0; start < 6; start++ {
			var c *Core
			if r.Intn(2) == 0 {
				c = randomSwapCore(t, r, ins, start)
			}
			x := mkp.RandomFeasible(ins, r).X
			// Unpack a few items so the pass has room to exchange into.
			for j := x.NextSet(0); j >= 0; j = x.NextSet(j + 1) {
				if r.Intn(4) == 0 {
					x.Clear(j)
				}
			}
			for _, s := range []*Searcher{got, want} {
				s.adoptCore(c)
				s.st.Load(x)
				if c != nil {
					s.applyCore()
				}
			}
			before := got.st.Value
			got.swapPass()
			swapPassFirstFit(want)
			if got.st.Value != before {
				swaps++
			}
			if !got.st.X.Equal(want.st.X) {
				t.Fatalf("trial %d start %d (n=%d m=%d core=%v): indexed pass packed %v, first-fit %v",
					trial, start, n, m, c != nil, got.st.X, want.st.X)
			}
			if math.Float64bits(got.st.Value) != math.Float64bits(want.st.Value) {
				t.Fatalf("trial %d start %d: value %v, want %v", trial, start, got.st.Value, want.st.Value)
			}
			for i := range want.st.Slack {
				if math.Float64bits(got.st.Slack[i]) != math.Float64bits(want.st.Slack[i]) {
					t.Fatalf("trial %d start %d: slack[%d] = %v, want %v",
						trial, start, i, got.st.Slack[i], want.st.Slack[i])
				}
			}
		}
	}
	if swaps < 100 {
		t.Fatalf("only %d of 900 starts exchanged anything; the test is not exercising swaps", swaps)
	}
}
