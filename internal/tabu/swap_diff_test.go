package tabu

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/bitset"
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

// addPhaseRescan is the retained reference for addPhase: it rescans the whole
// scan order after every pass that inserted something. It also reports how
// many passes it made.
func addPhaseRescan(s *Searcher, p Params, bestValue float64, tenure int64, useREM bool) (inserted, tabuHits, aspirations int64, passes int) {
	minW := s.ins.MinWeight
	for {
		passes++
		added := false
		maxSlack := s.st.MaxSlack()
		for k, j := range s.order {
			if p.CandWidth > 0 && inserted >= int64(p.CandWidth) {
				break
			}
			if s.orderSuf[k] > maxSlack {
				break
			}
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
		if !added || (p.CandWidth > 0 && inserted >= int64(p.CandWidth)) {
			return inserted, tabuHits, aspirations, passes
		}
	}
}

// refillSweepFullScan is the retained reference for refillSweep: every drop
// walks the whole scan order with the MinWeight reject and Fits. It reports
// how many exchanges it kept before its last drop.
func refillSweepFullScan(s *Searcher) (keptMidway int) {
	minW := s.ins.MinWeight
	var added []int
	packed := s.st.X.Indices(nil)
	for n, i := range packed {
		if !s.st.X.Get(i) {
			continue
		}
		if s.core != nil && !s.core.Free(i) {
			continue
		}
		before := s.st.Value
		s.st.Drop(i)
		maxSlack := s.st.MaxSlack()
		added = added[:0]
		for k, j := range s.order {
			if s.orderSuf[k] > maxSlack {
				break
			}
			if minW[j] > maxSlack || j == i || s.st.X.Get(j) || !s.st.Fits(j) {
				continue
			}
			maxSlack = s.st.AddMax(j)
			added = append(added, j)
		}
		if s.st.Value > before {
			if n < len(packed)-1 {
				keptMidway++
			}
			continue
		}
		for _, j := range added {
			s.st.Drop(j)
		}
		s.st.Add(i)
	}
	return keptMidway
}

// sameState fails the test unless the two searchers hold the same assignment,
// value and slacks, bit for bit.
func sameState(t *testing.T, ctx string, got, want *Searcher) {
	t.Helper()
	if !got.st.X.Equal(want.st.X) {
		t.Fatalf("%s: packed %v, want %v", ctx, got.st.X, want.st.X)
	}
	if math.Float64bits(got.st.Value) != math.Float64bits(want.st.Value) {
		t.Fatalf("%s: value %v, want %v", ctx, got.st.Value, want.st.Value)
	}
	for i := range want.st.Slack {
		if math.Float64bits(got.st.Slack[i]) != math.Float64bits(want.st.Slack[i]) {
			t.Fatalf("%s: slack[%d] = %v, want %v", ctx, i, got.st.Slack[i], want.st.Slack[i])
		}
	}
}

// diffStart draws a start for the differential tests: a random feasible
// assignment with a quarter of its items unpacked, or, when maximal, the same
// assignment topped up by fill and then stripped of one to three free items,
// as a move's drop phase leaves it. It returns the start and the items the
// searcher dropped from a maximal start.
func diffStart(r *rng.Rand, s *Searcher, maximal bool) (*bitset.Set, []int) {
	x := mkp.RandomFeasible(s.ins, r).X
	for j := x.NextSet(0); j >= 0; j = x.NextSet(j + 1) {
		if r.Intn(4) == 0 {
			x.Clear(j)
		}
	}
	if !maximal {
		return x, nil
	}
	s.st.Load(x)
	if s.core != nil {
		s.applyCore()
	}
	s.fill()
	var dropped []int
	for d := 1 + r.Intn(3); d > 0; d-- {
		free := s.st.X.Indices(nil)
		if s.core != nil {
			free = slices.DeleteFunc(free, func(j int) bool { return !s.core.Free(j) })
		}
		if len(free) == 0 {
			break
		}
		j := free[r.Intn(len(free))]
		s.st.Drop(j)
		dropped = append(dropped, j)
	}
	return s.st.X.Clone(), dropped
}

// TestAddPhaseMatchesRescan runs the deferred-position add phase and the
// full-rescan reference from the same starts and tabu state, over all three
// tabu policies, several AddNoise and CandWidth settings, with and without a
// core, and demands the same assignment, value and slacks bit for bit, the
// same tabu and flip records, the same counters, and the same next RNG draw.
func TestAddPhaseMatchesRescan(t *testing.T) {
	r := rng.New(20241)
	multi := 0
	for trial := 0; trial < 400; trial++ {
		n := 2 + r.Intn(90)
		m := 1 + r.Intn(9)
		ins := swapDiffInstance(r, n, m)
		seed := r.Uint64()
		got, err := NewSearcher(ins, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewSearcher(ins, seed)
		for start := 0; start < 6; start++ {
			var c *Core
			if r.Intn(2) == 0 {
				c = randomSwapCore(t, r, ins, start)
			}
			policy := TabuPolicy(r.Intn(3))
			p := Params{
				Policy:    policy,
				AddNoise:  []float64{0, 0.05, 0.3}[r.Intn(3)],
				CandWidth: []int{0, 1, 3}[r.Intn(3)],
			}
			useREM := policy == PolicyREM
			tenure := int64(1 + r.Intn(20))
			moves := int64(50 + r.Intn(50))
			tabuAdd := make([]int64, n)
			for j := range tabuAdd {
				if r.Intn(3) == 0 {
					tabuAdd[j] = moves + 1 + int64(r.Intn(10))
				}
			}
			// REM marks an item tabu when one flip separates the current
			// solution from a visited one, so the running list flips items
			// of a small subset, a varying number per move.
			var flips [][]int
			if useREM {
				for k := 0; k < 8; k++ {
					f := make([]int, 1+r.Intn(3))
					for a := range f {
						f[a] = r.Intn(min(n, 6))
					}
					flips = append(flips, f)
				}
			}
			got.adoptCore(c)
			x, dropped := diffStart(r, got, r.Intn(2) == 0)
			bestValue := mkp.ValueOf(ins, x) + float64(r.Intn(4))*10*r.Float64()
			for _, s := range []*Searcher{got, want} {
				s.adoptCore(c)
				s.st.Load(x)
				if c != nil {
					s.applyCore()
				}
				s.moves = moves
				copy(s.tabuAdd, tabuAdd)
				for j := range s.tabuDrop {
					s.tabuDrop[j] = 0
				}
				s.flipBuf = s.flipBuf[:0]
				if useREM {
					s.rem = newREMState(n, 0)
					for _, f := range flips {
						s.rem.record(f)
					}
					s.rem.computeTabu()
					s.flipBuf = append(s.flipBuf, dropped...)
				}
			}
			ctx := fmt.Sprintf("trial %d start %d (n=%d m=%d core=%v policy=%v noise=%v width=%d)",
				trial, start, n, m, c != nil, policy, p.AddNoise, p.CandWidth)
			ins1, _, hits1, asp1 := got.addPhase(p, bestValue, tenure, useREM)
			ins2, hits2, asp2, passes := addPhaseRescan(want, p, bestValue, tenure, useREM)
			if passes > 2 {
				multi++
			}
			sameState(t, ctx, got, want)
			if ins1 != ins2 || hits1 != hits2 || asp1 != asp2 {
				t.Fatalf("%s: inserted/tabu hits/aspirations %d/%d/%d, want %d/%d/%d",
					ctx, ins1, hits1, asp1, ins2, hits2, asp2)
			}
			if !slices.Equal(got.tabuDrop, want.tabuDrop) {
				t.Fatalf("%s: tabuDrop %v, want %v", ctx, got.tabuDrop, want.tabuDrop)
			}
			if !slices.Equal(got.flipBuf, want.flipBuf) {
				t.Fatalf("%s: flipBuf %v, want %v", ctx, got.flipBuf, want.flipBuf)
			}
			if a, b := got.r.Uint64(), want.r.Uint64(); a != b {
				t.Fatalf("%s: next RNG draw %#x, want %#x", ctx, a, b)
			}
		}
	}
	if multi < 60 {
		t.Fatalf("only %d of 2400 phases took more than two passes; the later passes are not exercised", multi)
	}
}

// TestRefillSweepMatchesFullScan runs the screened refill sweep and the
// full-scan reference from the same starts, with and without a core, and
// demands identical assignments, values and slacks, bit for bit.
func TestRefillSweepMatchesFullScan(t *testing.T) {
	r := rng.New(20242)
	rebuilt := 0
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
			got.adoptCore(c)
			x, _ := diffStart(r, got, r.Intn(2) == 0)
			for _, s := range []*Searcher{got, want} {
				s.adoptCore(c)
				s.st.Load(x)
				if c != nil {
					s.applyCore()
				}
			}
			got.refillSweep()
			rebuilt += refillSweepFullScan(want)
			sameState(t, fmt.Sprintf("trial %d start %d (n=%d m=%d core=%v)", trial, start, n, m, c != nil), got, want)
		}
	}
	if rebuilt < 1000 {
		t.Fatalf("only %d exchanges were kept before a sweep's last drop; the rebuilt list is not exercised", rebuilt)
	}
}
