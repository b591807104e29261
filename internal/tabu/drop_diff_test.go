package tabu

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/mkp"
	"repro/internal/rng"
)

// pickDropScan is the retained reference for pickDrop: it scores every
// packed item and keeps the first index of each strict maximum.
func pickDropScan(s *Searcher, i int, useREM bool, noise float64) int {
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

// dropDiffInstance draws an n×m instance for the drop tests. A tie-heavy one
// has integer weights 0–3 and profits 1–3, so many items share a score and
// many scores are zero; the other has spread-out weights, about one in eight
// of them zero.
func dropDiffInstance(r *rng.Rand, n, m int, ties bool) *mkp.Instance {
	ins := &mkp.Instance{
		Name:     "dropdiff",
		N:        n,
		M:        m,
		Profit:   make([]float64, n),
		Weight:   make([][]float64, m),
		Capacity: make([]float64, m),
	}
	for j := range ins.Profit {
		if ties {
			ins.Profit[j] = float64(1 + r.Intn(3))
		} else {
			ins.Profit[j] = 1 + 99*r.Float64()
		}
	}
	for i := range ins.Weight {
		row := make([]float64, n)
		total := 0.0
		for j := range row {
			switch {
			case ties:
				row[j] = float64(r.Intn(4))
			case r.Intn(8) != 0:
				row[j] = 0.5 + 30*r.Float64()
			}
			total += row[j]
		}
		ins.Weight[i] = row
		ins.Capacity[i] = max(1, total/2)
	}
	return ins
}

// dropDiffREM gives s a REM running list of a few random moves and a few
// items flipped within the current move, so the REM predicate blocks some
// items.
func dropDiffREM(r *rng.Rand, s *Searcher) {
	n := s.ins.N
	s.rem = newREMState(n, 0)
	var flips []int
	for mv := 0; mv < 1+r.Intn(8); mv++ {
		flips = flips[:0]
		for f := 0; f < 1+r.Intn(3); f++ {
			flips = append(flips, r.Intn(n))
		}
		s.rem.record(flips)
	}
	s.rem.computeTabu()
	s.flipBuf = s.flipBuf[:0]
	for f := r.Intn(3); f > 0; f-- {
		s.flipBuf = append(s.flipBuf, r.Intn(n))
	}
}

// TestPickDropMatchesScan makes 120,000 picks with the indexed walk and the
// scan from the same searcher state and demands the same item and the same
// RNG state afterwards. Between picks the assignment is redrawn or a few of
// its items flip, the tabu marks are redrawn, and cores, noise levels and
// the REM policy vary, so every row's index is brought up to date across
// assignments it did not see change.
func TestPickDropMatchesScan(t *testing.T) {
	r := rng.New(20250)
	noises := []float64{0, 0.1, 0.5}
	blockedShares := []int{0, 2, 8, 10} // tenths of the items made drop-tabu
	picks, fallbacks, runnersUp := 0, 0, 0
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 250, 500} {
		for m := 1; m <= 6; m++ {
			for _, ties := range []bool{true, false} {
				ins := dropDiffInstance(r, n, m, ties)
				s, err := NewSearcher(ins, uint64(n*m))
				if err != nil {
					t.Fatal(err)
				}
				x := mkp.RandomFeasible(ins, r).X
				share, useREM := 0, false
				for pick := 0; pick < 1000; pick++ {
					if pick%100 == 0 {
						var c *Core
						if r.Intn(3) == 0 {
							c = randomSwapCore(t, r, ins, pick)
						}
						s.adoptCore(c)
						share = blockedShares[r.Intn(len(blockedShares))]
						useREM = r.Intn(4) == 0
					}
					if r.Intn(8) == 0 {
						density := 1 + r.Intn(9)
						for j := 0; j < n; j++ {
							x.SetTo(j, r.Intn(10) < density)
						}
						s.st.Load(x)
					} else {
						for f := r.Intn(4); f > 0; f-- {
							if j := r.Intn(n); s.st.X.Get(j) {
								s.st.Drop(j)
							} else {
								s.st.Add(j)
							}
						}
					}
					s.moves += int64(r.Intn(3))
					for j := range s.tabuDrop {
						s.tabuDrop[j] = 0
						if r.Intn(10) < share {
							s.tabuDrop[j] = s.moves + 1
						}
					}
					if useREM {
						dropDiffREM(r, s)
					}
					i := r.Intn(m)
					noise := noises[r.Intn(len(noises))]

					saved := *s.r
					got := s.pickDrop(i, useREM, noise)
					gotR := *s.r
					*s.r = saved
					want := pickDropScan(s, i, useREM, noise)
					if got != want || gotR != *s.r {
						t.Fatalf("n=%d m=%d ties=%v pick %d (row %d, noise %v, REM %v, core %v): walk picked %d, scan %d (RNG moved alike: %v)",
							n, m, ties, pick, i, noise, useREM, s.core != nil, got, want, gotR == *s.r)
					}
					picks++
					if gotR != saved {
						runnersUp++
					}
					if want >= 0 && s.tabuDrop[want] > s.moves {
						fallbacks++
					}
				}
			}
		}
	}
	t.Logf("%d picks, %d fallbacks, %d runner-up draws", picks, fallbacks, runnersUp)
	if picks < 100_000 || fallbacks < 1000 || runnersUp < 1000 {
		t.Fatalf("%d picks, %d fallbacks, %d runner-up draws: the test is not exercising the walk", picks, fallbacks, runnersUp)
	}
}

// TestDropOrderMatchesStableSort checks each row's drop order against a
// stable sort of the items by decreasing a_ij/c_j, and the positions against
// the order, on tie-heavy, zero-heavy (−0 included), spread-out and extreme
// instances; the extreme ones have scores that overflow to +Inf and
// subnormal ones.
func TestDropOrderMatchesStableSort(t *testing.T) {
	r := rng.New(4242)
	for trial := 0; trial < 240; trial++ {
		n := 1 + r.Intn(300)
		m := 1 + r.Intn(5)
		ins := dropDiffInstance(r, n, m, trial%4 == 0)
		for _, row := range ins.Weight {
			for j := range row {
				switch trial % 4 {
				case 1:
					if r.Intn(2) == 0 {
						row[j] = 0
					} else if r.Intn(4) == 0 {
						row[j] = -row[j] * 0
					}
				case 3:
					row[j] = []float64{0, 1e300, 1e-300, 5e-324, 3}[r.Intn(5)]
					ins.Profit[j] = []float64{1e-10, 1, 1e300}[r.Intn(3)]
				}
			}
		}
		if err := ins.Validate(); err != nil {
			t.Fatal(err)
		}
		for i, row := range ins.Weight {
			want := make([]int32, n)
			for j := range want {
				want[j] = int32(j)
			}
			slices.SortStableFunc(want, func(a, b int32) int {
				return cmp.Compare(row[b]/ins.Profit[b], row[a]/ins.Profit[a])
			})
			order, pos := ins.DropOrder(i)
			if !slices.Equal(order, want) {
				t.Fatalf("trial %d (n=%d m=%d) row %d: order %v, want %v", trial, n, m, i, order, want)
			}
			for k, j := range order {
				if pos[j] != int32(k) {
					t.Fatalf("trial %d row %d: pos[%d] = %d, want %d", trial, i, j, pos[j], k)
				}
			}
		}
	}
}

// dropShapes are the workloads' instance shapes: farm's, guided's and
// wire's generator, size and tightness.
var dropShapes = []struct {
	name      string
	n, m      int
	tightness float64
}{
	{"farm_30x500", 500, 30, 0.25},
	{"guided_5x500", 500, 5, 0.75},
	{"wire_10x250", 250, 10, 0.25},
}

// BenchmarkDropOrder times the cold build of every row's drop order on a
// fresh instance.
func BenchmarkDropOrder(b *testing.B) {
	for _, sh := range dropShapes {
		ins := gen.GK(sh.name, sh.n, sh.m, sh.tightness, 1)
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				fresh := &mkp.Instance{N: ins.N, M: ins.M, Profit: ins.Profit, Weight: ins.Weight, Capacity: ins.Capacity}
				fresh.DropOrder(0)
			}
		})
	}
}

// BenchmarkDropStep and its twin BenchmarkDropStepScan time one Drop step on
// GK instances of 500 items across tightness and constraint count: a pick on
// the most saturated constraint, the drop, and the re-add of the item
// dropped dropStepTenure steps before, which then stays drop-tabu for as
// long, as an item added by a move would. The assignment keeps its size and
// changes by two items a step, so the index has bits to bring up to date.
func BenchmarkDropStep(b *testing.B) {
	benchDropStep(b, func(s *Searcher, i int) int { return s.pickDrop(i, false, 0.1) })
}

func BenchmarkDropStepScan(b *testing.B) {
	benchDropStep(b, func(s *Searcher, i int) int { return pickDropScan(s, i, false, 0.1) })
}

const dropStepTenure = 7

func benchDropStep(b *testing.B, pick func(s *Searcher, i int) int) {
	for _, m := range []int{5, 30} {
		for _, tightness := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			b.Run(fmt.Sprintf("m=%d/t=%.2f", m, tightness), func(b *testing.B) {
				ins := gen.GK("dropstep", 500, m, tightness, 1)
				s, err := NewSearcher(ins, 1)
				if err != nil {
					b.Fatal(err)
				}
				s.st.Load(mkp.Greedy(ins).X)
				ins.DropOrder(0) // built once per instance, timed by BenchmarkDropOrder
				var ring [dropStepTenure]int
				for k := range ring {
					ring[k] = -1
				}
				b.ResetTimer()
				for k := 0; k < b.N; k++ {
					j := pick(s, s.st.MostSaturated())
					if j < 0 {
						b.Fatal("nothing to drop")
					}
					s.st.Drop(j)
					slot := &ring[k%dropStepTenure]
					if *slot >= 0 {
						s.st.Add(*slot)
						s.tabuDrop[*slot] = s.moves + dropStepTenure
					}
					*slot = j
					s.moves++
				}
			})
		}
	}
}
