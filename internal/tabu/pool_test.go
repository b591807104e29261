package tabu

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/mkp"
	"repro/internal/rng"
)

func sol(n int, idx []int, v float64) mkp.Solution {
	return mkp.Solution{X: bitset.FromIndices(n, idx), Value: v}
}

func TestPoolKeepsBest(t *testing.T) {
	p := NewPool(2)
	p.Offer(sol(8, []int{0}, 10))
	p.Offer(sol(8, []int{1}, 30))
	p.Offer(sol(8, []int{2}, 20))
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	best, ok := p.Best()
	if !ok || best.Value != 30 {
		t.Fatalf("Best = %v, %v", best.Value, ok)
	}
	sols := p.Solutions()
	if sols[0].Value != 30 || sols[1].Value != 20 {
		t.Fatalf("Solutions = %v, %v", sols[0].Value, sols[1].Value)
	}
}

func TestPoolRejectsDuplicates(t *testing.T) {
	p := NewPool(4)
	if !p.Offer(sol(8, []int{0, 1}, 10)) {
		t.Fatal("first offer rejected")
	}
	if p.Offer(sol(8, []int{0, 1}, 10)) {
		t.Fatal("duplicate accepted")
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1", p.Len())
	}
}

func TestPoolRejectsWorseWhenFull(t *testing.T) {
	p := NewPool(1)
	p.Offer(sol(8, []int{0}, 10))
	if p.Offer(sol(8, []int{1}, 5)) {
		t.Fatal("worse solution accepted into full pool")
	}
	if !p.Offer(sol(8, []int{2}, 15)) {
		t.Fatal("better solution rejected")
	}
	best, _ := p.Best()
	if best.Value != 15 {
		t.Fatalf("Best = %v, want 15", best.Value)
	}
}

func TestPoolEvictionFreesKey(t *testing.T) {
	p := NewPool(1)
	p.Offer(sol(8, []int{0}, 10))
	p.Offer(sol(8, []int{1}, 20)) // evicts {0}
	if !p.Offer(sol(8, []int{0}, 30)) {
		t.Fatal("previously evicted assignment could not re-enter")
	}
}

func TestPoolSnapshotsAreIndependent(t *testing.T) {
	p := NewPool(2)
	live := sol(8, []int{0}, 10)
	p.Offer(live)
	live.X.Set(5) // mutate the caller's copy
	stored, _ := p.Best()
	if stored.X.Get(5) {
		t.Fatal("pool stored a live reference instead of a clone")
	}
}

func TestPoolEmptyBest(t *testing.T) {
	p := NewPool(3)
	if _, ok := p.Best(); ok {
		t.Fatal("empty pool returned a best")
	}
}

func TestPoolReset(t *testing.T) {
	p := NewPool(3)
	p.Offer(sol(8, []int{0}, 1))
	p.Reset()
	if p.Len() != 0 {
		t.Fatal("Reset did not empty the pool")
	}
	if !p.Offer(sol(8, []int{0}, 1)) {
		t.Fatal("Reset did not clear the key set")
	}
}

func TestPoolDiameter(t *testing.T) {
	p := NewPool(3)
	p.Offer(sol(8, []int{0, 1}, 10))
	p.Offer(sol(8, []int{0, 1, 2}, 9)) // distance 1 from first
	two := p.Solutions()               // empties the pool
	if d := Diameter(two); d != 1 {
		t.Fatalf("Diameter = %d, want 1", d)
	}
	for _, s := range two {
		p.Offer(s)
	}
	p.Offer(sol(8, []int{4, 5, 6}, 8)) // distance 5 and 6
	if d := Diameter(p.Solutions()); d != 6 {
		t.Fatalf("Diameter = %d, want 6", d)
	}
}

func TestPoolCapacityClamped(t *testing.T) {
	p := NewPool(0)
	p.Offer(sol(4, []int{0}, 1))
	p.Offer(sol(4, []int{1}, 2))
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1", p.Len())
	}
}

func TestQuickPoolSortedDistinctBounded(t *testing.T) {
	f := func(seed uint64, capRaw uint8) bool {
		r := rng.New(seed)
		capacity := int(capRaw)%6 + 1
		p := NewPool(capacity)
		for trial := 0; trial < 60; trial++ {
			idx := []int{}
			for j := 0; j < 10; j++ {
				if r.Bool(0.5) {
					idx = append(idx, j)
				}
			}
			p.Offer(sol(10, idx, float64(r.IntRange(1, 50))))
		}
		sols := p.Solutions()
		if len(sols) > capacity {
			return false
		}
		seen := map[string]bool{}
		for i, s := range sols {
			if i > 0 && sols[i-1].Value < s.Value {
				return false
			}
			k := s.X.String()
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// sortPool is the retained reference for Pool.Offer's ordering: append the
// new member, stably sort by decreasing value, evict the last beyond cap.
type sortPool struct {
	cap  int
	sols []mkp.Solution
}

func (p *sortPool) offer(s mkp.Solution) {
	if len(p.sols) == p.cap && s.Value <= p.sols[len(p.sols)-1].Value {
		return
	}
	for _, o := range p.sols {
		if o.X.Equal(s.X) {
			return
		}
	}
	p.sols = append(p.sols, s)
	sort.SliceStable(p.sols, func(a, b int) bool { return p.sols[a].Value > p.sols[b].Value })
	if len(p.sols) > p.cap {
		p.sols = p.sols[:p.cap]
	}
}

// TestPoolOrderMatchesStableSort offers random sequences drawn from a few
// values (so most offers tie with a member) and demands the pool hold the
// same members in the same order as the sort-based reference.
func TestPoolOrderMatchesStableSort(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 300; trial++ {
		capacity := 1 + r.Intn(8)
		got, want := NewPool(capacity), &sortPool{cap: capacity}
		for k := 0; k < 60; k++ {
			x := bitset.New(6)
			for j := 0; j < 6; j++ {
				if r.Intn(2) == 0 {
					x.Set(j)
				}
			}
			s := mkp.Solution{X: x, Value: float64(r.Intn(4))}
			got.Offer(s)
			want.offer(s)
			if got.Len() != len(want.sols) {
				t.Fatalf("trial %d offer %d: %d members, want %d", trial, k, got.Len(), len(want.sols))
			}
			for i, w := range want.sols {
				if g := got.sols[i]; g.Value != w.Value || !g.X.Equal(w.X) {
					t.Fatalf("trial %d offer %d: member %d is %v@%v, want %v@%v", trial, k, i, g.X, g.Value, w.X, w.Value)
				}
			}
		}
	}
}

// TestPoolFullOfferAllocatesNothing: once the pool is full, an accepted
// offer copies into the evicted member's storage instead of cloning.
func TestPoolFullOfferAllocatesNothing(t *testing.T) {
	const capacity, n, runs = 8, 64, 20
	p := NewPool(capacity)
	for k := 0; k < capacity; k++ {
		p.Offer(sol(n, []int{k}, float64(k)))
	}
	offers := make([]mkp.Solution, runs+1) // AllocsPerRun adds a warm-up run
	for k := range offers {
		offers[k] = sol(n, []int{k, k + 1, k + 2}, float64(capacity+k))
	}
	next, accepted := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		if p.Offer(offers[next]) {
			accepted++
		}
		next++
	})
	if accepted != len(offers) {
		t.Fatalf("%d of %d offers accepted", accepted, len(offers))
	}
	if allocs != 0 {
		t.Fatalf("an accepted offer into a full pool allocates %v objects", allocs)
	}
	best, _ := p.Best()
	if want := offers[len(offers)-1]; best.Value != want.Value || !best.X.Equal(want.X) {
		t.Fatalf("Best = %v@%v, want %v@%v", best.X, best.Value, want.X, want.Value)
	}
}

// TestPoolSolutionsHandsOverMembers: Solutions gives the caller the members
// and empties the pool, so later offers cannot write into what it returned.
func TestPoolSolutionsHandsOverMembers(t *testing.T) {
	p := NewPool(2)
	p.Offer(sol(8, []int{0}, 10))
	p.Offer(sol(8, []int{1}, 20))
	got := p.Solutions()
	if p.Len() != 0 {
		t.Fatalf("Len = %d after Solutions, want 0", p.Len())
	}
	for k := 2; k < 8; k++ {
		p.Offer(sol(8, []int{k}, float64(10*k)))
	}
	if len(got) != 2 || got[0].Value != 20 || !got[0].X.Get(1) || got[1].Value != 10 || !got[1].X.Get(0) ||
		got[0].X.Count() != 1 || got[1].X.Count() != 1 {
		t.Fatalf("handed-over members changed: %v@%v, %v@%v", got[0].X, got[0].Value, got[1].X, got[1].Value)
	}
}
