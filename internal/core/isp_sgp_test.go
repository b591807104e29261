package core

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/mkp"
	"repro/internal/rng"
	"repro/internal/tabu"
)

// testInstance returns a small valid instance for unit tests.
func testInstance(n, m int, seed uint64) *mkp.Instance {
	r := rng.New(seed)
	ins := &mkp.Instance{
		Name:     "unit",
		N:        n,
		M:        m,
		Profit:   make([]float64, n),
		Weight:   make([][]float64, m),
		Capacity: make([]float64, m),
	}
	for j := 0; j < n; j++ {
		ins.Profit[j] = float64(r.IntRange(1, 100))
	}
	for i := 0; i < m; i++ {
		ins.Weight[i] = make([]float64, n)
		total := 0.0
		for j := 0; j < n; j++ {
			ins.Weight[i][j] = float64(r.IntRange(1, 50))
			total += ins.Weight[i][j]
		}
		ins.Capacity[i] = 0.35 * total
		if ins.Capacity[i] < 1 {
			ins.Capacity[i] = 1
		}
	}
	return ins
}

// bareMaster builds an engine with P slots and no slave goroutines (the
// transport is never touched), for exercising isp/sgp in isolation.
func bareMaster(ins *mkp.Instance, p int, opts Options) *master {
	opts = opts.withDefaults(ins.N)
	opts.P = p
	m := newEngine(ins, CTS2, opts, nil, rng.New(opts.Seed))
	for i := 0; i < p; i++ {
		m.strategies[i] = tabu.Strategy{LtLength: 10, NbDrop: 2, NbLocal: 20}
		m.scores[i] = opts.InitialScore
	}
	m.best = mkp.Greedy(ins)
	return m
}

// Thin test-only delegates: the tuning and budget logic moved into the
// engine's components, but the unit tests read most naturally against the
// master as a whole.
func (m *master) adaptAlpha(improved bool) { m.tune.adaptAlpha(improved) }

func (m *master) isp(results []*tabu.Result) { m.tune.isp(results) }

func (m *master) sgp(results []*tabu.Result) { m.tune.sgp(results) }

func (m *master) budgetFor(s tabu.Strategy) int64 { return m.disp.budgetFor(s) }

func TestAdaptAlphaBounds(t *testing.T) {
	ins := testInstance(20, 2, 40)
	m := bareMaster(ins, 1, Options{Alpha: 0.95, Seed: 1})
	for i := 0; i < 50; i++ {
		m.adaptAlpha(true)
	}
	if m.tune.alpha != 0.995 {
		t.Fatalf("alpha after improvements = %v, want cap 0.995", m.tune.alpha)
	}
	for i := 0; i < 50; i++ {
		m.adaptAlpha(false)
	}
	if m.tune.alpha != 0.85 {
		t.Fatalf("alpha after stagnation = %v, want floor 0.85", m.tune.alpha)
	}
	m.adaptAlpha(true)
	if m.tune.alpha <= 0.85 {
		t.Fatal("alpha did not recover on improvement")
	}
}

func TestAdaptiveAlphaEndToEnd(t *testing.T) {
	ins := testInstance(40, 4, 41)
	fixed, err := Solve(ins, CTS2, Options{P: 3, Seed: 5, Rounds: 8, RoundMoves: 200})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Stats.FinalAlpha != 0.99 {
		t.Fatalf("fixed run moved alpha: %v", fixed.Stats.FinalAlpha)
	}
	adaptive, err := Solve(ins, CTS2, Options{P: 3, Seed: 5, Rounds: 8, RoundMoves: 200, AdaptiveAlpha: true})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Stats.FinalAlpha == 0.99 {
		t.Fatal("adaptive run never moved alpha in 8 rounds")
	}
	if adaptive.Stats.FinalAlpha < 0.85 || adaptive.Stats.FinalAlpha > 0.995 {
		t.Fatalf("adaptive alpha escaped bounds: %v", adaptive.Stats.FinalAlpha)
	}
}

func solOf(ins *mkp.Instance, idx []int) mkp.Solution {
	x := bitset.FromIndices(ins.N, idx)
	return mkp.Solution{X: x, Value: mkp.ValueOf(ins, x)}
}

func TestISPKeepsStrongBest(t *testing.T) {
	ins := testInstance(20, 3, 1)
	m := bareMaster(ins, 1, Options{Alpha: 0.5, Seed: 1})
	strong := m.best // at least as good as alpha*best
	m.isp([]*tabu.Result{{Best: strong, Improved: true}})
	if !m.starts[0].X.Equal(strong.X) {
		t.Fatal("ISP replaced a strong start")
	}
	if m.stats.Replacements != 0 {
		t.Fatal("ISP counted a replacement for a strong start")
	}
}

func TestISPReplacesWeakWithGlobalBest(t *testing.T) {
	ins := testInstance(20, 3, 2)
	m := bareMaster(ins, 1, Options{Alpha: 0.95, Seed: 1})
	weak := solOf(ins, []int{0}) // single item: far below the greedy best
	if weak.Value >= 0.95*m.best.Value {
		t.Skip("instance too easy for the weak-start premise")
	}
	m.isp([]*tabu.Result{{Best: weak}})
	if !m.starts[0].X.Equal(m.best.X) {
		t.Fatal("ISP did not substitute the global best for a weak start")
	}
	if m.stats.Replacements != 1 {
		t.Fatalf("Replacements = %d, want 1", m.stats.Replacements)
	}
}

func TestISPRandomRestartAfterStagnation(t *testing.T) {
	ins := testInstance(20, 3, 3)
	m := bareMaster(ins, 1, Options{Alpha: 0.5, StagnationLimit: 2, Seed: 1})
	// A stagnant NON-elite slave (below the global best, above alpha share).
	same := solOf(ins, []int{0, 1, 2})
	if same.Value >= m.best.Value || same.Value < 0.5*m.best.Value {
		t.Skip("premise broken: need a mid-quality stagnant solution")
	}
	restarted := false
	for round := 0; round < 6; round++ {
		m.isp([]*tabu.Result{{Best: same}})
		if m.stats.RandomRestarts > 0 {
			restarted = true
			break
		}
	}
	if !restarted {
		t.Fatal("ISP never injected a random restart for a stagnant slave")
	}
}

func TestISPEliteSlaveNeverRestarted(t *testing.T) {
	ins := testInstance(20, 3, 3)
	m := bareMaster(ins, 1, Options{Alpha: 0.5, StagnationLimit: 2, Seed: 1})
	elite := m.best // holds the global best: protected
	for round := 0; round < 8; round++ {
		m.isp([]*tabu.Result{{Best: elite}})
	}
	if m.stats.RandomRestarts != 0 {
		t.Fatalf("elite slave was restarted %d times", m.stats.RandomRestarts)
	}
}

func TestISPStagnationCounterResetsOnChange(t *testing.T) {
	ins := testInstance(20, 3, 4)
	m := bareMaster(ins, 1, Options{Alpha: 0.01, StagnationLimit: 3, Seed: 1})
	a := solOf(ins, []int{0, 1})
	b := solOf(ins, []int{2, 3})
	// Alternate so the start always changes: no restart may ever fire.
	for round := 0; round < 10; round++ {
		if round%2 == 0 {
			m.isp([]*tabu.Result{{Best: a}})
		} else {
			m.isp([]*tabu.Result{{Best: b}})
		}
	}
	if m.stats.RandomRestarts != 0 {
		t.Fatalf("restarts fired despite changing starts: %d", m.stats.RandomRestarts)
	}
}

func TestSGPScoreLifecycle(t *testing.T) {
	ins := testInstance(40, 3, 5)
	m := bareMaster(ins, 1, Options{InitialScore: 2, Seed: 1})
	pool := []mkp.Solution{solOf(ins, []int{0, 1}), solOf(ins, []int{0, 2})} // diameter 2 <= n/10
	old := m.strategies[0]

	// One improvement: score 3. Then three failures: 2,1,0 -> reset.
	m.sgp([]*tabu.Result{{Improved: true, Pool: pool}})
	if m.stats.StrategyResets != 0 {
		t.Fatal("reset fired while score positive")
	}
	for round := 0; round < 3; round++ {
		m.sgp([]*tabu.Result{{Improved: false, Pool: pool}})
	}
	if m.stats.StrategyResets != 1 {
		t.Fatalf("StrategyResets = %d, want 1", m.stats.StrategyResets)
	}
	if m.scores[0] != 2 {
		t.Fatalf("score after reset = %d, want InitialScore 2", m.scores[0])
	}
	neu := m.strategies[0]
	if neu == old {
		t.Fatal("reset did not change the strategy")
	}
	// Clustered pool => diversification: longer list, deeper drops, shorter local loop.
	if neu.LtLength <= old.LtLength || neu.NbDrop <= old.NbDrop || neu.NbLocal >= old.NbLocal {
		t.Fatalf("clustered pool should diversify: %+v -> %+v", old, neu)
	}
}

func TestSGPScatteredPoolIntensifies(t *testing.T) {
	ins := testInstance(40, 3, 6)
	m := bareMaster(ins, 1, Options{InitialScore: 1, Seed: 1})
	// Two solutions with Hamming distance >= n/4 = 10.
	far1 := solOf(ins, []int{0, 1, 2, 3, 4, 5})
	far2 := solOf(ins, []int{20, 21, 22, 23, 24, 25})
	old := m.strategies[0]
	m.sgp([]*tabu.Result{{Improved: false, Pool: []mkp.Solution{far1, far2}}})
	neu := m.strategies[0]
	if neu.LtLength >= old.LtLength || neu.NbLocal <= old.NbLocal {
		t.Fatalf("scattered pool should intensify: %+v -> %+v", old, neu)
	}
	if neu.NbDrop != old.NbDrop-1 {
		t.Fatalf("NbDrop should shrink: %+v -> %+v", old, neu)
	}
}

func TestSGPStrategiesStayValid(t *testing.T) {
	ins := testInstance(30, 3, 7)
	m := bareMaster(ins, 1, Options{InitialScore: 1, Seed: 1})
	pools := [][]mkp.Solution{
		{solOf(ins, []int{0}), solOf(ins, []int{1})},                      // clustered
		{solOf(ins, []int{0, 1, 2, 3}), solOf(ins, []int{9, 10, 11, 12})}, // scattered
		{solOf(ins, []int{0, 1, 2}), solOf(ins, []int{3, 4})},             // middling
	}
	for round := 0; round < 60; round++ {
		m.sgp([]*tabu.Result{{Improved: false, Pool: pools[round%len(pools)]}})
		if err := m.strategies[0].Validate(); err != nil {
			t.Fatalf("round %d left invalid strategy: %v", round, err)
		}
	}
	if m.stats.StrategyResets == 0 {
		t.Fatal("no resets in 60 failing rounds")
	}
}

func TestDiversifyIntensifyBounds(t *testing.T) {
	st := tabu.Strategy{LtLength: 3, NbDrop: 6, NbLocal: 6}
	for i := 0; i < 30; i++ {
		st = diversifyStrategy(st, 100)
		if err := st.Validate(); err != nil {
			t.Fatalf("diversify produced invalid strategy: %v", err)
		}
	}
	if st.LtLength > 50 || st.NbDrop > 6 || st.NbLocal < 5 {
		t.Fatalf("diversify escaped bounds: %+v", st)
	}
	for i := 0; i < 30; i++ {
		st = intensifyStrategy(st)
		if err := st.Validate(); err != nil {
			t.Fatalf("intensify produced invalid strategy: %v", err)
		}
	}
	if st.LtLength < 2 || st.NbDrop != 1 || st.NbLocal > 200 {
		t.Fatalf("intensify escaped bounds: %+v", st)
	}
}

// TestPoolDiameter checks that regenerate reports the pool's Hamming
// diameter and picks its branch from it; at n=16 a diameter of at most 1 is
// clustered and one of at least 4 is scattered.
func TestPoolDiameter(t *testing.T) {
	const n = 16
	ins := testInstance(n, 2, 8)
	st := tabu.Strategy{LtLength: 5, NbDrop: 2, NbLocal: 10}
	for _, tc := range []struct {
		pool [][]int
		want int
	}{
		{nil, 0},
		{[][]int{{0, 1}, {0, 1, 2}}, 1},
		{[][]int{{0, 1}, {0, 2}}, 2},
		{[][]int{{0, 1}, {0, 1, 2}, {4, 5, 6}}, 6},
		{[][]int{{0, 1}, {0, 2}, {5, 6, 7}}, 5},
	} {
		var p []mkp.Solution
		for _, items := range tc.pool {
			p = append(p, solOf(ins, items))
		}
		got, d := regenerate(st, p, n, rng.New(1))
		if d != tc.want {
			t.Fatalf("diameter of %v = %d, want %d", tc.pool, d, tc.want)
		}
		want := tabu.RandomStrategy(n, rng.New(1))
		switch {
		case d <= 1:
			want = diversifyStrategy(st, n)
		case d >= 4:
			want = intensifyStrategy(st)
		}
		if got != want {
			t.Fatalf("pool %v (diameter %d) regenerated %+v, want %+v", tc.pool, d, got, want)
		}
	}
}

func TestBudgetForLoadBalancing(t *testing.T) {
	ins := testInstance(20, 2, 9)
	m := bareMaster(ins, 1, Options{RoundMoves: 1200, RefDrop: 2, Seed: 1})
	if b := m.budgetFor(tabu.Strategy{LtLength: 5, NbDrop: 2, NbLocal: 10}); b != 1200 {
		t.Fatalf("budget at RefDrop = %d, want 1200", b)
	}
	if b := m.budgetFor(tabu.Strategy{LtLength: 5, NbDrop: 4, NbLocal: 10}); b != 600 {
		t.Fatalf("budget at NbDrop 4 = %d, want 600", b)
	}
	if b := m.budgetFor(tabu.Strategy{LtLength: 5, NbDrop: 1, NbLocal: 10}); b != 2400 {
		t.Fatalf("budget at NbDrop 1 = %d, want 2400", b)
	}
	m.opts.EqualWork = true
	m.opts.P = 4
	if b := m.budgetFor(tabu.Strategy{LtLength: 5, NbDrop: 2, NbLocal: 10}); b != 300 {
		t.Fatalf("equal-work budget = %d, want 300", b)
	}
}
