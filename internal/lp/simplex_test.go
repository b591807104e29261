package lp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleConstraintFractional(t *testing.T) {
	// max 10x0 + 6x1 + 4x2, 5x0 + 4x1 + 3x2 <= 10, 0<=x<=1.
	// Ratios 2, 1.5, 4/3: take x0=1 (cap 5 left), x1=1 (cap 1 left), x2=1/3.
	// Value = 10 + 6 + 4/3.
	res, err := Solve(
		[]float64{10, 6, 4},
		[][]float64{{5, 4, 3}},
		[]float64{10},
	)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 + 6 + 4.0/3.0
	if !approx(res.Value, want, 1e-9) {
		t.Fatalf("Value = %v, want %v", res.Value, want)
	}
	if !approx(res.X[0], 1, 1e-9) || !approx(res.X[1], 1, 1e-9) || !approx(res.X[2], 1.0/3.0, 1e-9) {
		t.Fatalf("X = %v", res.X)
	}
}

func TestAllItemsFit(t *testing.T) {
	res, err := Solve(
		[]float64{3, 4},
		[][]float64{{1, 1}, {2, 1}},
		[]float64{10, 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Value, 7, 1e-9) {
		t.Fatalf("Value = %v, want 7", res.Value)
	}
	for i, d := range res.Duals {
		if !approx(d, 0, 1e-9) {
			t.Fatalf("loose constraint %d has dual %v", i, d)
		}
	}
}

func TestTwoConstraints(t *testing.T) {
	// max x0 + x1,  x0 <= 0.5, x1 <= 0.25 (via rows), bounds [0,1].
	res, err := Solve(
		[]float64{1, 1},
		[][]float64{{1, 0}, {0, 1}},
		[]float64{0.5, 0.25},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Value, 0.75, 1e-9) {
		t.Fatalf("Value = %v, want 0.75", res.Value)
	}
}

func TestDualsNonnegativeAndWeakDuality(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 40; trial++ {
		n, m := r.IntRange(1, 30), r.IntRange(1, 8)
		c, a, b := randomLP(r, n, m)
		res, err := Solve(c, a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range res.Duals {
			if d < 0 {
				t.Fatalf("dual %d = %v < 0", i, d)
			}
		}
		// Weak duality for the surrogate: value <= y·b + Σ_j max(0, c_j − y·A_j).
		ub := 0.0
		for i := 0; i < m; i++ {
			ub += res.Duals[i] * b[i]
		}
		for j := 0; j < n; j++ {
			red := c[j]
			for i := 0; i < m; i++ {
				red -= res.Duals[i] * a[i][j]
			}
			if red > 0 {
				ub += red // x_j has upper bound 1
			}
		}
		if res.Value > ub+1e-6 {
			t.Fatalf("duality violated: value %v > bound %v", res.Value, ub)
		}
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := Solve(nil, nil, nil); err == nil {
		t.Fatal("empty problem accepted")
	}
	if _, err := Solve([]float64{1}, [][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("ragged row accepted")
	}
	if _, err := Solve([]float64{1}, [][]float64{{1}}, []float64{-1}); err == nil {
		t.Fatal("negative rhs accepted")
	}
}

// randomLP builds a random MKP-shaped relaxation.
func randomLP(r *rng.Rand, n, m int) (c []float64, a [][]float64, b []float64) {
	c = make([]float64, n)
	for j := range c {
		c[j] = float64(r.IntRange(1, 100))
	}
	a = make([][]float64, m)
	b = make([]float64, m)
	for i := range a {
		a[i] = make([]float64, n)
		total := 0.0
		for j := range a[i] {
			a[i][j] = float64(r.IntRange(1, 50))
			total += a[i][j]
		}
		b[i] = 0.25 * total
		if b[i] < 1 {
			b[i] = 1
		}
	}
	return c, a, b
}

// bruteLPUpper enumerates all 0-1 assignments for small n; the LP value must
// dominate the best feasible integral value.
func bruteBestIntegral(c []float64, a [][]float64, b []float64) float64 {
	n, m := len(c), len(b)
	best := 0.0
	for mask := 0; mask < 1<<uint(n); mask++ {
		ok := true
		for i := 0; i < m && ok; i++ {
			load := 0.0
			for j := 0; j < n; j++ {
				if mask&(1<<uint(j)) != 0 {
					load += a[i][j]
				}
			}
			if load > b[i] {
				ok = false
			}
		}
		if !ok {
			continue
		}
		v := 0.0
		for j := 0; j < n; j++ {
			if mask&(1<<uint(j)) != 0 {
				v += c[j]
			}
		}
		if v > best {
			best = v
		}
	}
	return best
}

func TestQuickLPDominatesIntegral(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n, m := r.IntRange(1, 12), r.IntRange(1, 4)
		c, a, b := randomLP(r, n, m)
		res, err := Solve(c, a, b)
		if err != nil {
			return false
		}
		return res.Value >= bruteBestIntegral(c, a, b)-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPrimalFeasible(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n, m := r.IntRange(1, 40), r.IntRange(1, 8)
		c, a, b := randomLP(r, n, m)
		res, err := Solve(c, a, b)
		if err != nil {
			return false
		}
		for j, x := range res.X {
			if x < -1e-7 || x > 1+1e-7 {
				return false
			}
			_ = j
		}
		for i := 0; i < m; i++ {
			load := 0.0
			for j := 0; j < n; j++ {
				load += a[i][j] * res.X[j]
			}
			if load > b[i]+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolve100x10(b *testing.B) {
	c, a, bb := randomLP(rng.New(1), 100, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(c, a, bb); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSolveAllocsIndependentOfIterations pins the Gauss–Jordan workspace to
// one allocation per Solve: at a fixed row count, two LPs whose simplex runs
// differ several-fold in iterations allocate the same number of objects.
func TestSolveAllocsIndependentOfIterations(t *testing.T) {
	const m = 5
	short := randomLPWithIters(t, 20, m)
	long := randomLPWithIters(t, 300, m)
	if long.iters < 4*short.iters {
		t.Fatalf("iterations %d and %d are not several-fold apart", short.iters, long.iters)
	}
	a := testing.AllocsPerRun(5, func() { _, _ = Solve(short.c, short.a, short.b) })
	b := testing.AllocsPerRun(5, func() { _, _ = Solve(long.c, long.a, long.b) })
	if a != b {
		t.Fatalf("allocs per Solve: %v at %d iterations, %v at %d", a, short.iters, b, long.iters)
	}
}

type sizedLP struct {
	c, b  []float64
	a     [][]float64
	iters int
}

func randomLPWithIters(t *testing.T, n, m int) sizedLP {
	t.Helper()
	c, a, b := randomLP(rng.New(uint64(n)), n, m)
	res, err := Solve(c, a, b)
	if err != nil {
		t.Fatal(err)
	}
	return sizedLP{c: c, b: b, a: a, iters: res.Iterations}
}
