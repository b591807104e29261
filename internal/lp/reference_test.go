package lp

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
)

// solveReference is the simplex as it stood before the iteration loop began
// reusing work across bound flips: every iteration re-inverts the basis,
// recomputes the duals, re-prices every column through the column closure
// and rebuilds the right-hand side over every variable. It is kept verbatim
// (with its own copy of invertBasis) so TestSolveMatchesReference can demand
// bit-identical results from Solve.
func solveReference(c []float64, a [][]float64, b []float64) (*Result, error) {
	n := len(c)
	m := len(b)
	if n == 0 || m == 0 {
		return nil, fmt.Errorf("lp: empty problem n=%d m=%d", n, m)
	}
	for i, row := range a {
		if len(row) != n {
			return nil, fmt.Errorf("lp: row %d has %d entries, want %d", i, len(row), n)
		}
		if b[i] < 0 {
			return nil, fmt.Errorf("lp: b[%d]=%v < 0, x=0 start infeasible", i, b[i])
		}
	}

	nt := n + m // structural variables then slacks
	upper := make([]float64, nt)
	cost := make([]float64, nt)
	for j := 0; j < n; j++ {
		upper[j] = 1
		cost[j] = c[j]
	}
	for i := 0; i < m; i++ {
		upper[n+i] = math.Inf(1)
	}

	st := make([]varStatus, nt)
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		basis[i] = n + i
		st[n+i] = basic
	}

	// column returns entry (row i) of variable j's constraint column.
	column := func(j, i int) float64 {
		if j < n {
			return a[i][j]
		}
		if j-n == i {
			return 1
		}
		return 0
	}

	binv := make([][]float64, m)
	for i := range binv {
		binv[i] = make([]float64, m)
	}
	aug := make([][]float64, m) // invertBasis's [B | I] workspace
	augBuf := make([]float64, m*2*m)
	for i := range aug {
		aug[i] = augBuf[i*2*m : (i+1)*2*m]
	}
	xB := make([]float64, m)
	y := make([]float64, m)
	w := make([]float64, m)
	rhs := make([]float64, m)

	maxIter := 50*(nt) + 1000
	blandAfter := 10 * nt

	var iter int
	for iter = 0; iter < maxIter; iter++ {
		if err := invertBasisReference(binv, aug, basis, column, m); err != nil {
			return nil, err
		}
		// rhs = b − Σ_{nonbasic at upper} A_j u_j (lower bounds are 0).
		copy(rhs, b)
		for j := 0; j < nt; j++ {
			if st[j] == atUpper {
				u := upper[j]
				for i := 0; i < m; i++ {
					rhs[i] -= column(j, i) * u
				}
			}
		}
		for i := 0; i < m; i++ {
			s := 0.0
			for k := 0; k < m; k++ {
				s += binv[i][k] * rhs[k]
			}
			xB[i] = s
		}
		// y = c_B^T B^{-1}
		for k := 0; k < m; k++ {
			s := 0.0
			for i := 0; i < m; i++ {
				s += cost[basis[i]] * binv[i][k]
			}
			y[k] = s
		}

		// Pricing: find entering variable.
		useBland := iter >= blandAfter
		enter, enterDir := -1, 0.0
		bestScore := eps
		for j := 0; j < nt; j++ {
			if st[j] == basic {
				continue
			}
			d := cost[j]
			for i := 0; i < m; i++ {
				d -= y[i] * column(j, i)
			}
			var score float64
			var dir float64
			switch st[j] {
			case atLower:
				score, dir = d, 1 // increasing improves if d > 0
			case atUpper:
				score, dir = -d, -1 // decreasing improves if d < 0
			}
			if score > eps {
				if useBland {
					enter, enterDir = j, dir
					break
				}
				if score > bestScore {
					bestScore, enter, enterDir = score, j, dir
				}
			}
		}
		if enter == -1 {
			break // optimal
		}

		// w = B^{-1} A_enter
		for i := 0; i < m; i++ {
			s := 0.0
			for k := 0; k < m; k++ {
				s += binv[i][k] * column(enter, k)
			}
			w[i] = s
		}

		// Ratio test. Entering moves by t >= 0 in direction enterDir; basic
		// variable i changes by −enterDir·w[i]·t and must stay within
		// [0, upper[basis[i]]].
		tMax := upper[enter] // bound-flip span (l = 0 for all variables)
		leave := -1
		leaveToUpper := false
		for i := 0; i < m; i++ {
			delta := -enterDir * w[i]
			bi := basis[i]
			switch {
			case delta < -eps: // basic decreases toward 0
				if t := xB[i] / -delta; t < tMax-eps {
					tMax, leave, leaveToUpper = t, i, false
				} else if t < tMax+eps && leave >= 0 && useBland && bi < basis[leave] {
					leave, leaveToUpper = i, false
				}
			case delta > eps: // basic increases toward its upper bound
				if ub := upper[bi]; !math.IsInf(ub, 1) {
					if t := (ub - xB[i]) / delta; t < tMax-eps {
						tMax, leave, leaveToUpper = t, i, true
					}
				}
			}
		}
		if math.IsInf(tMax, 1) {
			// Unbounded direction cannot occur with finite x bounds unless the
			// entering variable is a slack with no blocking row, which means
			// the constraint is redundant; treat as numerical trouble.
			return nil, errors.New("lp: unbounded direction (inconsistent input)")
		}
		if tMax < 0 {
			tMax = 0
		}

		if leave == -1 {
			// Bound flip: entering jumps to its other bound.
			if st[enter] == atLower {
				st[enter] = atUpper
			} else {
				st[enter] = atLower
			}
			continue
		}

		// Pivot: entering becomes basic in row leave; leaving variable goes to
		// the bound it hit.
		out := basis[leave]
		if leaveToUpper {
			st[out] = atUpper
		} else {
			st[out] = atLower
		}
		basis[leave] = enter
		st[enter] = basic
	}
	if iter >= maxIter {
		return nil, ErrIterationLimit
	}

	// Assemble the primal solution.
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		if st[j] == atUpper {
			x[j] = 1
		}
	}
	for i, bi := range basis {
		if bi < n {
			v := xB[i]
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			x[bi] = v
		}
	}
	value := 0.0
	for j := 0; j < n; j++ {
		value += c[j] * x[j]
	}
	// At optimality y_i = 0 for rows whose slack is basic and y_i >= -eps for
	// the rest (slacks only ever sit at their lower bound), so clamping tiny
	// negatives yields valid nonnegative duals for surrogate relaxations.
	duals := make([]float64, m)
	for i := 0; i < m; i++ {
		if y[i] > 0 {
			duals[i] = y[i]
		}
	}
	return &Result{Value: value, X: x, Duals: duals, Iterations: iter}, nil
}

// invertBasisReference writes the inverse of the basis matrix into binv using
// Gauss–Jordan elimination with partial pivoting. aug is an m×2m workspace;
// its rows may come back permuted, and every entry is rewritten before use.
func invertBasisReference(binv, aug [][]float64, basis []int, column func(j, i int) float64, m int) error {
	// Build augmented [B | I].
	for i, row := range aug {
		for k, bj := range basis {
			row[k] = column(bj, i)
		}
		clear(row[m:])
		row[m+i] = 1
	}
	for col := 0; col < m; col++ {
		// Partial pivot.
		p := col
		for r := col + 1; r < m; r++ {
			if math.Abs(aug[r][col]) > math.Abs(aug[p][col]) {
				p = r
			}
		}
		if math.Abs(aug[p][col]) < 1e-12 {
			return errors.New("lp: singular basis")
		}
		aug[col], aug[p] = aug[p], aug[col]
		pivot := aug[col][col]
		for k := col; k < 2*m; k++ {
			aug[col][k] /= pivot
		}
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			f := aug[r][col]
			if f == 0 {
				continue
			}
			for k := col; k < 2*m; k++ {
				aug[r][k] -= f * aug[col][k]
			}
		}
	}
	for i := 0; i < m; i++ {
		copy(binv[i], aug[i][m:])
	}
	return nil
}

// TestSolveMatchesReference solves 480 LPs with Solve and solveReference and
// demands the same bits in Value, X and Duals, the same iteration count and
// the same error. The families are random MKP-shaped LPs, GK shapes across
// tightness 0.1–0.9, non-integer weights, tied profits and a row with b_i = 0.
func TestSolveMatchesReference(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 480; trial++ {
		n, m := lpSize(r)
		var c, b []float64
		var a [][]float64
		family := trial % 5
		switch family {
		case 0:
			c, a, b = randomLP(r, n, m)
		case 1:
			tight := 0.1 + 0.1*float64(r.Intn(9))
			ins := gen.GK("ref", n, m, tight, r.Uint64())
			c, a, b = ins.Profit, ins.Weight, ins.Capacity
		case 2:
			c, a, b = fractionalLP(r, n, m)
		case 3:
			c, a, b = randomLP(r, n, m)
			levels := 1 + r.Intn(3)
			for j := range c {
				c[j] = float64(10 * (1 + r.Intn(levels)))
			}
		case 4:
			c, a, b = randomLP(r, n, m)
			b[r.Intn(m)] = 0
		}
		want, wantErr := solveReference(c, a, b)
		got, gotErr := Solve(c, a, b)
		where := fmt.Sprintf("trial %d (family %d, n=%d m=%d)", trial, family, n, m)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: error %v, want %v", where, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got.Iterations != want.Iterations {
			t.Fatalf("%s: %d iterations, want %d", where, got.Iterations, want.Iterations)
		}
		if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("%s: Value %v, want %v", where, got.Value, want.Value)
		}
		sameBits(t, where+" X", got.X, want.X)
		sameBits(t, where+" Duals", got.Duals, want.Duals)
	}
}

// lpSize draws a row count in 1..30 and a column count in 1..500, small
// columns more often so the suite stays quick.
func lpSize(r *rng.Rand) (n, m int) {
	m = r.IntRange(1, 30)
	switch r.Intn(4) {
	case 0:
		n = r.IntRange(1, 10)
	case 1, 2:
		n = r.IntRange(1, 120)
	default:
		n = r.IntRange(1, 500)
	}
	return n, m
}

// fractionalLP is randomLP with non-integer profits, weights and capacities.
func fractionalLP(r *rng.Rand, n, m int) (c []float64, a [][]float64, b []float64) {
	c = make([]float64, n)
	for j := range c {
		c[j] = 0.5 + 99*r.Float64()
	}
	a = make([][]float64, m)
	b = make([]float64, m)
	for i := range a {
		a[i] = make([]float64, n)
		total := 0.0
		for j := range a[i] {
			a[i][j] = 0.1 + 49.9*r.Float64()
			total += a[i][j]
		}
		b[i] = (0.1 + 0.8*r.Float64()) * total
	}
	return c, a, b
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s[%d] = %v, want %v", what, k, got[k], want[k])
		}
	}
}
