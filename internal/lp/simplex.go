// Package lp solves the linear relaxation of the 0-1 MKP:
//
//	max c·x   s.t.  A x <= b,  0 <= x_j <= 1
//
// with a dense bounded-variable primal simplex. The relaxation value is the
// reference bound the experiment harness uses for the paper's "Dev. in %"
// column (Table 1), and the exact branch-and-bound uses it at the root.
//
// The implementation targets the sizes in the paper (m <= 30, n <= 500):
// the m×m basis inverse is recomputed by Gauss–Jordan elimination each
// iteration, which is simpler and more numerically robust than incremental
// updates and still far from the bottleneck at these dimensions.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// status of a variable relative to the current basis.
type varStatus int8

const (
	atLower varStatus = iota
	atUpper
	basic
)

const eps = 1e-9

// ErrIterationLimit is returned when the simplex fails to converge within its
// iteration budget (it should not occur on valid MKP relaxations; it guards
// against numerical cycling).
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")

// Result holds the solved relaxation.
type Result struct {
	Value      float64   // optimal objective of the relaxation
	X          []float64 // optimal primal values, length n, each in [0,1]
	Duals      []float64 // optimal duals of the m rows, each >= 0
	Iterations int
}

// Solve maximizes c·x subject to Ax <= b and 0 <= x <= 1. A is m rows of
// length n; every b_i must be >= 0 so that x = 0 is a feasible start (true
// for MKP instances, whose capacities are positive).
func Solve(c []float64, a [][]float64, b []float64) (*Result, error) {
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
		if err := invertBasis(binv, aug, basis, column, m); err != nil {
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

// invertBasis writes the inverse of the basis matrix into binv using
// Gauss–Jordan elimination with partial pivoting. aug is an m×2m workspace;
// its rows may come back permuted, and every entry is rewritten before use.
func invertBasis(binv, aug [][]float64, basis []int, column func(j, i int) float64, m int) error {
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
