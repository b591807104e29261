// Package lp solves the linear relaxation of the 0-1 MKP:
//
//	max c·x   s.t.  A x <= b,  0 <= x_j <= 1
//
// with a dense bounded-variable primal simplex. The relaxation value is the
// reference bound the experiment harness uses for the paper's "Dev. in %"
// column (Table 1), the exact branch-and-bound uses it at the root, and
// reduced-cost fixing (package reduce) starts every guided solve from it.
//
// The implementation targets the sizes in the paper (m <= 30, n <= 500).
// Most iterations are bound flips: a variable jumps between 0 and 1, and the
// basis, the duals and every reduced cost stay as they were. So the m×m
// basis inverse is recomputed by Gauss–Jordan elimination, and every column
// re-priced, only after a pivot; a flip negates the flipped variable's
// pricing score and rebuilds the right-hand side. A product-form (eta)
// update of the inverse would make a pivot cheaper, but it changes the
// arithmetic, and with it the reduced costs that reduced-cost fixing
// compares against its threshold.
package lp

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

	// Structural variables 0..n-1 have cost c_j and upper bound 1; slacks
	// n..n+m-1 have cost 0 and upper bound +Inf.
	nt := n + m
	upper := func(j int) float64 {
		if j < n {
			return 1
		}
		return math.Inf(1)
	}
	cost := func(j int) float64 {
		if j < n {
			return c[j]
		}
		return 0
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
	binvBuf := make([]float64, m*m)
	for i := range binv {
		binv[i] = binvBuf[i*m : (i+1)*m]
	}
	aug := make([][]float64, m) // invertBasis's [B | I] workspace
	augBuf := make([]float64, m*2*m)
	for i := range aug {
		aug[i] = augBuf[i*2*m : (i+1)*2*m]
	}
	vecs := make([]float64, 5*m)
	xB, y, w, rhs, enterCol := vecs[:m], vecs[m:2*m], vecs[2*m:3*m], vecs[3*m:4*m], vecs[4*m:]
	// score is each variable's pricing score: its reduced cost d_j at lower,
	// −d_j at upper, −Inf when basic. Only a pivot changes d, so a bound
	// flip only negates the flipped variable's score.
	score := make([]float64, nt)
	// atUpperSet lists the variables at their upper bound, ascending. Only
	// structurals ever get there: a slack's bound is +Inf, a flip needs a
	// finite span, and the ratio test sends a basic variable to its upper
	// bound only when that bound is finite.
	atUpperSet := make([]int, 0, n)

	maxIter := 50*(nt) + 1000
	blandAfter := 10 * nt

	// pivoted: the basis changed since B⁻¹, y and score were computed.
	// moved: the at-upper set changed since rhs was built.
	pivoted, moved := true, true
	var iter int
	for iter = 0; iter < maxIter; iter++ {
		if pivoted {
			if err := invertBasis(binv, aug, basis, column, m); err != nil {
				return nil, err
			}
			// y = c_B^T B^{-1}
			for k := 0; k < m; k++ {
				s := 0.0
				for i := 0; i < m; i++ {
					s += cost(basis[i]) * binv[i][k]
				}
				y[k] = s
			}
			// d_j = c_j − y·A_j. Row by row, each d_j takes its
			// subtractions in the same row order as a column-wise sum.
			copy(score, c)
			for i, row := range a {
				yi, sc := y[i], score[:len(row)]
				for j, aij := range row {
					sc[j] -= yi * aij
				}
			}
			for j := n; j < nt; j++ {
				d := 0.0
				for i := 0; i < m; i++ {
					d -= y[i] * column(j, i)
				}
				score[j] = d
			}
			for j, s := range st {
				switch s {
				case atUpper:
					score[j] = -score[j]
				case basic:
					score[j] = math.Inf(-1)
				}
			}
			pivoted = false
		}
		if moved {
			// rhs = b − Σ_{j at upper} A_j u_j with u_j = 1, in ascending j
			// (lower bounds are 0).
			for i, row := range a {
				r := b[i]
				for _, j := range atUpperSet {
					r -= row[j]
				}
				rhs[i] = r
			}
			moved = false
		}
		for i := 0; i < m; i++ {
			s := 0.0
			for k := 0; k < m; k++ {
				s += binv[i][k] * rhs[k]
			}
			xB[i] = s
		}

		// Pricing: Dantzig takes the first strict maximum above eps; after
		// blandAfter iterations Bland's rule takes the first score above eps.
		useBland := iter >= blandAfter
		enter := -1
		if useBland {
			for j, s := range score {
				if s > eps {
					enter = j
					break
				}
			}
		} else {
			best := eps
			for j, s := range score {
				if s > best {
					best, enter = s, j
				}
			}
		}
		if enter == -1 {
			break // optimal
		}
		enterDir := 1.0 // increasing improves when d > 0
		if st[enter] == atUpper {
			enterDir = -1 // decreasing improves when d < 0
		}

		// w = B^{-1} A_enter
		for k := range enterCol {
			enterCol[k] = column(enter, k)
		}
		for i := 0; i < m; i++ {
			s := 0.0
			for k := 0; k < m; k++ {
				s += binv[i][k] * enterCol[k]
			}
			w[i] = s
		}

		// Ratio test. Entering moves by t >= 0 in direction enterDir; basic
		// variable i changes by −enterDir·w[i]·t and must stay within
		// [0, upper(basis[i])].
		tMax := upper(enter) // bound-flip span (l = 0 for all variables)
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
				if ub := upper(bi); !math.IsInf(ub, 1) {
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

		if leave == -1 {
			// Bound flip: entering jumps to its other bound.
			if st[enter] == atLower {
				st[enter] = atUpper
				atUpperSet = insertSorted(atUpperSet, enter)
			} else {
				st[enter] = atLower
				atUpperSet = removeSorted(atUpperSet, enter)
			}
			score[enter] = -score[enter]
			moved = true
			continue
		}

		// Pivot: entering becomes basic in row leave; leaving variable goes to
		// the bound it hit.
		out := basis[leave]
		if leaveToUpper {
			st[out] = atUpper
			atUpperSet = insertSorted(atUpperSet, out)
			moved = true
		} else {
			st[out] = atLower
		}
		if st[enter] == atUpper {
			atUpperSet = removeSorted(atUpperSet, enter)
			moved = true
		}
		basis[leave] = enter
		st[enter] = basic
		pivoted = true
	}
	if iter >= maxIter {
		return nil, ErrIterationLimit
	}

	// Assemble the primal solution.
	x := make([]float64, n)
	for _, j := range atUpperSet {
		x[j] = 1
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

// insertSorted adds j to the ascending list s; removeSorted takes it out.
// Neither allocates while s stays within its capacity.
func insertSorted(s []int, j int) []int {
	k, _ := slices.BinarySearch(s, j)
	return slices.Insert(s, k, j)
}

func removeSorted(s []int, j int) []int {
	k, _ := slices.BinarySearch(s, j)
	return slices.Delete(s, k, k+1)
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
