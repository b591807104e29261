// Package stats provides the small set of summary statistics the experiment
// harness reports: mean, standard deviation, min/max, median, and a normal
// 95% confidence half-width. Multi-seed experiment rows use these so that
// "CTS2 beats CTS1" claims come with dispersion, not just point values.
// Paired benchmark runs add quartiles and the Mann–Whitney U test.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
	CI95   float64 // 1.96 * Std / sqrt(N); 0 for N < 2
}

// Summarize computes a Summary of xs. It panics on an empty sample — callers
// own their experiment loops and an empty sample is a harness bug.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
		s.CI95 = 1.96 * s.Std / math.Sqrt(float64(s.N))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// String renders "mean ± ci95" compactly.
func (s Summary) String() string {
	if s.N < 2 {
		return fmt.Sprintf("%.1f", s.Mean)
	}
	return fmt.Sprintf("%.1f±%.1f", s.Mean, s.CI95)
}

// WinLossTie compares paired samples a and b elementwise and counts how
// often a[i] > b[i], a[i] < b[i], and ties. It panics on length mismatch.
func WinLossTie(a, b []float64) (wins, losses, ties int) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: paired samples of different length %d vs %d", len(a), len(b)))
	}
	for i := range a {
		switch {
		case a[i] > b[i]:
			wins++
		case a[i] < b[i]:
			losses++
		default:
			ties++
		}
	}
	return wins, losses, ties
}

// Quartiles returns the first quartile, the median and the third quartile of
// xs. Each is interpolated linearly between the two order statistics nearest
// position (n−1)·p of the sorted sample, counting from 0 (the default of R
// and NumPy), so the median is the usual one. It panics on an empty sample.
func Quartiles(xs []float64) (q1, median, q3 float64) {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		h := float64(len(s)-1) * p
		lo := int(h)
		if lo == len(s)-1 {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// exactUMax bounds the sample sizes for which MannWhitneyU counts the exact
// null distribution of U; larger samples use the normal approximation.
const exactUMax = 20

// MannWhitneyU returns the Mann–Whitney U statistic of a against b — the
// number of pairs (x from a, y from b) with x > y, ties counting one half —
// and the two-sided p-value of the hypothesis that both samples come from one
// distribution. Without ties, and with both samples of at most 20 values, p
// is exact: twice the smaller tail of U's distribution over all orderings.
// Otherwise p comes from the normal approximation with the tie-corrected
// variance and a continuity correction. It panics on an empty sample.
func MannWhitneyU(a, b []float64) (u, p float64) {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		panic("stats: empty sample")
	}
	for _, x := range a {
		for _, y := range b {
			switch {
			case x > y:
				u++
			case x == y:
				u += 0.5
			}
		}
	}
	all := append(append([]float64(nil), a...), b...)
	sort.Float64s(all)
	ties := 0.0 // Σ t³−t over groups of t equal values
	for i := 0; i < len(all); {
		k := i + 1
		for k < len(all) && all[k] == all[i] {
			k++
		}
		t := float64(k - i)
		ties += t*t*t - t
		i = k
	}
	prod := float64(n1 * n2)
	if ties == 0 && n1 <= exactUMax && n2 <= exactUMax {
		return u, math.Min(1, 2*uCDF(n1, n2, int(math.Min(u, prod-u))))
	}
	n := float64(n1 + n2)
	variance := prod / 12 * (n + 1 - ties/(n*(n-1)))
	if variance <= 0 {
		return u, 1 // every value equal
	}
	z := math.Max(0, math.Abs(u-prod/2)-0.5) / math.Sqrt(variance)
	return u, math.Min(1, math.Erfc(z/math.Sqrt2))
}

// uCDF returns P(U <= u) for samples of sizes n1 and n2 without ties, when
// every ordering of the n1+n2 values is equally likely. f(i, j, v), the
// number of orderings of i values of a and j of b with U = v, satisfies
// f(i, j, v) = f(i−1, j, v−j) + f(i, j−1, v): the largest value belongs to a,
// and exceeds all j values of b, or it belongs to b.
func uCDF(n1, n2, u int) float64 {
	width := n1*n2 + 1
	prev := make([]float64, (n2+1)*width) // f(i−1, j, v) at j*width+v
	cur := make([]float64, (n2+1)*width)
	for j := 0; j <= n2; j++ {
		prev[j*width] = 1 // f(0, j, 0)
	}
	for i := 1; i <= n1; i++ {
		clear(cur)
		cur[0] = 1 // f(i, 0, 0)
		for j := 1; j <= n2; j++ {
			for v := 0; v <= i*j; v++ {
				c := cur[(j-1)*width+v]
				if v >= j {
					c += prev[j*width+v-j]
				}
				cur[j*width+v] = c
			}
		}
		prev, cur = cur, prev
	}
	below, total := 0.0, 0.0
	for v := 0; v < width; v++ {
		c := prev[n2*width+v]
		total += c
		if v <= u {
			below += c
		}
	}
	return below / total
}
