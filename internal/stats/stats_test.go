package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || !approx(s.Mean, 5) {
		t.Fatalf("N=%d Mean=%v", s.N, s.Mean)
	}
	// Sample std of this classic set is sqrt(32/7).
	if !approx(s.Std, math.Sqrt(32.0/7.0)) {
		t.Fatalf("Std = %v", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min=%v Max=%v", s.Min, s.Max)
	}
	if !approx(s.Median, 4.5) {
		t.Fatalf("Median = %v", s.Median)
	}
	if s.CI95 <= 0 {
		t.Fatalf("CI95 = %v", s.CI95)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.N != 1 || s.Mean != 3.5 || s.Std != 0 || s.CI95 != 0 || s.Median != 3.5 {
		t.Fatalf("%+v", s)
	}
	if s.String() != "3.5" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{9, 1, 5})
	if s.Median != 5 {
		t.Fatalf("Median = %v", s.Median)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty sample did not panic")
		}
	}()
	Summarize(nil)
}

func TestStringWithCI(t *testing.T) {
	s := Summarize([]float64{10, 12})
	if got := s.String(); got == "" || got == "11.0" {
		t.Fatalf("String = %q, want mean±ci", got)
	}
}

func TestWinLossTie(t *testing.T) {
	w, l, ties := WinLossTie([]float64{3, 1, 2, 5}, []float64{2, 4, 2, 1})
	if w != 2 || l != 1 || ties != 1 {
		t.Fatalf("w=%d l=%d t=%d", w, l, ties)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	WinLossTie([]float64{1}, []float64{1, 2})
}

func TestQuickSummaryInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		if s.Min > s.Mean+1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		if s.Median < s.Min-1e-9 || s.Median > s.Max+1e-9 {
			return false
		}
		return s.Std >= 0 && s.CI95 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSummarizeDoesNotMutate(t *testing.T) {
	f := func(seedVals []float64) bool {
		xs := make([]float64, 0, len(seedVals))
		for _, v := range seedVals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		before := append([]float64(nil), xs...)
		Summarize(xs)
		for i := range xs {
			if xs[i] != before[i] && !(math.IsNaN(xs[i]) && math.IsNaN(before[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuartilesKnown(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, md, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{10, 20}, 12.5, 15, 17.5},                // positions 0.25, 0.5, 0.75
		{[]float64{1, 2, 3, 4, 5}, 2, 3, 4},                // positions 1, 2, 3 exactly
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},           // sorted 1..4; positions 0.75, 1.5, 2.25
		{[]float64{5, 5, 1, 9, 5, 5}, 5, 5, 5},             // sorted 1 5 5 5 5 9; positions 1.25, 2.5, 3.75
		{[]float64{0, 10, 20, 30, 40, 50, 60}, 15, 30, 45}, // positions 1.5, 3, 4.5
	}
	for _, c := range cases {
		before := append([]float64(nil), c.xs...)
		q1, md, q3 := Quartiles(c.xs)
		if !approx(q1, c.q1) || !approx(md, c.md) || !approx(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, md, q3, c.q1, c.md, c.q3)
		}
		for i := range before {
			if c.xs[i] != before[i] {
				t.Fatalf("Quartiles reordered its input: %v", c.xs)
			}
		}
	}
}

func TestMannWhitneyUKnown(t *testing.T) {
	sep10a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	sep10b := []float64{11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	var sep25a, sep25b []float64
	for k := 0; k < 25; k++ {
		sep25a = append(sep25a, float64(k))
		sep25b = append(sep25b, float64(100+k))
	}
	cases := []struct {
		name string
		a, b []float64
		u, p float64
	}{
		// Exact: of the C(6,3) = 20 orderings only one gives U = 0, so
		// p = 2·1/20.
		{"separated 3v3", []float64{1, 2, 3}, []float64{4, 5, 6}, 0, 0.1},
		{"separated 3v3 reversed", []float64{4, 5, 6}, []float64{1, 2, 3}, 9, 0.1},
		// Exact: U = 1 (3 > 2). The six orderings of two against two give
		// U = 0, 1, 2, 2, 3, 4, so P(U <= 1) = 2/6 and p = 2/3.
		{"interleaved 2v2", []float64{1, 3}, []float64{2, 4}, 1, 2.0 / 3},
		// Exact: p = 2/C(20,10) = 2/184756.
		{"separated 10v10", sep10a, sep10b, 0, 2.0 / 184756},
		// Ties, normal approximation: U = 0.5+0.5+1+0.5 = 2.5; mean 8;
		// tie groups of 3 (the 2s) and 2 (the 3s) give Σt³−t = 30, so
		// var = 16/12·(9 − 30/56) = 11.2857142857; z = (5.5−0.5)/√var =
		// 1.48835; p = erfc(z/√2).
		{"ties 4v4", []float64{1, 2, 2, 3}, []float64{2, 3, 4, 5}, 2.5, 0.13665824773814753},
		// Above the exact bound: mean 312.5, var = 625·51/12 = 2656.25,
		// z = 312/√2656.25 = 6.05368; p = erfc(z/√2).
		{"separated 25v25", sep25a, sep25b, 0, 1.4156562248495634e-09},
		// All values equal: no evidence either way.
		{"all equal", []float64{3, 3}, []float64{3, 3, 3}, 3, 1},
	}
	for _, c := range cases {
		u, p := MannWhitneyU(c.a, c.b)
		if u != c.u || math.Abs(p-c.p) > 1e-9*c.p {
			t.Errorf("%s: U, p = %v, %v; want %v, %v", c.name, u, p, c.u, c.p)
		}
	}
}
