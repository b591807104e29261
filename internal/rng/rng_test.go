package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds coincided %d/100 times", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	s1 := root.Split()
	s2 := root.Split()
	same := 0
	for i := 0; i < 200; i++ {
		if s1.Uint64() == s2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams coincided %d/200 times", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(9).Split()
	b := New(9).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split from identical roots diverged")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d has %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestIntRange(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(-3, 3)
		if v < -3 || v > 3 {
			t.Fatalf("IntRange(-3,3) = %d", v)
		}
	}
	if v := r.IntRange(4, 4); v != 4 {
		t.Fatalf("IntRange(4,4) = %d", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("IntRange(1,0) did not panic")
		}
	}()
	r.IntRange(1, 0)
}

func TestFloat64Range(t *testing.T) {
	r := New(13)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(17)
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / draws; math.Abs(p-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) frequency = %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	p := make([]int, 50)
	r.Perm(p)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestQuickIntnAlwaysInRange(t *testing.T) {
	f := func(seed uint64, nn uint16) bool {
		n := int(nn)%1000 + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPermAlwaysValid(t *testing.T) {
	f := func(seed uint64, nn uint8) bool {
		n := int(nn)%100 + 1
		r := New(seed)
		p := make([]int, n)
		r.Perm(p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}
