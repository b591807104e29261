package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 1000} {
		s := New(n)
		if s.Len() != n {
			t.Fatalf("Len() = %d, want %d", s.Len(), n)
		}
		if s.Count() != 0 {
			t.Fatalf("new set of %d bits has Count %d, want 0", n, s.Count())
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Get(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		s.Clear(i)
		if s.Get(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
}

func TestSetToAndFlip(t *testing.T) {
	s := New(70)
	s.SetTo(69, true)
	if !s.Get(69) {
		t.Fatal("SetTo(69,true) did not set")
	}
	s.SetTo(69, false)
	if s.Get(69) {
		t.Fatal("SetTo(69,false) did not clear")
	}
	if v := s.Flip(69); !v || !s.Get(69) {
		t.Fatal("Flip did not set the bit")
	}
	if v := s.Flip(69); v || s.Get(69) {
		t.Fatal("second Flip did not clear the bit")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for name, fn := range map[string]func(){
		"Get(-1)":  func() { s.Get(-1) },
		"Get(10)":  func() { s.Get(10) },
		"Set(10)":  func() { s.Set(10) },
		"Clear(-)": func() { s.Clear(-5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// The panic value formats its message lazily; it must still read as before
// when printed.
func TestOutOfRangePanicMessage(t *testing.T) {
	defer func() {
		err, ok := recover().(error)
		if !ok {
			t.Fatal("out-of-range Get did not panic with an error value")
		}
		if got, want := err.Error(), "bitset: index -3 out of range [0,10)"; got != want {
			t.Fatalf("panic message %q, want %q", got, want)
		}
	}()
	New(10).Get(-3)
}

func TestCount(t *testing.T) {
	s := New(200)
	want := 0
	for i := 0; i < 200; i += 3 {
		s.Set(i)
		want++
	}
	if got := s.Count(); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

func TestFillRespectsLength(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100} {
		s := New(n)
		s.Fill()
		if got := s.Count(); got != n {
			t.Fatalf("Fill on %d bits: Count = %d", n, got)
		}
	}
}

func TestResetClearsAll(t *testing.T) {
	s := New(100)
	s.Fill()
	s.Reset()
	if s.Count() != 0 {
		t.Fatal("Reset left bits set")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(80)
	s.Set(5)
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Set(6)
	if s.Get(6) {
		t.Fatal("mutating clone affected original")
	}
}

func TestCopyFrom(t *testing.T) {
	a, b := New(90), New(90)
	a.Set(3)
	a.Set(77)
	b.CopyFrom(a)
	if !a.Equal(b) {
		t.Fatal("CopyFrom did not copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom length mismatch did not panic")
		}
	}()
	New(10).CopyFrom(New(11))
}

func TestEqualDifferentLengths(t *testing.T) {
	if New(10).Equal(New(11)) {
		t.Fatal("sets of different lengths reported Equal")
	}
}

func TestDistance(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(1)
	a.Set(70)
	b.Set(1)
	b.Set(71)
	if d := Distance(a, b); d != 2 {
		t.Fatalf("Distance = %d, want 2", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Distance length mismatch did not panic")
		}
	}()
	Distance(New(10), New(11))
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := FromIndices(150, []int{3, 64, 65, 149})
	var got []int
	s.ForEach(func(i int) bool {
		got = append(got, i)
		return true
	})
	want := []int{3, 64, 65, 149}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
	count := 0
	s.ForEach(func(i int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop visited %d bits, want 2", count)
	}
}

func TestIndicesReuse(t *testing.T) {
	s := FromIndices(64, []int{0, 63})
	buf := make([]int, 0, 4)
	got := s.Indices(buf)
	if len(got) != 2 || got[0] != 0 || got[1] != 63 {
		t.Fatalf("Indices = %v", got)
	}
}

func TestStringAndKey(t *testing.T) {
	s := FromIndices(4, []int{0, 2})
	if s.String() != "1010" {
		t.Fatalf("String = %q, want 1010", s.String())
	}
}

// randomSet builds a set of n bits with each bit set with probability 1/2.
func randomSet(r *rand.Rand, n int) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			s.Set(i)
		}
	}
	return s
}

func TestQuickCountMatchesNaive(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn)%300 + 1
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, n)
		naive := 0
		for i := 0; i < n; i++ {
			if s.Get(i) {
				naive++
			}
		}
		return s.Count() == naive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistanceMetricAxioms(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn)%200 + 1
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomSet(r, n), randomSet(r, n), randomSet(r, n)
		dab, dba := Distance(a, b), Distance(b, a)
		if dab != dba { // symmetry
			return false
		}
		if Distance(a, a) != 0 { // identity
			return false
		}
		if dab == 0 && !a.Equal(b) { // identity of indiscernibles
			return false
		}
		// triangle inequality
		return Distance(a, c) <= dab+Distance(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFlipInvolution(t *testing.T) {
	f := func(seed int64, nn uint8, ii uint16) bool {
		n := int(nn)%200 + 1
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, n)
		i := int(ii) % n
		before := s.Get(i)
		c := s.Clone()
		s.Flip(i)
		s.Flip(i)
		return s.Get(i) == before && s.Equal(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistanceEqualsXorCount(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn)%200 + 1
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r, n), randomSet(r, n)
		naive := 0
		for i := 0; i < n; i++ {
			if a.Get(i) != b.Get(i) {
				naive++
			}
		}
		return Distance(a, b) == naive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCount(b *testing.B) {
	s := New(500)
	for i := 0; i < 500; i += 2 {
		s.Set(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Count()
	}
}

func BenchmarkDistance(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randomSet(r, 500), randomSet(r, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Distance(x, y)
	}
}

func TestNextSet(t *testing.T) {
	s := New(200)
	for _, i := range []int{0, 1, 63, 64, 127, 130, 199} {
		s.Set(i)
	}
	var got []int
	for j := s.NextSet(0); j >= 0; j = s.NextSet(j + 1) {
		got = append(got, j)
	}
	want := []int{0, 1, 63, 64, 127, 130, 199}
	if len(got) != len(want) {
		t.Fatalf("NextSet walk = %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("NextSet walk = %v, want %v", got, want)
		}
	}
	// Starting exactly on a set bit returns that bit.
	if j := s.NextSet(64); j != 64 {
		t.Fatalf("NextSet(64) = %d, want 64", j)
	}
	// Past the last set bit, and past the logical length.
	if j := s.NextSet(200); j != -1 {
		t.Fatalf("NextSet(200) = %d, want -1", j)
	}
	if j := s.NextSet(1 << 20); j != -1 {
		t.Fatalf("NextSet(big) = %d, want -1", j)
	}
	if j := s.NextSet(-5); j != 0 {
		t.Fatalf("NextSet(-5) = %d, want 0", j)
	}
	if j := New(0).NextSet(0); j != -1 {
		t.Fatalf("empty NextSet(0) = %d, want -1", j)
	}
	if j := New(70).NextSet(0); j != -1 {
		t.Fatalf("all-zero NextSet(0) = %d, want -1", j)
	}
}

func TestQuickNextSetMatchesForEach(t *testing.T) {
	f := func(bits []uint16) bool {
		s := New(300)
		for _, b := range bits {
			s.Set(int(b) % 300)
		}
		var viaForEach []int
		s.ForEach(func(i int) bool {
			viaForEach = append(viaForEach, i)
			return true
		})
		var viaNext []int
		for j := s.NextSet(0); j >= 0; j = s.NextSet(j + 1) {
			viaNext = append(viaNext, j)
		}
		if len(viaForEach) != len(viaNext) {
			return false
		}
		for k := range viaNext {
			if viaForEach[k] != viaNext[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNextSet(b *testing.B) {
	s := New(500)
	for i := 0; i < 500; i += 3 {
		s.Set(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum := 0
		for j := s.NextSet(0); j >= 0; j = s.NextSet(j + 1) {
			sum += j
		}
		_ = sum
	}
}
