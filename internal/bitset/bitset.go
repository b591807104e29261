// Package bitset provides a compact fixed-length bit vector used to represent
// 0-1 knapsack solutions. It supports the operations the tabu search needs on
// its hot path: single-bit get/set/flip, population count, Hamming distance,
// copying, and iteration over set bits, all without per-call allocation.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-length bit vector. The zero value is an empty set of length
// zero; use New to create one with a given length. Bits beyond the logical
// length are kept at zero by every mutating operation so that Count and
// Distance never see stray bits.
type Set struct {
	n     int
	words []uint64
}

// New returns a Set of n bits, all zero. It panics if n is negative.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative length %d", n))
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromIndices returns a Set of n bits with exactly the given indices set.
func FromIndices(n int, idx []int) *Set {
	s := New(n)
	for _, i := range idx {
		s.Set(i)
	}
	return s
}

// Len returns the logical number of bits.
func (s *Set) Len() int { return s.n }

// Get reports whether bit i is set. It panics if i is out of range.
//
// Get, Set and Clear must stay within the compiler's inlining budget, so the
// search scan loops pay no call per bit test: the range check is one
// unsigned compare, the word index an unsigned shift, and the panic message
// is formatted only when the panic value is printed (indexError.Error).
func (s *Set) Get(i int) bool {
	s.check(i)
	return s.words[uint(i)/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i to one.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[uint(i)/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to zero.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[uint(i)/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Flip inverts bit i and returns its new value.
func (s *Set) Flip(i int) bool {
	s.check(i)
	s.words[i/wordBits] ^= 1 << uint(i%wordBits)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// SetTo sets bit i to v.
func (s *Set) SetTo(i int, v bool) {
	if v {
		s.Set(i)
	} else {
		s.Clear(i)
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets every bit (respecting the logical length).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of o. Both sets must have the same
// length; CopyFrom panics otherwise. It performs no allocation.
func (s *Set) CopyFrom(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: CopyFrom length mismatch %d != %d", s.n, o.n))
	}
	copy(s.words, o.words)
}

// Equal reports whether s and o have the same length and the same bits.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Distance returns the Hamming distance between s and o. It panics if the
// lengths differ. This is the metric the master uses to measure the diameter
// of a slave's B-best pool.
func Distance(s, o *Set) int {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: Distance length mismatch %d != %d", s.n, o.n))
	}
	d := 0
	for i, w := range s.words {
		d += bits.OnesCount64(w ^ o.words[i])
	}
	return d
}

// ForEach calls fn for every set bit in ascending index order. If fn returns
// false the iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// NextSet returns the index of the first set bit at or after position i, or
// -1 when no such bit exists. i may be any non-negative value (i >= Len()
// returns -1), so the canonical scan is:
//
//	for j := s.NextSet(0); j >= 0; j = s.NextSet(j + 1) { ... }
//
// Unlike ForEach this keeps the loop body inlinable at the call site — the
// search inner loops use it to avoid closure-call overhead per set bit.
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	wi := i / wordBits
	if wi >= len(s.words) {
		return -1
	}
	// Mask off bits below i in the first word, then scan word by word.
	w := s.words[wi] &^ ((1 << uint(i%wordBits)) - 1)
	for {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
		wi++
		if wi >= len(s.words) {
			return -1
		}
		w = s.words[wi]
	}
}

// Word returns the k-th 64-bit word (read-only): bit b of it is bit 64k+b of
// the set, and bits past the logical length read as zero. It panics unless
// 0 <= k < ⌈Len()/64⌉.
func (s *Set) Word(k int) uint64 { return s.words[k] }

// Indices appends the indices of all set bits to dst and returns the extended
// slice. Pass a reusable buffer to avoid allocation.
func (s *Set) Indices(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*wordBits+b)
			w &= w - 1
		}
	}
	return dst
}

// String renders the set as a 0/1 string, index 0 first, for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		if s.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// check panics with an indexError unless 0 <= i < Len(). A negative i
// converts to a huge unsigned value, so one compare covers both ends.
func (s *Set) check(i int) {
	if uint(i) >= uint(s.n) {
		panic(indexError{i: i, n: s.n})
	}
}

// indexError is the panic value of an out-of-range bit access.
type indexError struct{ i, n int }

func (e indexError) Error() string {
	return fmt.Sprintf("bitset: index %d out of range [0,%d)", e.i, e.n)
}

// trim zeroes any bits beyond the logical length in the last word.
func (s *Set) trim() {
	if r := s.n % wordBits; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(r)) - 1
	}
}
