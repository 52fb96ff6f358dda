package sym

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRangeBasics(t *testing.T) {
	r := Range{Min: 0, Max: 63}
	if !r.Contains(0) || !r.Contains(63) || r.Contains(64) || r.Contains(-1) {
		t.Error("Contains broken")
	}
	if r.IsEmpty() || r == FullRange || r.IsSingleton() {
		t.Error("predicates broken")
	}
	if !SingletonRange(5).IsSingleton() {
		t.Error("singleton broken")
	}
	if !(Range{Min: 3, Max: 2}).IsEmpty() {
		t.Error("empty detection broken")
	}
}

func TestRangeIntersect(t *testing.T) {
	a := Range{Min: 0, Max: 100}
	b := Range{Min: 50, Max: 200}
	got := a.Intersect(b)
	if got.Min != 50 || got.Max != 100 {
		t.Errorf("intersect = %v", got)
	}
	if !a.Intersect(Range{Min: 200, Max: 300}).IsEmpty() {
		t.Error("disjoint intersect should be empty")
	}
}

func TestRangeAtMostAtLeast(t *testing.T) {
	r := FullRange.AtMost(63)
	if r.Max != 63 || r.Min != math.MinInt64 {
		t.Errorf("AtMost = %v", r)
	}
	r = r.AtLeast(0)
	if r.Min != 0 || r.Max != 63 {
		t.Errorf("AtLeast = %v", r)
	}
	if r.CanExceed(63) {
		t.Error("constrained range cannot exceed 63")
	}
	if !FullRange.CanExceed(63) {
		t.Error("full range can exceed anything")
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	big := Range{Min: math.MaxInt64 - 1, Max: math.MaxInt64}
	if got := big.Mul(Range{Min: 2, Max: 2}); got.Max != math.MaxInt64 {
		t.Errorf("Mul should saturate: %v", got)
	}
}

func TestMulCanOverflow(t *testing.T) {
	small := Range{Min: 0, Max: 10}
	if small.MulCanOverflow(small, 32) {
		t.Error("10*10 cannot overflow u32")
	}
	unconstrained := FullRange.AtLeast(0)
	if !unconstrained.MulCanOverflow(unconstrained, 32) {
		t.Error("unconstrained product can overflow u32")
	}
	// Exactly at the boundary: 2^16 * 2^16 = 2^32 > u32 max.
	p16 := SingletonRange(1 << 16)
	if !p16.MulCanOverflow(p16, 32) {
		t.Error("2^16 * 2^16 overflows u32")
	}
}

// Property: intersection is commutative, idempotent, and shrinking.
func TestIntersectProperties(t *testing.T) {
	mk := func(a, b int32) Range {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return Range{Min: lo, Max: hi}
	}
	f := func(a1, b1, a2, b2 int32) bool {
		r1, r2 := mk(a1, b1), mk(a2, b2)
		i12 := r1.Intersect(r2)
		i21 := r2.Intersect(r1)
		if i12 != i21 {
			return false
		}
		if r1.Intersect(r1) != r1 {
			return false
		}
		if i12.IsEmpty() {
			return true
		}
		// Shrinking: result within both operands.
		return i12.Min >= r1.Min && i12.Max <= r1.Max && i12.Min >= r2.Min && i12.Max <= r2.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
