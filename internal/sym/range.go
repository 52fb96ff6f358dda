package sym

import (
	"fmt"
	"math"
)

// Range is a closed integer interval [Min, Max] used for lightweight
// value-range constraints (bounds checks, overflow reasoning).
type Range struct {
	Min, Max int64
}

// FullRange is the unconstrained interval.
var FullRange = Range{Min: math.MinInt64, Max: math.MaxInt64}

// SingletonRange returns the interval [v, v].
func SingletonRange(v int64) Range { return Range{Min: v, Max: v} }

// IsEmpty reports whether the interval contains no values (an infeasible
// path constraint).
func (r Range) IsEmpty() bool { return r.Min > r.Max }

// IsSingleton reports whether the interval contains exactly one value.
func (r Range) IsSingleton() bool { return r.Min == r.Max }

// Contains reports whether v lies in the interval.
func (r Range) Contains(v int64) bool { return r.Min <= v && v <= r.Max }

// Intersect returns the intersection of two intervals.
func (r Range) Intersect(o Range) Range {
	return Range{Min: max(r.Min, o.Min), Max: min(r.Max, o.Max)}
}

// AtMost returns the interval restricted to values <= v.
func (r Range) AtMost(v int64) Range { return r.Intersect(Range{Min: math.MinInt64, Max: v}) }

// AtLeast returns the interval restricted to values >= v.
func (r Range) AtLeast(v int64) Range { return r.Intersect(Range{Min: v, Max: math.MaxInt64}) }

// CanExceed reports whether some value in the interval is > limit.
func (r Range) CanExceed(limit int64) bool { return r.Max > limit }

// CanBeNegative reports whether some value in the interval is < 0.
func (r Range) CanBeNegative() bool { return r.Min < 0 }

// Mul returns the interval product with saturation, assuming non-negative
// operands widen toward +inf (sufficient for size arithmetic).
func (r Range) Mul(o Range) Range {
	candidates := []int64{
		satMul(r.Min, o.Min), satMul(r.Min, o.Max),
		satMul(r.Max, o.Min), satMul(r.Max, o.Max),
	}
	out := Range{Min: candidates[0], Max: candidates[0]}
	for _, c := range candidates[1:] {
		out.Min = min(out.Min, c)
		out.Max = max(out.Max, c)
	}
	return out
}

// MulCanOverflow reports whether the product of two intervals can exceed
// the given unsigned bit-width (e.g. 32 for a u32 size computation).
func (r Range) MulCanOverflow(o Range, bits uint) bool {
	if bits >= 63 {
		bits = 62
	}
	limit := int64(1)<<bits - 1
	return r.Mul(o).CanExceed(limit)
}

func (r Range) String() string {
	lo := "-inf"
	if r.Min != math.MinInt64 {
		lo = fmt.Sprintf("%d", r.Min)
	}
	hi := "+inf"
	if r.Max != math.MaxInt64 {
		hi = fmt.Sprintf("%d", r.Max)
	}
	return fmt.Sprintf("[%s, %s]", lo, hi)
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a {
		if (a > 0) == (b > 0) {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return p
}
