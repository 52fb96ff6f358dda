package sym

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"knighter/internal/minic"
)

func TestStateImmutability(t *testing.T) {
	s0 := NewState()
	s1 := s0.BindRegion(1, MakeInt(42))
	s2 := s1.BindRegion(1, MakeInt(7))
	s3 := s1.BindRegion(2, MakeSym(5))

	if _, ok := s0.LookupRegion(1); ok {
		t.Error("s0 must not see binding added in s1")
	}
	if v, _ := s1.LookupRegion(1); v.Int != 42 {
		t.Errorf("s1 r1 = %v, want 42", v)
	}
	if v, _ := s2.LookupRegion(1); v.Int != 7 {
		t.Errorf("s2 r1 = %v, want 7", v)
	}
	if v, _ := s3.LookupRegion(1); v.Int != 42 {
		t.Errorf("s3 r1 = %v, want 42 (inherited)", v)
	}
	if v, ok := s3.LookupRegion(2); !ok || v.Sym != 5 {
		t.Errorf("s3 r2 = %v", v)
	}
}

func TestBindSameValueSharesState(t *testing.T) {
	s0 := NewState().BindRegion(1, MakeInt(1))
	s1 := s0.BindRegion(1, MakeInt(1))
	if s0 != s1 {
		t.Error("re-binding the same value should return the same state")
	}
}

func TestNullness(t *testing.T) {
	s := NewState()
	if got := s.NullnessOf(MakeInt(0)); got != IsNull {
		t.Errorf("NullnessOf(0) = %v", got)
	}
	if got := s.NullnessOf(MakeInt(3)); got != NotNull {
		t.Errorf("NullnessOf(3) = %v", got)
	}
	if got := s.NullnessOf(MakeLoc(4)); got != NotNull {
		t.Errorf("NullnessOf(&r4) = %v", got)
	}
	v := MakeSym(9)
	if got := s.NullnessOf(v); got != MaybeNull {
		t.Errorf("unconstrained symbol = %v", got)
	}
	s2 := s.WithNullness(9, NotNull)
	if got := s2.NullnessOf(v); got != NotNull {
		t.Errorf("constrained symbol = %v", got)
	}
	if got := s.NullnessOf(v); got != MaybeNull {
		t.Error("original state must stay unconstrained")
	}
}

func TestRangeConstraints(t *testing.T) {
	s := NewState()
	v := MakeSym(3)
	if s.RangeOf(v) != FullRange {
		t.Error("unconstrained symbol should have full range")
	}
	s2 := s.WithRange(3, Range{Min: 0, Max: 63})
	r := s2.RangeOf(v)
	if r.Min != 0 || r.Max != 63 {
		t.Errorf("range = %v", r)
	}
	if got := s2.RangeOf(MakeInt(10)); !got.IsSingleton() || got.Min != 10 {
		t.Errorf("concrete range = %v", got)
	}
}

func TestFactsLifecycle(t *testing.T) {
	s := NewState()
	s1 := s.SetFact("NullMap", "r1", false)
	s2 := s1.SetFact("NullMap", "r2", true)
	s3 := s2.DelFact("NullMap", "r1")

	if _, ok := s.Fact("NullMap", "r1"); ok {
		t.Error("base state must not see facts")
	}
	if v, ok := s2.Fact("NullMap", "r1"); !ok || v != false {
		t.Errorf("s2 r1 = %v %v", v, ok)
	}
	if _, ok := s3.Fact("NullMap", "r1"); ok {
		t.Error("s3 must not see deleted fact")
	}
	if keys := s2.FactKeys("NullMap"); len(keys) != 2 || keys[0] != "r1" || keys[1] != "r2" {
		t.Errorf("keys = %v", keys)
	}
	if keys := s3.FactKeys("NullMap"); len(keys) != 1 || keys[0] != "r2" {
		t.Errorf("keys after delete = %v", keys)
	}
}

func TestFactDomainsAreIndependent(t *testing.T) {
	s := NewState().SetFact("A", "k", 1).SetFact("B", "k", 2)
	a, _ := s.Fact("A", "k")
	b, _ := s.Fact("B", "k")
	if a != 1 || b != 2 {
		t.Errorf("a=%v b=%v", a, b)
	}
}

func TestRegionFactHelpers(t *testing.T) {
	s := NewState().SetRegionFact("D", 7, "x").SetRegionFact("D", 3, "y")
	regs := s.FactRegions("D")
	if len(regs) != 2 || regs[0] != 3 || regs[1] != 7 {
		t.Errorf("regions = %v", regs)
	}
	if v, ok := s.RegionFact("D", 7); !ok || v != "x" {
		t.Errorf("fact = %v %v", v, ok)
	}
	s2 := s.DelRegionFact("D", 7)
	if len(s2.FactRegions("D")) != 1 {
		t.Error("delete failed")
	}
}

func TestFingerprintDistinguishesStates(t *testing.T) {
	s1 := NewState().BindRegion(1, MakeInt(1)).SetFact("M", "k", true)
	s2 := NewState().BindRegion(1, MakeInt(2)).SetFact("M", "k", true)
	s3 := NewState().SetFact("M", "k", true).BindRegion(1, MakeInt(1))
	if s1.Fingerprint() == s2.Fingerprint() {
		t.Error("different states must have different fingerprints")
	}
	if s1.Fingerprint() != s3.Fingerprint() {
		t.Error("insertion order must not affect fingerprint")
	}
}

// Property: fingerprints are order-insensitive and Set/Del round-trips
// return to the original fingerprint.
func TestFingerprintProperties(t *testing.T) {
	f := func(keys []uint8, vals []int8) bool {
		if len(keys) > 8 {
			keys = keys[:8]
		}
		s := NewState()
		for i, k := range keys {
			v := int8(0)
			if i < len(vals) {
				v = vals[i]
			}
			s = s.SetRegionFact("P", RegionID(k%16+1), v)
		}
		// Apply in reverse order: same final content, same fingerprint.
		s2 := NewState()
		for i := len(keys) - 1; i >= 0; i-- {
			v := int8(0)
			if i < len(vals) {
				v = vals[i]
			}
			s2 = s2.SetRegionFact("P", RegionID(keys[i]%16+1), v)
		}
		// Note: duplicate keys may overwrite differently depending on
		// order; restrict the property to unique keys.
		seen := map[uint8]bool{}
		for _, k := range keys {
			if seen[k%16] {
				return true // skip non-unique inputs
			}
			seen[k%16] = true
		}
		return s.Fingerprint() == s2.Fingerprint()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArenaInterning(t *testing.T) {
	a := NewArena()
	p := minic.Pos{File: "t.c", Line: 1, Col: 1}
	v1 := a.VarRegion("ptr", p)
	v2 := a.VarRegion("ptr", p)
	if v1 != v2 {
		t.Error("var regions must intern")
	}
	f1 := a.FieldRegion(v1, "next", p)
	f2 := a.FieldRegion(v1, "next", p)
	if f1 != f2 {
		t.Error("field regions must intern")
	}
	e1 := a.ElemRegion(v1, 3, p)
	e2 := a.ElemRegion(v1, 3, p)
	e3 := a.ElemRegion(v1, 4, p)
	if e1 != e2 || e1 == e3 {
		t.Errorf("elem interning wrong: %d %d %d", e1, e2, e3)
	}
	s := a.NewSymbol("devm_kzalloc", p)
	r1 := a.SymRegionFor(s, "devm_kzalloc", p)
	r2 := a.SymRegionFor(s, "devm_kzalloc", p)
	if r1 != r2 {
		t.Error("sym regions must intern")
	}
}

// baseOf returns the outermost ancestor region (following Parent links).
func baseOf(a *Arena, id RegionID) RegionID {
	for {
		r := a.Region(id)
		if r == nil || r.Parent == NoRegion {
			return id
		}
		id = r.Parent
	}
}

func TestArenaHierarchy(t *testing.T) {
	a := NewArena()
	p := minic.Pos{Line: 1, Col: 1}
	base := a.VarRegion("dev", p)
	fld := a.FieldRegion(base, "priv", p)
	elem := a.ElemRegion(fld, -1, p)
	if got := baseOf(a, elem); got != base {
		t.Errorf("base = %d, want %d", got, base)
	}
	if got := baseOf(a, fld); got != base {
		t.Errorf("base(field) = %d, want %d", got, base)
	}
	if got := baseOf(a, base); got != base {
		t.Error("a base region is its own base")
	}
	other := a.VarRegion("x", p)
	if baseOf(a, other) == base {
		t.Error("unrelated region must not share the base")
	}
}

func TestDescribe(t *testing.T) {
	a := NewArena()
	p := minic.Pos{Line: 1, Col: 1}
	base := a.VarRegion("spi_bus", p)
	fld := a.FieldRegion(base, "spi_int", p)
	elem := a.ElemRegion(fld, 2, p)
	if got := a.Describe(elem); got != "spi_bus->spi_int[2]" {
		t.Errorf("Describe = %q", got)
	}
	s := a.NewSymbol("devm_kzalloc", p)
	sr := a.SymRegionFor(s, "devm_kzalloc", p)
	if got := a.Describe(sr); got != "<devm_kzalloc() result>" {
		t.Errorf("Describe = %q", got)
	}
}

func TestValueBasics(t *testing.T) {
	if !MakeInt(0).IsNullConst() {
		t.Error("0 is the null constant")
	}
	if MakeInt(1).IsNullConst() {
		t.Error("1 is not null")
	}
	if !MakeLoc(3).IsLoc() || !MakeSym(2).IsSymbol() || !Unknown.IsUnknown() {
		t.Error("kind predicates broken")
	}
	if MakeInt(5).String() != "5" || MakeSym(2).String() != "sym2" {
		t.Error("String() broken")
	}
}

// canonicalStrings is the fingerprint the engine used before Hash, one
// string per half of the state: every entry rendered through fmt, sorted
// and joined. It is kept as the oracle for what "same state" means.
func canonicalStrings(s *State) (core, facts string) {
	var parts []string
	for _, e := range s.bindings {
		parts = append(parts, fmt.Sprintf("b%d=%s", e.key, e.val))
	}
	for _, e := range s.nullness {
		parts = append(parts, fmt.Sprintf("n%d=%d", e.key, e.val))
	}
	for _, e := range s.ranges {
		parts = append(parts, fmt.Sprintf("g%d=%d:%d", e.key, e.val.Min, e.val.Max))
	}
	sort.Strings(parts)
	core = strings.Join(parts, ";")
	parts = parts[:0]
	for fk, v := range s.facts {
		parts = append(parts, fmt.Sprintf("f%s/%s=%v", fk.Domain, fk.Key, v))
	}
	sort.Strings(parts)
	return core, strings.Join(parts, ";")
}

// mutate applies one random mutator drawn from a small alphabet, so that
// different sequences often land on the same content.
func mutate(r *rand.Rand, s *State) *State {
	id := 1 + r.Intn(4)
	switch r.Intn(7) {
	case 0:
		return s.BindRegion(RegionID(id), []Value{MakeInt(int64(r.Intn(3))), MakeSym(SymbolID(id)), MakeLoc(RegionID(id)), Unknown}[r.Intn(4)])
	case 1:
		return s.WithNullness(SymbolID(id), Nullness(r.Intn(3)))
	case 2:
		return s.WithRange(SymbolID(id), Range{Min: int64(r.Intn(2)), Max: int64(2 + r.Intn(2))})
	case 3:
		return s.SetFact("ck:a:track", SymbolKey(SymbolID(id)), []string{"unchecked", "checked", "freed"}[r.Intn(3)])
	case 4:
		return s.SetRegionFact("ck:b:track", RegionID(id), []any{"held", 1, true, "1"}[r.Intn(4)])
	case 5:
		return s.DelFact("ck:a:track", SymbolKey(SymbolID(id)))
	default:
		return s.DelRegionFact("ck:b:track", RegionID(id))
	}
}

// TestFingerprintMatchesCanonicalString: over random mutation sequences
// the hash fingerprint separates exactly the states the canonical strings
// separate — as a whole, and half by half.
func TestFingerprintMatchesCanonicalString(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var states []*State
	for i := 0; i < 300; i++ {
		s := NewState()
		for j, n := 0, r.Intn(7); j < n; j++ {
			s = mutate(r, s)
		}
		states = append(states, s)
	}
	equalPairs := 0
	for i, a := range states {
		for _, b := range states[:i] {
			coreA, factsA := canonicalStrings(a)
			coreB, factsB := canonicalStrings(b)
			sameCore, sameFacts := coreA == coreB, factsA == factsB
			if sameCore && sameFacts {
				equalPairs++
			}
			if got := a.Fingerprint() == b.Fingerprint(); got != (sameCore && sameFacts) {
				t.Fatalf("fingerprints equal = %v, canonical strings equal = %v:\n%q %q\n%q %q", got, sameCore && sameFacts, coreA, factsA, coreB, factsB)
			}
			if got := a.Fingerprint().Core == b.Fingerprint().Core; got != sameCore {
				t.Fatalf("core fingerprints equal = %v, canonical cores equal = %v:\n%q\n%q", got, sameCore, coreA, coreB)
			}
			if got := a.Fingerprint().Facts == b.Fingerprint().Facts; got != sameFacts {
				t.Fatalf("fact fingerprints equal = %v, canonical facts equal = %v:\n%q\n%q", got, sameFacts, factsA, factsB)
			}
		}
	}
	if equalPairs < 100 {
		t.Errorf("only %d equal pairs: the alphabet is too large to test equality", equalPairs)
	}
}
