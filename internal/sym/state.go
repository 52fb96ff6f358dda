package sym

import (
	"fmt"
	"sort"
	"strconv"
)

// State is an immutable program state: region bindings, per-symbol
// constraints (nullness, integer ranges), and arbitrary checker-owned
// fact domains (the analog of CSA's REGISTER_MAP_WITH_PROGRAMSTATE).
//
// All mutating operations return a new State; existing States are never
// modified, so States can be freely shared between exploded-graph nodes.
//
// A State has two halves, each with its own fingerprint: the core —
// bindings, nullness, ranges — which the engine reads and writes, and
// the facts checkers own. The core's tables are flat (sorted and
// pointer-free, so a fork copies one table the collector never scans);
// the facts are a map, since their values are arbitrary.
type State struct {
	bindings flat[RegionID, Value]
	nullness flat[SymbolID, Nullness]
	ranges   flat[SymbolID, Range]
	facts    map[factKey]any
	coreFP   Hash
	factsFP  Hash
}

type factKey struct {
	Domain string
	Key    string
}

// NewState returns the empty initial state.
func NewState() *State {
	return &State{}
}

// clone returns a shallow copy; the caller must replace (not mutate) any
// table or map it wants to change.
func (s *State) clone() *State {
	c := *s
	return &c
}

func cloneMap[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// BindRegion returns a state where region r holds value v.
func (s *State) BindRegion(r RegionID, v Value) *State {
	cur, ok := s.bindings.get(r)
	if ok && cur == v {
		return s
	}
	c := s.clone()
	c.bindings = s.bindings.with(r, v)
	if ok {
		c.coreFP = c.coreFP.sub(hashBinding(r, cur))
	}
	c.coreFP = c.coreFP.add(hashBinding(r, v))
	return c
}

// LookupRegion returns the value bound to region r.
func (s *State) LookupRegion(r RegionID) (Value, bool) {
	return s.bindings.get(r)
}

// WithNullness returns a state where symbol sym has the given nullness.
func (s *State) WithNullness(sym SymbolID, n Nullness) *State {
	if sym == NoSymbol {
		return s
	}
	cur, ok := s.nullness.get(sym)
	if ok && cur == n {
		return s
	}
	c := s.clone()
	c.nullness = s.nullness.with(sym, n)
	if ok {
		c.coreFP = c.coreFP.sub(hashNullness(sym, cur))
	}
	c.coreFP = c.coreFP.add(hashNullness(sym, n))
	return c
}

// NullnessOf returns what is known about v being null on this path.
func (s *State) NullnessOf(v Value) Nullness {
	switch v.Kind {
	case KindInt:
		if v.Int == 0 {
			return IsNull
		}
		return NotNull
	case KindLoc:
		return NotNull
	case KindSymbol:
		if n, ok := s.nullness.get(v.Sym); ok {
			return n
		}
		return MaybeNull
	default:
		return MaybeNull
	}
}

// WithRange returns a state constraining symbol sym to r.
func (s *State) WithRange(sym SymbolID, r Range) *State {
	if sym == NoSymbol {
		return s
	}
	cur, ok := s.ranges.get(sym)
	if ok && cur == r {
		return s
	}
	c := s.clone()
	c.ranges = s.ranges.with(sym, r)
	if ok {
		c.coreFP = c.coreFP.sub(hashRange(sym, cur))
	}
	c.coreFP = c.coreFP.add(hashRange(sym, r))
	return c
}

// RangeOf returns the interval constraint on v.
func (s *State) RangeOf(v Value) Range {
	switch v.Kind {
	case KindInt:
		return SingletonRange(v.Int)
	case KindSymbol:
		if r, ok := s.ranges.get(v.Sym); ok {
			return r
		}
		return FullRange
	default:
		return FullRange
	}
}

// --- checker fact domains ---

// SetFact returns a state where domain[key] = value. Values stored in
// fact domains must be immutable (comparable types recommended).
func (s *State) SetFact(domain, key string, value any) *State {
	fk := factKey{domain, key}
	cur, ok := s.facts[fk]
	if ok && cur == value {
		return s
	}
	c := s.clone()
	c.facts = cloneMap(s.facts)
	c.facts[fk] = value
	if ok {
		c.factsFP = c.factsFP.sub(hashFact(fk, cur))
	}
	c.factsFP = c.factsFP.add(hashFact(fk, value))
	return c
}

// Fact returns domain[key].
func (s *State) Fact(domain, key string) (any, bool) {
	v, ok := s.facts[factKey{domain, key}]
	return v, ok
}

// DelFact returns a state with domain[key] removed.
func (s *State) DelFact(domain, key string) *State {
	fk := factKey{domain, key}
	cur, ok := s.facts[fk]
	if !ok {
		return s
	}
	c := s.clone()
	c.facts = cloneMap(s.facts)
	delete(c.facts, fk)
	c.factsFP = c.factsFP.sub(hashFact(fk, cur))
	return c
}

// FactKeys returns the sorted keys present in a domain.
func (s *State) FactKeys(domain string) []string {
	var out []string
	for fk := range s.facts {
		if fk.Domain == domain {
			out = append(out, fk.Key)
		}
	}
	sort.Strings(out)
	return out
}

// --- convenience typed fact helpers for region-keyed domains ---

// RegionKey renders a RegionID as a fact key.
func RegionKey(r RegionID) string { return "r" + strconv.Itoa(int(r)) }

// SymbolKey renders a SymbolID as a fact key.
func SymbolKey(sy SymbolID) string { return "s" + strconv.Itoa(int(sy)) }

// SetRegionFact stores a fact keyed by region.
func (s *State) SetRegionFact(domain string, r RegionID, value any) *State {
	return s.SetFact(domain, RegionKey(r), value)
}

// RegionFact loads a fact keyed by region.
func (s *State) RegionFact(domain string, r RegionID) (any, bool) {
	return s.Fact(domain, RegionKey(r))
}

// DelRegionFact removes a fact keyed by region.
func (s *State) DelRegionFact(domain string, r RegionID) *State {
	return s.DelFact(domain, RegionKey(r))
}

// FactRegions returns the RegionIDs keyed in a domain, ascending.
func (s *State) FactRegions(domain string) []RegionID {
	var out []RegionID
	for fk := range s.facts {
		if fk.Domain != domain {
			continue
		}
		var r RegionID
		if _, err := fmt.Sscanf(fk.Key, "r%d", &r); err == nil {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Fingerprint identifies a state's content, split along the same line
// as the state: Core covers bindings, nullness and ranges, Facts the
// checker facts. Two states have equal fingerprints exactly when
// they hold the same entries (up to a 128-bit hash collision per half).
// The engine uses it to deduplicate exploded nodes (same block + same
// fingerprint = already visited).
type Fingerprint struct {
	Core, Facts Hash
}

// Fingerprint returns the state's content fingerprint. It is O(1): the
// mutators maintain both halves incrementally (see Hash).
func (s *State) Fingerprint() Fingerprint {
	return Fingerprint{Core: s.coreFP, Facts: s.factsFP}
}
