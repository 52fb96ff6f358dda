package sym

import "fmt"

// Hash is a 128-bit order-independent digest of a set of keyed entries:
// the lane-wise sum of one hash per entry. A set hash rather than an
// interned canonical form because the mutators can maintain it — adding
// an entry adds its hash, overwriting or deleting one subtracts the old
// hash first — so a state pays O(entries changed), never O(entries
// held), and no frame renders or sorts its state. Equal sums mean equal
// sets up to a collision of two independent 64-bit lanes.
//
// Each entry hashes exactly what the former canonical string printed for
// it ("b<region>=<value>", "n<sym>=<nullness>", "g<sym>=<min>:<max>",
// "f<domain>/<key>=<%v of value>"), so the partition of states is the
// one that string induced.
type Hash struct{ a, b uint64 }

func (h Hash) add(e Hash) Hash { return Hash{h.a + e.a, h.b + e.b} }
func (h Hash) sub(e Hash) Hash { return Hash{h.a - e.a, h.b - e.b} }

// The lanes run different finalizers (splitmix64's and murmur3's) from
// different seeds, so neither is a function of the other.
func mixA(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func mixB(x uint64) uint64 {
	x = (x ^ x>>33) * 0xff51afd7ed558ccd
	x = (x ^ x>>33) * 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// hashWords hashes a tagged tuple of integers.
func hashWords(tag byte, words ...uint64) Hash {
	h := Hash{0x9e3779b97f4a7c15 + uint64(tag), 0xd6e8feb86659fd93 + uint64(tag)}
	for _, w := range words {
		h = Hash{mixA(h.a ^ w), mixB(h.b + w)}
	}
	return h
}

func hashBinding(r RegionID, v Value) Hash {
	// Value.String prints only the payload its kind selects.
	payload := [...]uint64{KindUnknown: 0, KindInt: uint64(v.Int), KindSymbol: uint64(v.Sym), KindLoc: uint64(v.Reg)}[v.Kind]
	return hashWords('b', uint64(r), uint64(v.Kind), payload)
}

func hashNullness(s SymbolID, n Nullness) Hash { return hashWords('n', uint64(s), uint64(n)) }

func hashRange(s SymbolID, r Range) Hash {
	return hashWords('g', uint64(s), uint64(r.Min), uint64(r.Max))
}

// hashFact hashes the bytes of "<domain>/<key>=<value>". Checker facts
// are strings in practice; any other value goes through fmt once, when
// the fact is set or dropped, not once per frame.
func hashFact(fk factKey, value any) Hash {
	v, ok := value.(string)
	if !ok {
		v = fmt.Sprint(value)
	}
	h := Hash{0xcbf29ce484222325, 0x84222325cbf29ce4}
	for _, part := range [...]string{fk.Domain, "/", fk.Key, "=", v} {
		for i := 0; i < len(part); i++ {
			h = Hash{(h.a ^ uint64(part[i])) * 0x100000001b3, (h.b + uint64(part[i])) * 0x9e3779b97f4a7c15}
		}
	}
	return Hash{mixA(h.a), mixB(h.b)}
}
