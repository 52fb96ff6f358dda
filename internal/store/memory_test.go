package store

import (
	"math/rand"
	"strconv"
	"testing"

	"knighter/internal/engine"
)

// TestMemoryLookupChecksTheGuessedSlot: a lookup tries the slots after
// its previous hit before the id index, and a guess counts only when it
// holds the live entry of the probed key. Here the slot after a hit is
// a sentinel, a freed slot, and a freed slot reused by a different key;
// checkGetMany compares every answer with the payload the index holds.
func TestMemoryLookupChecksTheGuessedSlot(t *testing.T) {
	m := NewMemory(0)
	a, b, c := fkey("fA", "ck"), fkey("fB", "ck"), fkey("fC", "ck")
	rs := []*engine.Result{result("a"), result("b"), result("c")}
	// Slots 1..6: fA's sentinel, a, fB's sentinel, b, fC's sentinel, c.
	keys := []Key{a, b, c}
	m.PutMany(bg, keys, digests(keys), encodeAll(rs...))
	checkGetMany(t, m, []Key{a, b, c}) // stored order: sentinels in between
	checkGetMany(t, m, []Key{a, c, b}) // slot a+2 is b, not c
	checkGetMany(t, m, []Key{b, a, c}) // a is not after b, nor c after a

	m.InvalidateFuncs([]string{"fB"})  // frees slots 3 and 4
	checkGetMany(t, m, []Key{a, b, c}) // the slots after a are free

	d := fkey("fD", "ck")
	m.Put(bg, d, result("d")) // fD's sentinel in slot 3, d in slot 4
	if i := m.ids[d.Digest()]; i != 4 {
		t.Fatalf("d stored in slot %d, want the freed slot 4", i)
	}
	checkGetMany(t, m, []Key{a, c, d}) // slot a+2 is d now, not c
	checkGetMany(t, m, []Key{a, d, c})
	checkMemory(t, m, "after lookups")
}

// TestMemoryLookupChecksTheStep: several checkers' results stored
// function by function are probed checker by checker, a fixed step
// apart; once a step repeats it is guessed, and where it lands on
// another key, or outside the slab, it must not answer for the probed
// one.
func TestMemoryLookupChecksTheStep(t *testing.T) {
	m := NewMemory(0)
	var keys []Key
	var rs []*engine.Result
	for _, fh := range []string{"fA", "fB", "fC", "fD"} {
		for _, ck := range []string{"c1", "c2"} {
			keys = append(keys, fkey(fh, ck))
			rs = append(rs, result(fh+ck))
		}
	}
	// Slots 1..12: fA's sentinel, a1, a2, fB's sentinel, b1, b2, ...
	m.PutMany(bg, keys, digests(keys), encodeAll(rs...))
	a1, a2, b1, b2, c1, c2, d1, d2 := keys[0], keys[1], keys[2], keys[3], keys[4], keys[5], keys[6], keys[7]
	checkGetMany(t, m, []Key{a1, b1, c1, d1}) // step 3
	checkGetMany(t, m, []Key{a2, b2, c2, d2})
	checkGetMany(t, m, []Key{a1, b1, c1, d2})     // c1+3 is d1, not d2
	checkGetMany(t, m, []Key{d1, c1, b1, a2})     // b1-3 is a1, not a2
	checkGetMany(t, m, []Key{d1, c1, b1, a1, b2}) // a1-3 is outside the slab
	checkGetMany(t, m, []Key{b2, c2, d2, a1})     // d2+3 is past the last slot

	m.InvalidateFuncs([]string{"fC"}) // frees slots 7..9
	checkGetMany(t, m, []Key{a1, b1, c1, d1})
	checkMemory(t, m, "after lookups")
}

// BenchmarkMemoryGetMany probes a warm tier the way a re-scan does: 12
// riders × 1 558 functions, 64 functions per range, every range probed
// with one GetMany per rider. "stored" stores a range per rider, as
// one-checker scans do, so each hit sits next to the previous one;
// "batch" stores each range function by function with all riders
// together, as a cold multi-checker /batch does, so each hit sits a
// fixed step past the previous one; "shuffled" probes the "stored" tier
// in random 64-key ranges, so every key takes the id index: the cost of
// the fallback.
func BenchmarkMemoryGetMany(b *testing.B) {
	const riders, funcs, rangeSize = 12, 1558, 64
	put := func(m *Memory, keys []Key) {
		rs := make([]*engine.Result, len(keys))
		for i := range rs {
			rs[i] = &engine.Result{Paths: 1, Steps: i % 50}
		}
		m.PutMany(bg, keys, digests(keys), encodeAll(rs...))
	}
	stored, batch := NewMemory(0), NewMemory(0)
	var ranges [][]Key
	for lo := 0; lo < funcs; lo += rangeSize {
		hi := min(lo+rangeSize, funcs)
		var together []Key
		for f := lo; f < hi; f++ {
			for r := 0; r < riders; r++ {
				together = append(together, fkey("f"+strconv.Itoa(f), "ck"+strconv.Itoa(r)))
			}
		}
		put(batch, together)
		for r := 0; r < riders; r++ {
			keys := make([]Key, 0, hi-lo)
			for f := lo; f < hi; f++ {
				keys = append(keys, fkey("f"+strconv.Itoa(f), "ck"+strconv.Itoa(r)))
			}
			put(stored, keys)
			ranges = append(ranges, keys)
		}
	}
	var all []Key
	for _, keys := range ranges {
		all = append(all, keys...)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	var shuffled [][]Key
	for lo := 0; lo < len(all); lo += rangeSize {
		shuffled = append(shuffled, all[lo:min(lo+rangeSize, len(all))])
	}
	for _, bc := range []struct {
		name   string
		m      *Memory
		ranges [][]Key
	}{{"stored", stored, ranges}, {"batch", batch, ranges}, {"shuffled", stored, shuffled}} {
		ids := make([][]Digest, len(bc.ranges))
		for i, keys := range bc.ranges {
			ids[i] = digests(keys)
		}
		b.Run(bc.name, func(b *testing.B) {
			out := make([][]byte, rangeSize)
			for i := 0; i < b.N; i++ {
				for j, keys := range bc.ranges {
					bc.m.GetMany(bg, keys, ids[j], out[:len(keys)])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(all)), "ns/key")
		})
		if st := bc.m.Stats(); st.Misses != 0 {
			b.Fatalf("%s: %d misses on a tier holding every probed key", bc.name, st.Misses)
		}
	}
}
