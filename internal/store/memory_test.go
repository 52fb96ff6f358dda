package store

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"knighter/internal/engine"
)

// TestMemoryLookupChecksTheGuessedSlot: a lookup tries the slots after
// its previous hit before the index, and a guess counts only when it
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
	if i, _ := m.find(d.Digest()); i != 4 {
		t.Fatalf("d stored in slot %d, want the freed slot 4", i)
	}
	checkGetMany(t, m, []Key{a, c, d}) // slot a+2 is d now, not c
	checkGetMany(t, m, []Key{a, d, c})
	checkMemory(t, m, "after lookups")
}

// TestMemoryIndexWrapsDeletesAndGrows drives the index through the cases
// a random workload seldom reaches: digests that share a tag and whose
// homes are the table's last cells, so that their cluster wraps past the
// end of the table and entries homed at its first cells sit behind them.
// It deletes from the middle, the head and the wrapped tail of such a
// cluster, overwrites, re-inserts, and doubles the table while the
// cluster wraps. After every step each live entry is found from its home
// (checkMemory) and GetMany answers exactly the live set, the deleted
// keys missing.
func TestMemoryIndexWrapsDeletesAndGrows(t *testing.T) {
	m := NewMemory(0)
	n := len(m.index)
	// dig is a digest under tag with serial k: entries that share a tag
	// differ only past it. Each entry is its own function, so it can be
	// deleted alone.
	dig := func(tag uint32, k int) Digest {
		var d Digest
		binary.LittleEndian.PutUint32(d[:4], tag)
		binary.LittleEndian.PutUint32(d[4:8], uint32(k))
		return d
	}
	fn := func(d Digest) string { return "f" + strconv.FormatUint(binary.LittleEndian.Uint64(d[:8]), 16) }
	live := map[Digest][]byte{}
	var gone []Digest
	put := func(d Digest, msg string) {
		p := Encode(result(msg))
		m.PutMany(bg, []Key{fkey(fn(d), "ck")}, []Digest{d}, [][]byte{p})
		live[d] = p
	}
	drop := func(d Digest) {
		if got := m.InvalidateFuncs([]string{fn(d)}); got != 1 {
			t.Fatalf("dropping %s removed %d entries", fn(d), got)
		}
		delete(live, d)
		gone = append(gone, d)
	}
	check := func(step string) {
		t.Helper()
		checkMemory(t, m, step)
		var ids []Digest
		for d := range live {
			ids = append(ids, d)
		}
		ids = append(ids, gone...)
		out := make([][]byte, len(ids))
		m.GetMany(bg, nil, ids, out)
		for i, d := range ids {
			want, ok := live[d]
			if got := out[i]; (got != nil) != ok || ok && &got[0] != &want[0] {
				t.Fatalf("%s: %s answered %v, live=%v, or not with its stored payload", step, fn(d), got != nil, ok)
			}
		}
	}
	// tagAt is the tag held in cell h, -1 for an empty cell.
	tagAt := func(h int) int64 {
		if m.index[h] == 0 {
			return -1
		}
		return int64(m.index[h] >> 32)
	}

	const last, prev = 1<<32 - 1, 1<<32 - 2 // homes: the last two cells, at any size
	b1 := dig(prev, 1)
	a := []Digest{dig(last, 1), dig(last, 2), dig(last, 3), dig(last, 4)}
	c, d := dig(0, 1), dig(1, 1) // homes 0 and 1, behind the wrapped cluster
	put(b1, "b1")
	for i, id := range a {
		put(id, "a"+strconv.Itoa(i))
	}
	put(c, "c")
	put(d, "d")
	// Cells n-2 .. 4: b1, a0, a1, a2, a3, c, d.
	if tagAt(n-2) != prev || tagAt(n-1) != last || tagAt(0) != last || tagAt(2) != last || tagAt(3) != 0 || tagAt(4) != 1 {
		t.Fatalf("cluster not laid out across the wrap")
	}
	check("wrapped")
	drop(a[1]) // cell 0: a2, a3, c and d shift back one cell each
	check("middle of the wrap deleted")
	drop(b1) // the cluster's head: nothing may move into a cell before its home
	check("head deleted")
	drop(a[0]) // cell n-1: the wrapped tail shifts back across the end
	check("cell before the wrap deleted")
	if tagAt(n-1) != last || tagAt(1) != 0 || tagAt(2) != 1 {
		t.Fatalf("wrapped tail did not shift back across the end")
	}
	put(a[2], "a2 again") // overwrite: still one cell
	check("overwritten")
	put(a[1], "a1 again")
	put(b1, "b1 again")
	check("re-inserted")

	// Fill to the table's 3/4 load and one past it, with tags spread
	// over the middle cells, so the table doubles while the cluster wraps.
	for k := 0; len(m.index) == n; k++ {
		put(dig(uint32(16+k*(n-32)/(3*n/4)), k), "filler")
	}
	// The rehash moves cells in table order: a3 (old cell 0) takes the
	// new last cell, c and d their homes 0 and 1, and a1 and a2 wrap
	// behind them into cells 2 and 3.
	n = len(m.index)
	if tagAt(n-1) != last || tagAt(0) != 0 || tagAt(1) != 1 || tagAt(2) != last || tagAt(3) != last {
		t.Fatalf("cluster under the last tag no longer wraps after growing to %d cells", n)
	}
	check("grown")
	drop(d) // cell 1: a1 and a2 shift back past their homes' wrap
	check("wrapped tail deleted after growing")
	drop(a[3]) // cell n-1: a1 shifts back across the end, over c at home
	check("cell before the wrap deleted after growing")
	if tagAt(n-1) != last || tagAt(0) != 0 || tagAt(1) != last || tagAt(2) != -1 {
		t.Fatalf("wrapped tail did not shift back across the end after growing")
	}
	put(d, "d again")
	check("re-inserted after growing")
}

// longestRun is the longest run of occupied cells in m's index: what a
// probe for a missing key may walk, and a bound on any hit's.
func longestRun(m *Memory) int {
	longest, run := 0, 0
	// Twice round, so that a run wrapping past the table's end counts whole.
	for k := range 2 * len(m.index) {
		if m.index[k%len(m.index)] == 0 {
			run = 0
			continue
		}
		if run++; run > longest {
			longest = run
		}
	}
	return min(longest, len(m.index))
}

// TestMemoryIndexSpreadsFunctionsAndRiders stores one function under
// 4096 riders, then 4096 functions under one rider, and bounds the
// index's longest probe run after each: the tag (tagOf) must be as
// uniform when a series of keys holds the function fixed as when it
// holds the rider fixed. At the index's load of one half here, uniform
// tags leave runs of 31 and 37 cells; a digest that began with the
// function half alone would give the first 4096 entries one tag, and
// one run as long.
func TestMemoryIndexSpreadsFunctionsAndRiders(t *testing.T) {
	const n = 4096
	m := NewMemory(0)
	put := func(k Key) { m.PutMany(bg, []Key{k}, []Digest{k.Digest()}, encodeAll(result("r"))) }
	for r := range n {
		put(Key{FuncHash: Hash("fn"), CheckerFP: Hash("ck", strconv.Itoa(r)), EngineFP: "eng"})
	}
	if run := longestRun(m); run > 64 {
		t.Fatalf("one function under %d riders: longest probe run %d cells of %d, want <= 64", n, run, len(m.index))
	}
	for f := range n {
		put(Key{FuncHash: Hash("fn", strconv.Itoa(f)), CheckerFP: Hash("ck"), EngineFP: "eng"})
	}
	if run := longestRun(m); run > 64 {
		t.Fatalf("then %d functions under one rider: longest probe run %d cells of %d, want <= 64", n, run, len(m.index))
	}
	if st := m.Stats(); st.Entries != 2*n || st.Evictions != 0 {
		t.Fatalf("%d entries, %d evictions; want %d, none", st.Entries, st.Evictions, 2*n)
	}
	checkMemory(t, m, "after the spread")
}

// TestMemoryResidencyMatchesWeight pins entryOverhead to what an entry
// keeps resident: a tier filled the way a cold sweep fills one — 250k
// report-free results of 1 558 functions under successive checker
// revisions, each payload its own allocation — must grow the live heap
// by its entries' weight, within 15 %. The index's share swings with its
// load, which 250k entries put midway between the 3/8 and 3/4 bounds.
func TestMemoryResidencyMatchesWeight(t *testing.T) {
	const entries, funcs = 250_000, 1558
	fhs := make([]string, funcs)
	for f := range fhs {
		fhs[f] = Hash("func", strconv.Itoa(f))
	}
	keys, ids, ps := make([]Key, 0, 64), make([]Digest, 0, 64), make([][]byte, 0, 64)
	var rev string
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMemory(1 << 30)
	for i := 0; i < entries; i++ {
		if i%funcs == 0 {
			rev = Hash("rev", strconv.Itoa(i/funcs))
		}
		k := Key{FuncHash: fhs[i%funcs], CheckerFP: rev, EngineFP: "e"}
		keys, ids = append(keys, k), append(ids, k.Digest())
		ps = append(ps, Encode(&engine.Result{Paths: 1, Steps: i % 50}))
		if len(keys) == cap(keys) || i == entries-1 {
			m.PutMany(bg, keys, ids, ps)
			keys, ids, ps = keys[:0], ids[:0], ps[:0]
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := m.Stats()
	if st.Entries != entries || st.Evictions != 0 {
		t.Fatalf("filled %d entries with %d evictions, want %d and none", st.Entries, st.Evictions, entries)
	}
	resident := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / entries
	w := float64(st.Bytes) / entries
	t.Logf("%.1f B resident, %.1f B weight per entry (%d index cells)", resident, w, len(m.index))
	if resident < 0.85*w || resident > 1.15*w {
		t.Fatalf("an entry keeps %.1f B resident but weighs %.1f B: entryOverhead is off by more than 15 %%", resident, w)
	}
	runtime.KeepAlive(m)
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
// in random 64-key ranges, so every key takes the index: the cost of
// the fallback; "absent" probes keys the tier does not hold, as a cold
// sweep's every probe is, so every key walks its cluster to an empty
// cell.
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
	var absent [][]Key
	for _, keys := range ranges {
		miss := make([]Key, len(keys))
		for i, k := range keys {
			miss[i] = fkey(k.FuncHash, "absent-"+k.CheckerFP)
		}
		absent = append(absent, miss)
	}
	for _, bc := range []struct {
		name   string
		m      *Memory
		ranges [][]Key
		hit    bool
	}{{"stored", stored, ranges, true}, {"batch", batch, ranges, true}, {"shuffled", stored, shuffled, true}, {"absent", stored, absent, false}} {
		ids := make([][]Digest, len(bc.ranges))
		for i, keys := range bc.ranges {
			ids[i] = digests(keys)
		}
		before := bc.m.Stats()
		b.Run(bc.name, func(b *testing.B) {
			out := make([][]byte, rangeSize)
			for i := 0; i < b.N; i++ {
				for j, keys := range bc.ranges {
					bc.m.GetMany(bg, keys, ids[j], out[:len(keys)])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(all)), "ns/key")
		})
		st := bc.m.Stats()
		if hits, misses := st.Hits-before.Hits, st.Misses-before.Misses; bc.hit && misses != 0 || !bc.hit && hits != 0 {
			b.Fatalf("%s: %d hits and %d misses, want all hits: %v", bc.name, hits, misses, bc.hit)
		}
	}
}

// BenchmarkMemoryPutMany stores one checker revision's results over
// 1 558 functions, as 64-key ranges of new keys, into a tier that
// already holds ≈ 300k entries: a cold sweep's put. Each iteration's
// keys, digests and payloads are made, and its entries dropped again,
// with the timer stopped, so the resident population is the prefill's
// for any b.N.
func BenchmarkMemoryPutMany(b *testing.B) {
	const funcs, rangeSize = 1558, 64
	m := NewMemory(1 << 30)
	revision := func(prefix, fp string) (keys []Key, ids []Digest, ps [][]byte) {
		for f := 0; f < funcs; f++ {
			keys = append(keys, fkey(prefix+strconv.Itoa(f), fp))
			ps = append(ps, Encode(&engine.Result{Paths: 1, Steps: f % 50}))
		}
		return keys, digests(keys), ps
	}
	for rev := 0; rev < 300_000/funcs; rev++ {
		keys, ids, ps := revision("p", "prefill-"+strconv.Itoa(rev))
		m.PutMany(bg, keys, ids, ps)
	}
	resident := m.Stats().Entries
	var hashes []string
	for f := 0; f < funcs; f++ {
		hashes = append(hashes, "f"+strconv.Itoa(f))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		keys, ids, ps := revision("f", "ck"+strconv.Itoa(i))
		b.StartTimer()
		for lo := 0; lo < funcs; lo += rangeSize {
			hi := min(lo+rangeSize, funcs)
			m.PutMany(bg, keys[lo:hi], ids[lo:hi], ps[lo:hi])
		}
		b.StopTimer()
		m.InvalidateFuncs(hashes)
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*funcs), "ns/key")
	if st := m.Stats(); st.Entries != resident || st.Evictions != 0 {
		b.Fatalf("%d entries resident after the puts, %d before, %d evictions", st.Entries, resident, st.Evictions)
	}
}
