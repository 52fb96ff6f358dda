package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/engine"
	"knighter/internal/minic"
)

func key(n byte) Key {
	return Key{FuncHash: string([]byte{'f', n}), CheckerFP: "ck", EngineFP: "eng"}
}

func result(msg string) *engine.Result {
	return &engine.Result{
		Reports: []*checker.Report{{
			Checker: "knighter.t", BugType: "T", Message: msg,
			File: "a.c", Func: "f", Pos: minic.Pos{File: "a.c", Line: 3, Col: 1},
			Trace: []checker.TraceStep{{Pos: minic.Pos{File: "a.c", Line: 2, Col: 1}, Note: "assuming 'p' is true"}},
		}},
		RuntimeErrs: []engine.RuntimeErr{{Func: "f", Checker: "knighter.t", Panic: "boom"}},
	}
}

// encodeAll returns the payloads of rs, in order.
func encodeAll(rs ...*engine.Result) [][]byte {
	ps := make([][]byte, len(rs))
	for i, r := range rs {
		ps[i] = Encode(r)
	}
	return ps
}

// putOne is a one-key put through any tier's range method.
func putOne(s Store, k Key, r *engine.Result) {
	s.PutMany(bg, []Key{k}, []Digest{k.Digest()}, [][]byte{Encode(r)})
}

// weighOf is the weight the memory tier charges for r.
func weighOf(r *engine.Result) int64 { return weight(Encode(r)) }

func TestHashSeparatesParts(t *testing.T) {
	if Hash("ab", "c") == Hash("a", "bc") {
		t.Fatal("Hash does not separate parts")
	}
	if Hash("x") != Hash("x") {
		t.Fatal("Hash is not deterministic")
	}
}

func TestKeyIDVariesPerComponent(t *testing.T) {
	base := Key{FuncHash: "f", CheckerFP: "c", EngineFP: "e"}
	for _, k := range []Key{
		{FuncHash: "g", CheckerFP: "c", EngineFP: "e"},
		{FuncHash: "f", CheckerFP: "d", EngineFP: "e"},
		{FuncHash: "f", CheckerFP: "c", EngineFP: "x"},
	} {
		if k.ID() == base.ID() {
			t.Fatalf("key %+v collides with base", k)
		}
	}
}

// Key.ID is the address on the kcached wire and in every segment log:
// it must stay the v2 construction — the function half is the first 16
// bytes of the sha256 of "key:v2:func\x00" and the function hash, the
// rider half those of "key:v2:rider\x00", the checker fingerprint, a
// NUL and the engine fingerprint, and the digest is their XOR followed
// by the function half — for short keys and for keys longer than the
// halves' stack buffers.
func TestKeyIDIsV2Address(t *testing.T) {
	for _, k := range []Key{
		{FuncHash: "f", CheckerFP: "c", EngineFP: "e"},
		{FuncHash: Hash("f"), CheckerFP: Hash("c"), EngineFP: Hash("e")},
		{FuncHash: strings.Repeat("f", 300), CheckerFP: strings.Repeat("c", 100), EngineFP: strings.Repeat("e", 90)},
	} {
		fn := sha256.Sum256([]byte("key:v2:func\x00" + k.FuncHash))
		rider := sha256.Sum256([]byte("key:v2:rider\x00" + k.CheckerFP + "\x00" + k.EngineFP))
		var want Digest
		for i := 0; i < 16; i++ {
			want[i], want[16+i] = fn[i]^rider[i], fn[i]
		}
		if got := k.ID(); got != hex.EncodeToString(want[:]) || k.Digest() != want {
			t.Fatalf("key %.40q: ID %s, want %x", k.FuncHash, got, want)
		}
		if PairDigest(FuncPart(k.FuncHash), RiderPart(k.CheckerFP, k.EngineFP)) != want {
			t.Fatalf("key %.40q: PairDigest of its halves is not its Digest", k.FuncHash)
		}
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory(0)
	if _, ok := m.Get(bg, key(1)); ok {
		t.Fatal("empty store hit")
	}
	m.Put(bg, key(1), result("one"))
	got, ok := m.Get(bg, key(1))
	if !ok {
		t.Fatal("miss after put")
	}
	want, _ := json.Marshal(result("one"))
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		t.Fatalf("round trip mismatch:\n%s\n%s", want, have)
	}
	s := m.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMemoryGetReturnsIndependentClone(t *testing.T) {
	m := NewMemory(0)
	m.Put(bg, key(1), result("one"))
	got, _ := m.Get(bg, key(1))
	got.Reports = got.Reports[:0] // caller truncates its copy
	got.RuntimeErrs = append(got.RuntimeErrs, engine.RuntimeErr{Func: "x"})
	again, _ := m.Get(bg, key(1))
	if len(again.Reports) != 1 || len(again.RuntimeErrs) != 1 {
		t.Fatalf("cached entry corrupted by caller mutation: %+v", again)
	}
}

func TestMemoryLRUEvictionByWeight(t *testing.T) {
	// All three results serialize to the same size; budget two of them
	// (plus slack smaller than a third), so the third Put must evict the
	// least recently used entry.
	w := weighOf(result("1"))
	m := NewMemory(2*w + w/2)
	m.Put(bg, key(1), result("1"))
	m.Put(bg, key(2), result("2"))
	m.Get(bg, key(1)) // 1 is now most recently used
	m.Put(bg, key(3), result("3"))
	if _, ok := m.Get(bg, key(2)); ok {
		t.Fatal("LRU entry 2 should have been evicted")
	}
	if _, ok := m.Get(bg, key(1)); !ok {
		t.Fatal("recently used entry 1 evicted")
	}
	if _, ok := m.Get(bg, key(3)); !ok {
		t.Fatal("new entry 3 missing")
	}
	if s := m.Stats(); s.Evictions != 1 || s.Entries != 2 || s.Bytes != 2*w {
		t.Fatalf("stats = %+v, want 2 entries weighing %d", s, 2*w)
	}
}

func TestMemoryWeightAccounting(t *testing.T) {
	m := NewMemory(0)
	w1 := weighOf(result("one"))
	m.Put(bg, key(1), result("one"))
	if s := m.Stats(); s.Bytes != w1 {
		t.Fatalf("bytes after one put = %d, want %d", s.Bytes, w1)
	}
	// Overwriting an entry replaces its weight, not adds to it.
	w2 := weighOf(result("a-rather-longer-message"))
	m.Put(bg, key(1), result("a-rather-longer-message"))
	if s := m.Stats(); s.Bytes != w2 || s.Entries != 1 {
		t.Fatalf("bytes after overwrite = %+v, want %d in 1 entry", s, w2)
	}
	// Invalidation returns the weight to the budget.
	m.InvalidateFuncs([]string{key(1).FuncHash})
	if s := m.Stats(); s.Bytes != 0 || s.Entries != 0 {
		t.Fatalf("bytes after invalidation = %+v, want empty", s)
	}
}

func TestMemoryKeepsOversizedNewestEntry(t *testing.T) {
	// An entry bigger than the whole budget still caches (evicting
	// everything else): refusing it would disable caching for exactly the
	// most expensive functions.
	m := NewMemory(1)
	m.Put(bg, key(1), result("huge"))
	if _, ok := m.Get(bg, key(1)); !ok {
		t.Fatal("oversized entry rejected outright")
	}
	m.Put(bg, key(2), result("also-huge"))
	if _, ok := m.Get(bg, key(1)); ok {
		t.Fatal("over-budget tier kept two entries")
	}
	if _, ok := m.Get(bg, key(2)); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestMemoryBulkInvalidateOnePass(t *testing.T) {
	m := NewMemory(0)
	m.Put(bg, Key{FuncHash: "fA", CheckerFP: "c1", EngineFP: "e"}, result("a1"))
	m.Put(bg, Key{FuncHash: "fA", CheckerFP: "c2", EngineFP: "e"}, result("a2"))
	m.Put(bg, Key{FuncHash: "fB", CheckerFP: "c1", EngineFP: "e"}, result("b"))
	m.Put(bg, Key{FuncHash: "fC", CheckerFP: "c1", EngineFP: "e"}, result("c"))
	if n := m.InvalidateFuncs([]string{"fA", "fC", "no-such-hash"}); n != 3 {
		t.Fatalf("bulk invalidation dropped %d entries, want 3", n)
	}
	if _, ok := m.Get(bg, Key{FuncHash: "fB", CheckerFP: "c1", EngineFP: "e"}); !ok {
		t.Fatal("unrelated entry dropped by bulk invalidation")
	}
	if s := m.Stats(); s.Invalidated != 3 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestMemorySlabGrowsWithoutMovingSlots fills the tier across several
// slab chunks: slots keep their addresses as chunks are added, the books
// and rings stay whole, every entry reads back, and slots freed by an
// invalidation are reused before the slab grows again.
func TestMemorySlabGrowsWithoutMovingSlots(t *testing.T) {
	m := NewMemory(0)
	k := func(i int) Key {
		return Key{FuncHash: fmt.Sprintf("f%d", i%700), CheckerFP: fmt.Sprint(i), EngineFP: "e"}
	}
	first := m.at(0)
	const n = 2*slabChunk + 10
	for i := 0; i < n; i++ {
		m.Put(bg, k(i), result(k(i).CheckerFP))
	}
	checkMemory(t, m, "filled")
	if len(m.slab) != 3 || m.at(0) != first {
		t.Fatalf("%d entries in %d chunks; slot 0 moved: %v", n, len(m.slab), m.at(0) != first)
	}
	for i := 0; i < n; i++ {
		if r, ok := m.Get(bg, k(i)); !ok || r.Reports[0].Message != k(i).CheckerFP {
			t.Fatalf("entry %d did not read back", i)
		}
	}
	slots := m.nslots
	dropped := m.InvalidateFuncs([]string{"f1", "f2", "f3"})
	for i := 0; i < dropped; i++ {
		m.Put(bg, k(n+i), result("again"))
	}
	checkMemory(t, m, "refilled")
	if m.nslots != slots {
		t.Fatalf("%d puts after freeing %d slots grew the slab from %d to %d", dropped, dropped+3, slots, m.nslots)
	}
}

// Hashing, encoding and decoding run outside the tier's mutex, and a Get
// decodes a payload whose slot may be evicted and reused meanwhile:
// concurrent puts, gets and invalidations under a budget that evicts
// constantly must hand back only results that were put and leave
// consistent books (run it under -race).
func TestMemoryConcurrentOps(t *testing.T) {
	m := NewMemory(4 * weighOf(result("f\x00")))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := key(byte(i % 8))
				switch (i + w) % 4 {
				case 0, 1:
					m.Put(bg, k, result(k.FuncHash))
				case 2:
					if r, ok := m.Get(bg, k); ok && r.Reports[0].Message != k.FuncHash {
						t.Errorf("Get(%q) returned the result put under %q", k.FuncHash, r.Reports[0].Message)
						return
					}
				case 3:
					m.InvalidateFuncs([]string{k.FuncHash})
				}
			}
		}(w)
	}
	wg.Wait()
	checkMemory(t, m, "after concurrent ops")
}

func TestStatsHitRate(t *testing.T) {
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty stats hit rate")
	}
	s := Stats{Hits: 9, Misses: 1}
	if r := s.HitRate(); r != 0.9 {
		t.Fatalf("hit rate = %v", r)
	}
}
