package store

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/engine"
	"knighter/internal/minic"
)

// fuzzResult builds results of varying serialized size from a variant
// byte, so the weight accounting sees entries of different weights.
func fuzzResult(variant byte) *engine.Result {
	msg := strings.Repeat("x", 1+int(variant)%97)
	return &engine.Result{
		Reports: []*checker.Report{{
			Checker: "fz", BugType: "T", Message: msg,
			File: "a.c", Func: "f", Pos: minic.Pos{File: "a.c", Line: int(variant), Col: 1},
		}},
	}
}

// checkMemory verifies the slab's structure: the LRU ring walked from
// the head and from the tail agree, the index's cells and the LRU ring
// are a bijection — each cell tagged with its slot's digest, each entry
// found from its home, at most 3/4 of the cells in use — the
// per-function rings hold exactly the live entries with
// intact back links, free slots are reachable from no ring, every slot
// is accounted for in full chunks, and the byte total is the sum of live
// weights within budget.
func checkMemory(t *testing.T, m *Memory, op string) {
	t.Helper()
	if n := int(m.nslots); n > len(m.slab)*slabChunk || n <= (len(m.slab)-1)*slabChunk {
		t.Fatalf("%s: %d slots in %d chunks of %d", op, n, len(m.slab), slabChunk)
	}
	s := make([]slot, m.nslots)
	for i := range s {
		s[i] = *m.at(int32(i))
	}
	var fwd, bwd []int32
	for i := s[0].next; i != 0 && len(fwd) < len(s); i = s[i].next {
		fwd = append(fwd, i)
	}
	for i := s[0].prev; i != 0 && len(bwd) < len(s); i = s[i].prev {
		bwd = append(bwd, i)
	}
	if len(fwd) != len(bwd) || len(fwd) == len(s) {
		t.Fatalf("%s: LRU ring broken: %d slots from the head, %d from the tail", op, len(fwd), len(bwd))
	}
	live := map[int32]bool{}
	var bytes int64
	for k, i := range fwd {
		if bwd[len(bwd)-1-k] != i {
			t.Fatalf("%s: LRU walks disagree at position %d", op, k)
		}
		e := s[i]
		if live[i] || e.fn <= 0 || s[e.fn].fn != e.fn {
			t.Fatalf("%s: LRU slot %d is repeated or has no function sentinel (fn=%d)", op, i, e.fn)
		}
		if j, ok := m.find(e.id); !ok || j != i {
			t.Fatalf("%s: LRU slot %d not found in the index (found %d, %v)", op, i, j, ok)
		}
		if _, err := decodeResult(e.payload); err != nil {
			t.Fatalf("%s: slot %d payload does not decode: %v", op, i, err)
		}
		live[i] = true
		bytes += weight(e.payload)
	}
	cells := map[int32]bool{}
	for h, c := range m.index {
		if c == 0 {
			continue
		}
		i := int32(uint32(c))
		if !live[i] || cells[i] || uint32(c>>32) != tagOf(s[i].id) {
			t.Fatalf("%s: index cell %d (slot %d) is not one live entry's, under its digest's tag", op, h, i)
		}
		cells[i] = true
	}
	if len(cells) != len(live) || m.n != len(live) {
		t.Fatalf("%s: index has %d cells, n=%d, LRU ring %d entries", op, len(cells), m.n, len(live))
	}
	if n := len(m.index); n&(n-1) != 0 || 4*len(cells) > 3*n {
		t.Fatalf("%s: %d cells in use of %d: not a power of two, or over 3/4 load", op, len(cells), n)
	}
	inFunc := map[int32]bool{}
	for fh, f := range m.funcs {
		if s[f].fn != f || string(s[f].payload) != fh {
			t.Fatalf("%s: funcs[%q] = %d is not that function's sentinel", op, fh, f)
		}
		prev := f
		for i := s[f].fnext; i != f; i = s[i].fnext {
			if s[i].fprev != prev {
				t.Fatalf("%s: function %q ring: slot %d fprev=%d, want %d", op, fh, i, s[i].fprev, prev)
			}
			if !live[i] || inFunc[i] || s[i].fn != f {
				t.Fatalf("%s: function %q ring holds slot %d that is not its live entry", op, fh, i)
			}
			inFunc[i], prev = true, i
		}
		if s[f].fprev != prev || prev == f {
			t.Fatalf("%s: function %q ring is empty or its tail link is stale", op, fh)
		}
	}
	if len(inFunc) != len(live) {
		t.Fatalf("%s: function rings hold %d entries, LRU ring %d", op, len(inFunc), len(live))
	}
	free := map[int32]bool{}
	for i := m.free; i >= 0; i = s[i].next {
		if free[i] || live[i] || s[i].fn != -1 || s[i].payload != nil {
			t.Fatalf("%s: free slot %d is repeated, live, or not cleared", op, i)
		}
		free[i] = true
	}
	if 1+len(live)+len(m.funcs)+len(free) != len(s) {
		t.Fatalf("%s: %d slots but root + %d live + %d sentinels + %d free", op, len(s), len(live), len(m.funcs), len(free))
	}
	if bytes != m.bytes {
		t.Fatalf("%s: byte total %d != sum of live weights %d", op, m.bytes, bytes)
	}
	if m.bytes > m.maxBytes && m.n > 1 {
		t.Fatalf("%s: over budget (%d > %d) with %d entries", op, m.bytes, m.maxBytes, m.n)
	}
	if st := m.Stats(); st.Bytes != bytes || st.Entries != len(live) {
		t.Fatalf("%s: Stats()=%+v disagrees with live set (%d bytes, %d entries)", op, st, bytes, len(live))
	}
}

// lruIDs lists the live entries' digests, most recently used first.
func lruIDs(m *Memory) []Digest {
	var ids []Digest
	for i := m.at(0).next; i != 0; i = m.at(i).next {
		ids = append(ids, m.at(i).id)
	}
	return ids
}

// checkGetMany runs m.GetMany(keys) and checks it against sequential
// Gets in key order: the same LRU order afterwards, one hit or miss per
// key in the books, and a payload exactly for the keys that were present,
// each the slice the index held for the key's digest before the call:
// the stored bytes themselves, not a copy.
func checkGetMany(t *testing.T, m *Memory, keys []Key) {
	t.Helper()
	want, before := lruIDs(m), m.Stats()
	stored := make([][]byte, len(keys)) // nil for a key that was absent
	ids := make([]Digest, len(keys))
	hits := int64(0)
	for i, k := range keys {
		d := k.Digest()
		ids[i] = d
		if at := slices.Index(want, d); at >= 0 {
			want = append([]Digest{d}, slices.Delete(want, at, at+1)...)
			j, _ := m.find(d)
			stored[i] = m.at(j).payload
			hits++
		}
	}
	out := make([][]byte, len(keys))
	m.GetMany(bg, keys, ids, out)
	checkMemory(t, m, "get-many")
	if got := lruIDs(m); !slices.Equal(got, want) {
		t.Fatalf("get-many: LRU order differs from sequential Gets in key order")
	}
	after := m.Stats()
	if dh, dm := after.Hits-before.Hits, after.Misses-before.Misses; dh != hits || dm != int64(len(keys))-hits {
		t.Fatalf("get-many of %d keys counted %d hits %d misses, want %d/%d", len(keys), dh, dm, hits, int64(len(keys))-hits)
	}
	for i, p := range out {
		if (p != nil) != (stored[i] != nil) {
			t.Fatalf("get-many: key %d answered %v, present=%v", i, p != nil, stored[i] != nil)
		}
		if p != nil && (!bytes.Equal(p, stored[i]) || &p[0] != &stored[i][0]) {
			t.Fatalf("get-many: key %d answered another entry's payload, or a copy", i)
		}
	}
}

// fuzzKey selects one of four functions and one of four checkers.
func fuzzKey(sel byte) Key {
	return Key{FuncHash: string([]byte{'f', sel % 4}), CheckerFP: string([]byte{'c', sel / 4 % 4}), EngineFP: "e"}
}

// digests returns the keys' digests, in order.
func digests(keys []Key) []Digest {
	ids := make([]Digest, len(keys))
	for i, k := range keys {
		ids[i] = k.Digest()
	}
	return ids
}

// checkSame requires two tiers to hold the same entries with the same
// payloads in the same LRU order, with the same books.
func checkSame(t *testing.T, m, seq *Memory, op string) {
	t.Helper()
	if got, want := lruIDs(m), lruIDs(seq); !slices.Equal(got, want) {
		t.Fatalf("%s: LRU order differs from sequential Puts", op)
	}
	if got, want := m.Stats(), seq.Stats(); got != want {
		t.Fatalf("%s: stats %+v, sequential Puts %+v", op, got, want)
	}
	for _, id := range lruIDs(m) {
		i, _ := m.find(id)
		j, _ := seq.find(id)
		if !bytes.Equal(m.at(i).payload, seq.at(j).payload) {
			t.Fatalf("%s: payloads differ from sequential Puts", op)
		}
	}
}

// FuzzMemoryWeightInvariants drives the byte-weighted LRU through
// arbitrary put/get/get-many/invalidate/bulk-invalidate/put-many
// sequences and checks the slab's bookkeeping (checkMemory) after every
// step, each GetMany against sequential Gets (checkGetMany), and the
// whole tier against a twin that takes each PutMany as the same Puts in
// sequence (checkSame): entries, payloads, LRU order, evictions and
// books.
//
// The byte stream is triples (op, key, variant); a key selects one of
// four functions and one of four checkers (fuzzKey), and the budget
// holds three mid-sized entries.
func FuzzMemoryWeightInvariants(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 2, 3, 1, 0})
	f.Add([]byte{0, 1, 9, 0, 1, 9, 2, 1, 0})
	f.Add([]byte{0, 0, 200, 0, 1, 200, 0, 2, 200, 1, 0, 0, 3, 0, 0})
	// Function f0 gets three entries (its ring: c2, c1, c0), then a put
	// of f1 evicts the ring's tail, middle or head depending on which
	// entries were read since; later puts reuse the freed slots, and
	// after an invalidation the slots it freed.
	f.Add([]byte{0, 0, 48, 0, 4, 48, 0, 8, 48, 0, 1, 48, 0, 2, 48, 2, 0, 0, 0, 3, 48, 0, 7, 48, 1, 3, 0})
	f.Add([]byte{0, 0, 48, 0, 4, 48, 0, 8, 48, 1, 0, 0, 0, 1, 48, 0, 2, 48, 3, 0, 0, 0, 3, 48, 0, 7, 48})
	f.Add([]byte{0, 0, 48, 0, 4, 48, 0, 8, 48, 1, 0, 0, 1, 4, 0, 0, 1, 48, 2, 0, 0, 0, 3, 48, 0, 11, 48, 0, 7, 48})
	// GetMany over keys that are all present but not at the front (the
	// ring must move, and every key count as a hit), then over a mix of
	// present and absent keys, then after an eviction.
	f.Add([]byte{0, 0, 48, 0, 1, 48, 4, 0, 0, 4, 1, 5, 0, 2, 48, 0, 3, 48, 4, 2, 1})
	// PutMany into a tier at its budget, with a repeated key, and of an
	// entry that overwrites one already present.
	f.Add([]byte{0, 0, 48, 0, 1, 48, 0, 2, 48, 5, 3, 48, 5, 0, 0, 1, 2, 0, 5, 6, 200})
	// A PutMany of three new functions (slots: sentinel, entry, three
	// times), then GetMany in stored order, where each hit is the slot
	// after the previous hit's neighbouring sentinel; in another order,
	// where the slot two after the first hit holds a different live key;
	// and after that slot was freed and reused by a new function's entry.
	f.Add([]byte{5, 1, 2, 4, 1, 2})
	f.Add([]byte{5, 1, 2, 4, 1, 3})
	f.Add([]byte{5, 1, 2, 2, 2, 0, 4, 1, 3, 0, 4, 5, 4, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		budget := 3 * weight(Encode(fuzzResult(48)))
		// seq takes every op m takes, but each PutMany as Puts in order.
		m, seq := NewMemory(budget), NewMemory(budget)
		for len(data) >= 3 {
			op, sel, variant := data[0]%6, data[1], data[2]
			data = data[3:]
			k := fuzzKey(sel)
			switch op {
			case 0:
				m.Put(bg, k, fuzzResult(variant))
				seq.Put(bg, k, fuzzResult(variant))
				checkMemory(t, m, "put")
			case 1:
				m.Get(bg, k)
				seq.Get(bg, k)
				checkMemory(t, m, "get")
			case 2:
				m.InvalidateFuncs([]string{k.FuncHash})
				seq.InvalidateFuncs([]string{k.FuncHash})
				checkMemory(t, m, "invalidate")
			case 3:
				hashes := []string{"f\x00", "f\x01", string([]byte{'f', variant % 4})}
				m.InvalidateFuncs(hashes)
				seq.InvalidateFuncs(hashes)
				checkMemory(t, m, "bulk-invalidate")
			case 4:
				// Repeats allowed: a repeated key moves to the front again.
				keys := []Key{k, fuzzKey(variant), fuzzKey(sel ^ variant)}
				checkGetMany(t, m, keys)
				seq.GetMany(bg, keys, digests(keys), make([][]byte, len(keys)))
			case 5:
				// Repeats allowed: the last write of a key wins, as it would.
				keys := []Key{k, fuzzKey(variant), fuzzKey(sel ^ variant)}
				rs := []*engine.Result{fuzzResult(variant), fuzzResult(sel), fuzzResult(sel ^ variant)}
				m.PutMany(bg, keys, digests(keys), encodeAll(rs...))
				for i, k := range keys {
					seq.Put(bg, k, rs[i])
				}
				checkMemory(t, m, "put-many")
			}
			checkSame(t, m, seq, []string{"put", "get", "invalidate", "bulk-invalidate", "get-many", "put-many"}[op])
		}
	})
}

// dirtyResult is a decode target left over from some other result:
// non-nil slices and every flag set, as the scheduler's per-worker
// scratch is after a loud hit: DecodeInto must overwrite every field.
func dirtyResult() *engine.Result {
	return &engine.Result{
		Reports:     []*checker.Report{{Checker: "stale", Message: "left over"}},
		Paths:       7,
		Steps:       9,
		Truncated:   true,
		Canceled:    true,
		RuntimeErrs: []engine.RuntimeErr{{Func: "stale"}},
	}
}

// FuzzResultCodec: arbitrary bytes either decode or fail — never panic,
// never allocate more than a constant factor of the input's length —
// and whatever decodes re-encodes to exactly the same bytes. DecodeInto
// over a dirty target (dirtyResult) agrees with decodeResult on every
// input; the "empty" seed (nil slices, no flags) catches a DecodeInto
// that only assigns the fields a payload carries.
func FuzzResultCodec(f *testing.F) {
	for _, r := range codecCases() {
		f.Add(Encode(r))
	}
	f.Add(Encode(result("msg")))
	f.Add([]byte{resultCodec, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{resultCodec, 0, 0, 0, 0xff, 0xff, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The least of three measurements: while a fuzz worker runs, the
		// engine allocates on other goroutines, which only ever adds to
		// the process-wide count (a decode of 6 bytes read 5.5 KB).
		var r *engine.Result
		var err error
		alloc := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r, err = decodeResult(data)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if bound := uint64(64*len(data) + 1024); alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes (bound %d)", len(data), alloc, bound)
		}
		dirty := dirtyResult()
		if errInto := DecodeInto(dirty, data); (errInto == nil) != (err == nil) {
			t.Fatalf("DecodeInto error %v, decodeResult error %v", errInto, err)
		} else if err == nil && !reflect.DeepEqual(dirty, r) {
			t.Fatalf("DecodeInto over a dirty target:\n got %+v\nwant %+v", dirty, r)
		}
		if err != nil {
			return
		}
		if again := Encode(r); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n got % x\nwant % x", again, data)
		}
	})
}

// refEntries parses an entry-route body as the protocol defines it,
// written against encoding/binary rather than codecReader: keys as three
// minimal-uvarint length-prefixed strings, the first non-empty, each
// followed on the put route by a record that strictly decodes; at least
// one entry; nothing left over.
func refEntries(body []byte, put bool) (keys []Key, recs [][]byte, ok bool) {
	fields := 3
	if put {
		fields = 4
	}
	for len(body) > 0 {
		var f [4][]byte
		for j := 0; j < fields; j++ {
			n, w := binary.Uvarint(body)
			if w <= 0 || (w > 1 && body[w-1] == 0) || n > uint64(len(body)-w) {
				return nil, nil, false
			}
			f[j], body = body[w:w+int(n)], body[w+int(n):]
		}
		k := Key{FuncHash: string(f[0]), CheckerFP: string(f[1]), EngineFP: string(f[2])}
		if k.FuncHash == "" {
			return nil, nil, false
		}
		if put {
			if _, err := decodeResult(f[3]); err != nil {
				return nil, nil, false
			}
			recs = append(recs, f[3])
		}
		keys = append(keys, k)
	}
	return keys, recs, len(keys) > 0
}

// serveEntries sends body to an entry route of h.
func serveEntries(h http.Handler, route string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
	return rec
}

// FuzzEntriesWire: arbitrary bodies sent to either entry route never
// panic the server. The keys parseEntries reads are the reference's,
// though it copies each distinct rider's fingerprints once per body, and
// every id it derives is its key's Digest, though it hashes each
// distinct rider's half once per body. A body refEntries refuses gets a
// 400 and stores nothing; a get the reference accepts is answered with one frame per
// key, all misses on an empty store; a put it accepts is a 204, and the
// same keys then read back through /entries/get as the bytes put under
// them (the last, for a key put twice).
func FuzzEntriesWire(f *testing.F) {
	a, b := fkey("fA", "ck"), fkey("fB", "ck")
	two := append(putFrame(a, result("a")), putFrame(b, result("b"))...)
	f.Add(true, two)
	f.Add(true, append(slices.Clone(two), putFrame(a, result("a2"))...))
	f.Add(true, putFrame(a, &engine.Result{Truncated: true, Canceled: true}))
	f.Add(true, putFrame(Key{CheckerFP: "ck"}, result("no hash")))
	f.Add(true, two[:len(two)-1])
	f.Add(false, appendKey(appendKey(nil, a), b))
	f.Add(false, []byte{0x80, 0x00})
	f.Add(false, []byte(nil))
	// A pass's puts alternate its riders function by function; here two
	// checkers, and one of them under a second engine.
	var alternating []byte
	for _, fh := range []string{"fA", "fB", "fC"} {
		for _, k := range []Key{fkey(fh, "ck1"), fkey(fh, "ck2"), {FuncHash: fh, CheckerFP: "ck1", EngineFP: "eng2"}} {
			alternating = append(alternating, putFrame(k, result(fh))...)
		}
	}
	f.Add(true, alternating)
	// A cold deployment batch's put: 39 checkers, function by function.
	var cycling []byte
	for _, fh := range []string{"fA", "fB"} {
		for n := range 39 {
			cycling = append(cycling, putFrame(fkey(fh, strconv.Itoa(n)), result(fh))...)
		}
	}
	f.Add(true, cycling)
	f.Fuzz(func(t *testing.T, put bool, body []byte) {
		if keys, ids, _, bad := parseEntries(body, put); bad == "" {
			if want, _, _ := refEntries(body, put); !slices.Equal(keys, want) {
				t.Fatalf("parsed keys %q, want %q", keys, want)
			}
			for i, k := range keys {
				if ids[i] != k.Digest() {
					t.Fatalf("key %d of %d: parsed id %x, want its Digest %x", i, len(keys), ids[i], k.Digest())
				}
			}
		}
		back := NewMemory(0)
		h := NewCacheServer(back).Handler()
		route := "/entries/get"
		if put {
			route = "/entries/put"
		}
		rec := serveEntries(h, route, body)
		keys, recs, ok := refEntries(body, put)
		if !ok {
			if rec.Code != http.StatusBadRequest || back.Stats().Puts != 0 {
				t.Fatalf("%s of a malformed body: status %d, %d puts stored", route, rec.Code, back.Stats().Puts)
			}
			return
		}
		want := make([][]byte, len(keys))
		if put {
			if rec.Code != http.StatusNoContent {
				t.Fatalf("put of %d well-formed entries: status %d", len(keys), rec.Code)
			}
			last := map[Key][]byte{}
			for i, k := range keys {
				last[k] = recs[i]
			}
			for i, k := range keys {
				want[i] = last[k]
			}
			var getBody []byte
			for _, k := range keys {
				getBody = appendKey(getBody, k)
			}
			rec = serveEntries(h, "/entries/get", getBody)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("get of %d keys: status %d", len(keys), rec.Code)
		}
		reply := rec.Body.Bytes()
		for i := range keys {
			n, w := binary.Uvarint(reply)
			if w <= 0 || n > uint64(len(reply)-w) {
				t.Fatalf("reply frame %d of %d is malformed", i, len(keys))
			}
			if got := reply[w : w+int(n)]; !bytes.Equal(got, want[i]) {
				t.Fatalf("key %d read back % x, want % x", i, got, want[i])
			}
			reply = reply[w+int(n):]
		}
		if len(reply) != 0 {
			t.Fatalf("%d bytes after the last reply frame", len(reply))
		}
	})
}
