package store

import (
	"context"
	"encoding/binary"
	"sync"

	"knighter/internal/engine"
)

// DefaultMemoryBytes bounds the in-memory tier when the caller passes a
// non-positive capacity: 64 MiB of entry weight, ~650k report-free
// results — hundreds of checker revisions over a full-scale corpus.
const DefaultMemoryBytes = 64 << 20

// entryOverhead is what an entry keeps resident besides its payload's
// length: an 80-byte slot, its payload's size-class rounding and its
// 8-byte index cell at 3/8–3/4 load. TestMemoryResidencyMatchesWeight
// measures it.
const entryOverhead = 100

// Memory is the in-memory LRU tier, bounded by the total weight of its
// entries rather than their count — a pathological checker that caches
// huge report lists displaces proportionally more small entries, instead
// of hiding behind a per-entry quota. An entry weighs its payload's
// length plus entryOverhead, so the budget tracks resident memory.
//
// It holds bytes, not object graphs: a result is kept as the payload the
// binary codec (codec.go) wrote for it, in a slab of slots linked by
// index, found through a flat table of tagged slot numbers (index), so
// the payload is the only pointer per entry and the garbage collector has
// little to mark in a full tier. The tier neither encodes nor decodes:
// PutMany stores the payload slices it is given and GetMany returns them.
// A payload is immutable once stored — an overwrite replaces the slot's
// slice and never writes into the old one — so a hit is shared,
// read-only, with every caller that got it. A range of gets or puts
// takes the mutex once; keys arrive hashed.
//
// A lookup looks for a key where a range put would have stored it
// before it probes the index (see next).
type Memory struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	n        int // live entries
	// slab holds slot i at slab[i/slabChunk][i%slabChunk], of which
	// nslots are in use; slot 0 roots the LRU ring: next is the newest
	// entry.
	slab   []*[slabChunk]slot
	nslots int32
	// index finds an entry's slot by its digest: open addressing with
	// linear probing over a power-of-two table, grown at 3/4 load. A cell
	// is tag<<32 | slot, where the tag is the digest's first 4 bytes and
	// its low bits pick the cell's home; 0 is an empty cell, as slot 0 is
	// the root. The slot keeps the full digest, so the table holds no
	// second copy of it: a probe reads a slot only when a tag matches, and
	// growing or deleting reads none.
	index []uint64
	// funcs maps a FuncHash to the sentinel slot of its entries' ring,
	// so corpus mutation can drop a function's entries without a sweep.
	funcs map[string]int32
	free  int32 // free-list head, linked through next; -1 when empty
	stats Stats
}

// slot is an entry (payload: its encoded result; id: its key's digest,
// the tier's one copy of it; fn: its function's sentinel), a sentinel
// (payload: the function hash; fn: itself) or free (fn: -1).
type slot struct {
	payload      []byte
	id           Digest
	prev, next   int32 // LRU ring
	fprev, fnext int32 // the ring of one function's entries
	fn           int32
}

func weight(payload []byte) int64 { return int64(len(payload)) + entryOverhead }

// slabChunk is how many slots one chunk of the slab holds. The slab grows
// a chunk at a time and never moves a slot: a growing tier that copied
// its slots would leave the old array for a collection cycle to mark
// beside the new one, and the live heap that cycle measures sets the next
// heap goal — at 300k entries, 20 MB twice over.
const slabChunk = 4096

// at returns slot i.
func (m *Memory) at(i int32) *slot { return &m.slab[uint32(i)/slabChunk][uint32(i)%slabChunk] }

// NewMemory returns an LRU store holding at most maxBytes of entry
// weight (DefaultMemoryBytes when maxBytes <= 0).
func NewMemory(maxBytes int64) *Memory {
	if maxBytes <= 0 {
		maxBytes = DefaultMemoryBytes
	}
	return &Memory{
		maxBytes: maxBytes,
		slab:     []*[slabChunk]slot{new([slabChunk]slot)},
		nslots:   1,
		index:    make([]uint64, 1024),
		funcs:    map[string]int32{},
		free:     -1,
	}
}

// Get is the one-key GetMany, decoded (getOne).
func (m *Memory) Get(ctx context.Context, k Key) (*engine.Result, bool) {
	return getOne(ctx, m, k)
}

// GetMany implements Store: it probes by ids alone and answers with the
// stored payloads themselves, no copy and no decode. The keys arrive
// hashed; they are looked up and moved to the front of the LRU ring
// under one lock acquisition per 64 keys — leaving the ring as
// sequential Gets in key order would, and never holding the lock for a
// whole kcached body. Each key is first looked for near the previous
// hit (next), and only then in the index (find). The context is unused:
// a lookup has no network wait to abort.
func (m *Memory) GetMany(ctx context.Context, _ []Key, ids []Digest, out [][]byte) {
	for len(ids) > 64 {
		m.GetMany(ctx, nil, ids[:64], out[:64])
		ids, out = ids[64:], out[64:]
	}
	hits := 0
	// This call's previous hit (0, the root, before the first) and the
	// distances back from it to the two hits before, 0 until there are.
	var last, d1, d2 int32
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, id := range ids {
		out[i] = nil // a live entry's payload is never empty
		step := d1
		if d1 != d2 {
			step = 0 // a step is guessed only once it repeats
		}
		s, ok := m.next(last, step, id)
		if !ok {
			s, ok = m.find(id)
		}
		if ok {
			m.toFront(s)
			out[i] = m.at(s).payload
			hits++
			if last != 0 {
				d1, d2 = s-last, d1
			}
			last = s
		}
	}
	m.stats.Hits += int64(hits)
	m.stats.Misses += int64(len(ids) - hits)
}

// next returns the entry stored under id if it sits where a range put
// would have placed it after slot last. A PutMany of new keys stores
// them in consecutive slots, with a new function's ring sentinel before
// its first entry, and the scheduler probes the range again in its own
// order: function by function for one checker, so the key sits in the
// next slot or past a sentinel there; checker by checker for several,
// whose results a put stores function by function, so the key sits a
// fixed step past the previous hit. next tries last+step (lookup passes
// a nonzero step once two consecutive distances between hits agree, so
// a probe in random order reads no random slot), then the next slot or
// the one past a sentinel there. A guessed slot counts only if it is a
// live entry whose id is the probed digest, and ids are unique among
// live entries, so it is the slot the index holds for id. The index
// stays the only source of truth and answers any other order.
func (m *Memory) next(last, step int32, id Digest) (int32, bool) {
	if last == 0 {
		return 0, false
	}
	if step != 0 && m.holds(last+step, id) {
		return last + step, true
	}
	i := last + 1
	if i < m.nslots && m.at(i).fn == i {
		i++
	}
	return i, i != last+step && m.holds(i, id)
}

// holds reports whether slot i is the live entry stored under id: in
// use, not the root, not a sentinel (fn is itself) and not free (fn -1).
// The index needs no such check: its cells name live entries only.
func (m *Memory) holds(i int32, id Digest) bool {
	if i <= 0 || i >= m.nslots {
		return false
	}
	e := m.at(i)
	return e.fn >= 0 && e.fn != i && e.id == id
}

// tagOf is the digest's first 4 bytes: the XOR of the key's two
// SHA-256 halves (PairDigest), so tags are uniform over functions and
// over riders alike, and their low bits spread homes as well as any hash
// would.
func tagOf(id Digest) uint32 { return binary.LittleEndian.Uint32(id[:4]) }

// cell is slot i's index cell under tag t.
func cell(t uint32, i int32) uint64 { return uint64(t)<<32 | uint64(uint32(i)) }

// home is the cell a tagged cell c is probed from in a table of mask+1.
func home(c uint64, mask int) int { return int(c>>32) & mask }

// find returns the slot of the live entry stored under id. It probes
// from id's home to the first empty cell, and reads a slot only for a
// cell whose tag is id's.
func (m *Memory) find(id Digest) (int32, bool) {
	t, mask := tagOf(id), len(m.index)-1
	for h := int(t) & mask; m.index[h] != 0; h = (h + 1) & mask {
		if c := m.index[h]; uint32(c>>32) == t && m.at(int32(uint32(c))).id == id {
			return int32(uint32(c)), true
		}
	}
	return 0, false
}

// insert adds cell c, a new entry's, doubling the table first if the
// entry would take it past 3/4 load. Growing rehashes the cells by their
// tags alone.
func (m *Memory) insert(c uint64) {
	if 4*(m.n+1) > 3*len(m.index) {
		old := m.index
		m.index = make([]uint64, 2*len(old))
		for _, o := range old {
			if o != 0 {
				place(m.index, o)
			}
		}
	}
	place(m.index, c)
}

// place stores c in the first empty cell from its home.
func place(index []uint64, c uint64) {
	mask := len(index) - 1
	h := home(c, mask)
	for index[h] != 0 {
		h = (h + 1) & mask
	}
	index[h] = c
}

// unindex removes cell c, then closes the hole it leaves by shifting
// back each later cell of the cluster whose home is not cyclically in
// (hole, j]: every cell stays reachable from its home with no empty
// cell between, and no tombstone is left.
func (m *Memory) unindex(c uint64) {
	mask := len(m.index) - 1
	hole := home(c, mask)
	for m.index[hole] != c {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; m.index[j] != 0; j = (j + 1) & mask {
		if (j-home(m.index[j], mask))&mask >= (j-hole)&mask {
			m.index[hole], hole = m.index[j], j
		}
	}
	m.index[hole] = 0
}

// Put is the one-key PutMany, encoding r (a result
// Encode writes no payload for is not stored).
func (m *Memory) Put(ctx context.Context, k Key, r *engine.Result) {
	m.PutMany(ctx, []Key{k}, []Digest{k.Digest()}, [][]byte{Encode(r)})
}

// PutMany implements Store: it stores by ids alone, each payload as
// given, inserted in key order under one lock acquisition — each insert
// evicting as its own Put would — so the tier ends up as the same Puts
// in sequence leave it. An empty payload is skipped, as Put skips a nil
// result.
func (m *Memory) PutMany(_ context.Context, keys []Key, ids []Digest, payloads [][]byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, p := range payloads {
		if len(p) > 0 {
			m.putLocked(ids[i], keys[i].FuncHash, p)
		}
	}
}

// putLocked stores payload under id — in funcHash's ring when new —
// moves it to the front of the LRU ring and evicts back to the budget.
func (m *Memory) putLocked(id Digest, funcHash string, payload []byte) {
	m.stats.Puts++
	i, ok := m.find(id)
	if ok {
		e := m.at(i)
		m.bytes += weight(payload) - weight(e.payload)
		e.payload = payload
	} else {
		f, ok := m.funcs[funcHash]
		if !ok {
			f = m.alloc(slot{payload: []byte(funcHash)})
			m.at(f).fn = f
			m.funcs[funcHash] = f
		}
		i = m.alloc(slot{payload: payload, id: id, fn: f})
		e, fs := m.at(i), m.at(f)
		e.fprev, e.fnext = f, fs.fnext
		m.at(fs.fnext).fprev, fs.fnext = i, i
		m.insert(cell(tagOf(id), i))
		m.bytes += weight(payload)
		m.n++
	}
	m.toFront(i)
	m.evictLocked()
}

// alloc stores sl in a free or new slot, linked to itself in both rings.
func (m *Memory) alloc(sl slot) int32 {
	i := m.free
	if i < 0 {
		i = m.nslots
		if i%slabChunk == 0 {
			m.slab = append(m.slab, new([slabChunk]slot))
		}
		m.nslots++
	} else {
		m.free = m.at(i).next
	}
	sl.prev, sl.next, sl.fprev, sl.fnext = i, i, i, i
	*m.at(i) = sl
	return i
}

// toFront moves slot i to the most-recently-used end of the LRU ring.
func (m *Memory) toFront(i int32) {
	e, root := m.at(i), m.at(0)
	m.at(e.prev).next, m.at(e.next).prev = e.next, e.prev
	e.prev, e.next = 0, root.next
	m.at(root.next).prev, root.next = i, i
}

// evictLocked drops least-recently-used entries until the tier is back
// under its byte budget. The most recent entry is always kept, even when
// it alone exceeds the budget: refusing oversized entries would disable
// caching for exactly the functions that are most expensive to
// recompute.
func (m *Memory) evictLocked() {
	for m.bytes > m.maxBytes && m.n > 1 {
		m.removeLocked(m.at(0).prev)
		m.stats.Evictions++
	}
}

// InvalidateFuncs implements Store: one lock acquisition drops the
// entries of every given hash (a changeset's whole orphan set), under
// any checker or engine fingerprint.
func (m *Memory) InvalidateFuncs(funcHashes []string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, fh := range funcHashes {
		// A function's ring is never empty while it is indexed: removing
		// its last entry drops the sentinel too.
		for f, ok := m.funcs[fh]; ok; n++ {
			ok = !m.removeLocked(m.at(f).fnext)
		}
	}
	m.stats.Invalidated += int64(n)
	return n
}

// removeLocked unlinks entry i from both rings, the index and the
// byte accounting, and frees its slot — and its function's sentinel if
// its ring is now empty, which it reports.
func (m *Memory) removeLocked(i int32) (lastOfFunc bool) {
	e := *m.at(i)
	m.at(e.prev).next, m.at(e.next).prev = e.next, e.prev
	m.at(e.fprev).fnext, m.at(e.fnext).fprev = e.fnext, e.fprev
	m.unindex(cell(tagOf(e.id), i))
	m.bytes -= weight(e.payload)
	m.n--
	*m.at(i), m.free = slot{next: m.free, fn: -1}, i
	f := m.at(e.fn)
	if f.fnext != e.fn {
		return false
	}
	delete(m.funcs, string(f.payload))
	*f, m.free = slot{next: m.free, fn: -1}, e.fn
	return true
}

// Stats implements Store.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Entries = m.n
	s.Bytes = m.bytes
	return s
}
