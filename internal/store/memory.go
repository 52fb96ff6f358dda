package store

import (
	"context"
	"sync"

	"knighter/internal/engine"
)

// DefaultMemoryBytes bounds the in-memory tier when the caller passes a
// non-positive capacity: 64 MiB of entry weight, ~490k report-free
// results — hundreds of checker revisions over a full-scale corpus.
const DefaultMemoryBytes = 64 << 20

// entryOverhead is what an entry keeps resident besides its payload: an
// 80-byte slot, its share of the id index, size-class rounding.
const entryOverhead = 128

// Memory is the in-memory LRU tier, bounded by the total weight of its
// entries rather than their count — a pathological checker that caches
// huge report lists displaces proportionally more small entries, instead
// of hiding behind a per-entry quota. An entry weighs its payload's
// length plus entryOverhead, so the budget tracks resident memory.
//
// It holds bytes, not object graphs: a result is kept in the binary codec
// (codec.go) in a slab of slots linked by index, behind an id index
// keyed by a pointer-free Digest, so the payload is the only pointer per
// entry and the garbage collector has little to mark in a full tier.
// Hashing, encoding and decoding run outside the mutex, and a range of
// gets (GetMany) or puts (PutMany) takes it once.
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
	ids    map[Digest]int32
	// funcs maps a FuncHash to the sentinel slot of its entries' ring,
	// so corpus mutation can drop a function's entries without a sweep.
	funcs map[string]int32
	free  int32 // free-list head, linked through next; -1 when empty
	stats Stats
}

// slot is an entry (payload: its encoded result; fn: its function's
// sentinel), a sentinel (payload: the function hash; fn: itself) or free
// (fn: -1).
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
		ids:      map[Digest]int32{},
		funcs:    map[string]int32{},
		free:     -1,
	}
}

// Get implements Store: the one-key case of GetMany.
func (m *Memory) Get(_ context.Context, k Key) (*engine.Result, bool) {
	var out [1]*engine.Result
	m.lookup([]Digest{k.Digest()}, out[:])
	return out[0], out[0] != nil
}

// GetMany implements BatchGetter: it probes by ids alone. The context is
// unused; a map lookup has no network wait to abort.
func (m *Memory) GetMany(_ context.Context, _ []Key, ids []Digest, out []*engine.Result) {
	m.lookup(ids, out)
}

// lookup is the one probe body behind Get and GetMany. The keys arrive
// hashed; they are looked up and moved to the front of the LRU ring
// under one lock acquisition per 64 keys — leaving the ring as
// sequential Gets in key order would — and decoded into out after the
// unlock. Payloads are immutable once published, and each 64 keys' hits
// decode into one slab allocated for them: each result keeps its own
// slices, only the backing array of the results themselves is shared,
// among results one caller owns.
func (m *Memory) lookup(ids []Digest, out []*engine.Result) {
	for len(ids) > 64 {
		m.lookup(ids[:64], out[:64])
		ids, out = ids[64:], out[64:]
	}
	var buf [64][]byte // a scheduler range's rider probes without allocating
	payloads := buf[:0]
	hits := 0
	m.mu.Lock()
	for _, id := range ids {
		var p []byte // nil on a miss: a live entry's payload is never empty
		if s, ok := m.ids[id]; ok {
			m.toFront(s)
			p = m.at(s).payload
			hits++
		}
		payloads = append(payloads, p)
	}
	m.stats.Hits += int64(hits)
	m.stats.Misses += int64(len(ids) - hits)
	m.mu.Unlock()
	slab := make([]engine.Result, hits)
	for i, p := range payloads {
		out[i] = nil
		if p != nil {
			if decodeInto(&slab[0], p) == nil {
				out[i] = &slab[0]
			}
			slab = slab[1:]
		}
	}
}

// Put implements Store.
func (m *Memory) Put(_ context.Context, k Key, r *engine.Result) {
	if r == nil {
		return
	}
	id, payload := k.Digest(), encodeResult(r)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putLocked(id, k.FuncHash, payload)
}

// PutMany implements BatchPutter: it stores by ids alone. The results
// are encoded before the lock is taken, then inserted in key order under
// one acquisition — each insert evicting as its own Put would — so the
// tier ends up as the same Puts in sequence leave it. A nil result is
// skipped, as Put skips it.
func (m *Memory) PutMany(_ context.Context, keys []Key, ids []Digest, rs []*engine.Result) {
	var buf [64][]byte // a scheduler range's misses encode without allocating the list
	payloads := buf[:0]
	if len(rs) > len(buf) {
		payloads = make([][]byte, 0, len(rs))
	}
	for _, r := range rs {
		var p []byte
		if r != nil {
			p = encodeResult(r)
		}
		payloads = append(payloads, p)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, p := range payloads {
		if p != nil {
			m.putLocked(ids[i], keys[i].FuncHash, p)
		}
	}
}

// putLocked stores payload under id — in funcHash's ring when new —
// moves it to the front of the LRU ring and evicts back to the budget.
func (m *Memory) putLocked(id Digest, funcHash string, payload []byte) {
	m.stats.Puts++
	i, ok := m.ids[id]
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
		m.ids[id] = i
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

// removeLocked unlinks entry i from both rings, the id index and the
// byte accounting, and frees its slot — and its function's sentinel if
// its ring is now empty, which it reports.
func (m *Memory) removeLocked(i int32) (lastOfFunc bool) {
	e := *m.at(i)
	m.at(e.prev).next, m.at(e.next).prev = e.next, e.prev
	m.at(e.fprev).fnext, m.at(e.fnext).fprev = e.fnext, e.fprev
	delete(m.ids, e.id)
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
