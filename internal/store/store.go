// Package store implements the content-addressed analysis-result cache
// of the incremental scan service.
//
// Analysis of one function is a pure function of three inputs: the
// function's source (plus the file-level declarations it can see), the
// checker semantics, and the engine bounds. The cache keys cached
// engine.Results by exactly that triple, so any scan — a refinement
// round re-running a barely-changed checker, an eval harness replaying
// the corpus, a kserve request — reuses every per-function result whose
// inputs did not change. This is the paper's §5 deployment cost
// (whole-tree -j32 re-scans per checker revision) turned incremental.
//
// A tier's whole contract is a range of keys (Store: GetMany, PutMany,
// InvalidateFuncs, Stats). The leaf tiers keep a one-key Get and Put on
// results for tests and probes: the codec over the one-key case of their
// range methods.
//
// Every tier addresses a result by its Key's Digest (hex: Key.ID) and
// holds it as the bytes of one compact binary codec (codec.go): the
// memory and disk tiers store those bytes, and a kcached round trip
// moves a range of keys and records framed in that codec's
// length-prefixed strings (CacheServer), never JSON. Only the scan
// scheduler encodes and decodes.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
)

// Key addresses one cached per-function analysis result.
type Key struct {
	// FuncHash covers the function source and the file context visible
	// to analysis (file name, struct and global declarations).
	FuncHash string
	// CheckerFP covers the semantics of the checker batch, in order.
	CheckerFP string
	// EngineFP covers the engine's analysis bounds.
	EngineFP string
}

// Digest is a key's binary content address: comparable and pointer-free.
type Digest [sha256.Size]byte

// Digest hashes the key in a stack buffer, without allocating. A range
// call takes the digests beside its keys (Store), so callers hash each
// key once, before any tier takes a lock; the scheduler memoizes them
// per file version and hashes nothing on a warm probe.
func (k Key) Digest() Digest {
	var buf [192]byte
	b := append(buf[:0], "key:v1\x00"...)
	b = append(append(b, k.FuncHash...), 0)
	b = append(append(b, k.CheckerFP...), 0)
	return sha256.Sum256(append(b, k.EngineFP...))
}

// ID is the hex form of Digest: the content address in the segment
// index.
func (k Key) ID() string {
	d := k.Digest()
	return hex.EncodeToString(d[:])
}

// Hash content-addresses a list of byte-strings (null-separated, so
// ("ab","c") and ("a","bc") hash differently).
func Hash(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Stats is a point-in-time snapshot of cache-effectiveness counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	// Bytes is the weight of the tier's live entries: their serialized
	// size, plus a fixed per-entry overhead in the memory tier — the
	// weight it bounds itself by.
	Bytes int64 `json:"bytes"`
	// Invalidated counts entries dropped by InvalidateFuncs (corpus
	// mutation made their function hash unreachable).
	Invalidated int64 `json:"invalidated"`
	// Expired counts disk entries removed by TTL garbage collection
	// (budget evictions count under Evictions instead).
	Expired int64 `json:"expired"`
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Store is an analysis-result cache tier, and its unit of work is a
// range of keys: the scheduler probes and stores every rider of a
// 64-function range in one call, the in-memory tier takes its lock once
// per range, and the network tier makes one round trip. Every key still
// counts as one hit, one miss or one put in the tier's books.
// Implementations must be safe for concurrent use.
//
// A tier holds and moves payloads: the bytes Encode wrote for a result
// (codec.go). It stores the payload it is given, and a hit is the
// payload stored under the key, byte for byte. Payloads are shared and
// read-only — neither the tier nor any caller writes into one once it is
// put or got — so a caller that wants a private result decodes one
// (DecodeInto).
//
// The caller passes each key's digest beside it (ids[i] ==
// keys[i].Digest()): the scheduler memoizes digests per file version,
// so a warm probe hashes nothing, and a local tier addresses entries by
// ids alone. A digest never lives inside a Key — a key edited after its
// digest was taken would address another entry.
//
// Every operation carries the request context: local tiers ignore it,
// but the remote tier uses it to propagate the request's trace id to
// kcached and to stop waiting on the network when the caller is gone.
// A nil context is treated as context.Background().
type Store interface {
	// GetMany sets out[i] to the payload cached for keys[i], or to nil on
	// a miss. len(ids) and len(out) must equal len(keys).
	GetMany(ctx context.Context, keys []Key, ids []Digest, out [][]byte)
	// PutMany stores payloads[i] under keys[i], overwriting any previous
	// entry; an empty payload is skipped. The tier must end up exactly as
	// the same puts one key at a time, in key order, would leave it —
	// entries, LRU order, evictions and books, one put per key. Only
	// cacheable results are put: a canceled one has no payload
	// (Encode).
	PutMany(ctx context.Context, keys []Key, ids []Digest, payloads [][]byte)
	// InvalidateFuncs removes every entry addressed by any of the given
	// function hashes, returning the number of entries dropped. Corpus
	// mutation calls it with the pre-mutation hashes of the touched
	// functions: content addressing means those keys can never be
	// requested again, so the entries are pure garbage, and one call per
	// changeset lets a tier take its lock once (or batch its I/O).
	InvalidateFuncs(funcHashes []string) int
	// Stats snapshots the tier's counters.
	Stats() Stats
}
