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
// Every tier addresses a result by its Key's Digest (hex: Key.ID). The
// memory and disk tiers hold it in one compact binary codec (codec.go),
// and the network tier carries the same records: a kcached round trip
// moves a range of keys and records framed in that codec's
// length-prefixed strings (CacheServer), never JSON.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"

	"knighter/internal/engine"
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

// Digest hashes the key in a stack buffer, without allocating. Tiers
// compute it once per operation, before taking any lock, except where a
// batch probe is handed digests the caller memoized (BatchGetter).
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

// Store is an analysis-result cache tier. Implementations must be safe
// for concurrent use and must return results that are semantically
// identical to what was stored (Get always hands back an independent
// clone, so callers may append to or re-sort the result's slices).
//
// Every operation carries the request context: local tiers ignore it,
// but the remote tier uses it to propagate the request's trace id to
// kcached and to stop waiting on the network when the caller is gone.
// A nil context is treated as context.Background().
type Store interface {
	// Get returns the cached result for k, or (nil, false).
	Get(ctx context.Context, k Key) (*engine.Result, bool)
	// Put stores r under k, overwriting any previous entry.
	Put(ctx context.Context, k Key, r *engine.Result)
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

// BatchGetter is an optional Store extension for tiers that answer a
// whole range of keys in one call: the in-memory tier takes its lock
// once per range instead of once per key. Every key still counts as one
// hit or one miss in the tier's books.
//
// The caller passes each key's digest beside it (ids[i] ==
// keys[i].Digest()): the scheduler memoizes digests per file version,
// so a warm probe hashes nothing. A digest never lives inside a Key —
// a key edited after its digest was taken would address another entry.
type BatchGetter interface {
	// GetMany sets out[i] to the cached result for keys[i], or to nil on
	// a miss. len(ids) and len(out) must equal len(keys).
	GetMany(ctx context.Context, keys []Key, ids []Digest, out []*engine.Result)
}

// GetMany looks keys up in st, setting out[i] to the result for keys[i]
// or nil: through the tier's batch path when it has one, one Get per
// key otherwise. ids[i] must be keys[i].Digest().
func GetMany(ctx context.Context, st Store, keys []Key, ids []Digest, out []*engine.Result) {
	if bg, ok := st.(BatchGetter); ok {
		bg.GetMany(ctx, keys, ids, out)
		return
	}
	for i, k := range keys {
		if r, ok := st.Get(ctx, k); ok {
			out[i] = r
		} else {
			out[i] = nil
		}
	}
}

// BatchPutter is an optional Store extension for tiers that store a
// range of results in one call: the in-memory tier encodes them outside
// its lock and takes the lock once. The tier must end up exactly as the
// same Puts in key order would leave it — entries, LRU order, evictions
// and books, one put per key. ids[i] must be keys[i].Digest().
type BatchPutter interface {
	PutMany(ctx context.Context, keys []Key, ids []Digest, rs []*engine.Result)
}

// PutMany stores rs[i] under keys[i] in st: through the tier's batch
// path when it has one, one Put per key otherwise. ids[i] must be
// keys[i].Digest().
func PutMany(ctx context.Context, st Store, keys []Key, ids []Digest, rs []*engine.Result) {
	if bp, ok := st.(BatchPutter); ok {
		bp.PutMany(ctx, keys, ids, rs)
		return
	}
	for i, k := range keys {
		st.Put(ctx, k, rs[i])
	}
}
