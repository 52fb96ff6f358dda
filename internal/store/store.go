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
	"encoding/binary"
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

// Half is one half of a digest's inputs: 16 bytes of a domain-tagged
// SHA-256, of a function hash (FuncPart) or of a rider's fingerprints
// (RiderPart).
type Half [16]byte

// Digest is the key's content address, PairDigest of its two halves.
// It hashes in stack buffers, without allocating. A range call takes the
// digests beside its keys (Store), so callers address each key once,
// before any tier takes a lock; the scheduler memoizes the function half
// per file version and the rider half per pass, so it hashes nothing per
// key.
func (k Key) Digest() Digest {
	return PairDigest(FuncPart(k.FuncHash), RiderPart(k.CheckerFP, k.EngineFP))
}

// FuncPart is the function half of every key whose FuncHash is funcHash.
func FuncPart(funcHash string) Half {
	var buf [128]byte
	return half(append(append(buf[:0], "key:v2:func\x00"...), funcHash...))
}

// RiderPart is the rider half of every key under checkerFP and
// engineFP.
func RiderPart(checkerFP, engineFP string) Half {
	var buf [128]byte
	b := append(buf[:0], "key:v2:rider\x00"...)
	b = append(append(b, checkerFP...), 0)
	return half(append(b, engineFP...))
}

func half(b []byte) (h Half) {
	sum := sha256.Sum256(b)
	copy(h[:], sum[:])
	return h
}

// PairDigest assembles the digest of the key whose halves are fn and
// rider, hashing nothing: d[:16] = fn XOR rider, d[16:] = fn. It is
// injective — fn is d[16:] and rider is d[:16] XOR fn — so two keys
// share an address only if both their halves collide. Its first bytes
// stay as uniform as either half, whichever one a series of keys holds
// fixed: the memory tier picks index homes from them (tagOf), and a
// digest that began with fn would pile every rider of a function onto
// one home.
func PairDigest(fn, rider Half) (d Digest) {
	// Eight bytes at a time: a warm pass assembles a digest per key.
	le := binary.LittleEndian
	le.PutUint64(d[0:], le.Uint64(fn[0:])^le.Uint64(rider[0:]))
	le.PutUint64(d[8:], le.Uint64(fn[8:])^le.Uint64(rider[8:]))
	copy(d[16:], fn[:])
	return d
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
	var buf [256]byte
	pre := buf[:0]
	for _, p := range parts {
		pre = append(append(pre, p...), 0)
	}
	return HashFramed(pre)
}

// HashFramed is Hash over a preimage the caller framed itself: each
// part followed by a zero byte, so Hash(a, b) == HashFramed(a 0 b 0). A
// caller that prints its parts into one reused buffer hashes them
// without a string per part.
func HashFramed(preimage []byte) string {
	sum := sha256.Sum256(preimage)
	var out [32]byte
	hex.Encode(out[:], sum[:16])
	return string(out[:])
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
// keys[i].Digest()): the scheduler assembles them from halves it
// memoizes (PairDigest), so a probe hashes nothing per key, and a local
// tier addresses entries by ids alone. A digest never lives inside a
// Key — a key edited after its digest was taken would address another
// entry.
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
