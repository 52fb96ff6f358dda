package store

import (
	"context"
	"encoding/hex"
	"sync/atomic"
	"time"

	"knighter/internal/engine"
	"knighter/internal/store/segment"
)

// SegmentDisk is the disk tier backed by the append-only segment engine
// (internal/store/segment): entries packed into a few large log files
// with an in-memory index, so a warm hit is one index probe and one
// pread instead of a file open, a put is one buffered append, and
// invalidation is an index drop plus a tombstone record.
//
// Like every local tier it is best-effort: I/O errors degrade to cache
// misses, and durability is cache-grade (batched fsync — a crash loses
// at most the last flush window of puts, never corrupts the store).
type SegmentDisk struct {
	eng    *segment.Store
	hits   atomic.Int64
	misses atomic.Int64
}

// SegmentDiskOption configures NewSegmentDisk.
type SegmentDiskOption func(*segment.Options)

// SegmentDiskMaxBytes sets the live-payload byte budget: past it,
// compaction evicts oldest-first until the tier fits. Non-positive =
// unbounded.
func SegmentDiskMaxBytes(n int64) SegmentDiskOption {
	return func(o *segment.Options) {
		if n > 0 {
			o.MaxBytes = n
		}
	}
}

// segFuncTok maps a function hash to the engine's func token; the hash
// is re-digested so arbitrary FuncHash strings yield a fixed-size token.
func segFuncTok(funcHash string) string {
	return Hash("fdir:v1", funcHash)
}

// segKey is the engine's id for a digest: its hex form, on the stack.
func segKey(id *Digest) (buf [64]byte) {
	hex.Encode(buf[:], id[:])
	return buf
}

// segID is segKey as the string the engine indexes a put under.
func segID(id *Digest) string {
	buf := segKey(id)
	return string(buf[:])
}

// NewSegmentDisk opens (or creates) a segment-backed disk tier rooted
// at dir.
func NewSegmentDisk(dir string, opts ...SegmentDiskOption) (*SegmentDisk, error) {
	o := segment.Options{}
	for _, opt := range opts {
		opt(&o)
	}
	eng, err := segment.Open(dir, o)
	if err != nil {
		return nil, err
	}
	return &SegmentDisk{eng: eng}, nil
}

// Get is the one-key GetMany, decoded (getOne).
func (d *SegmentDisk) Get(ctx context.Context, k Key) (*engine.Result, bool) {
	return getOne(ctx, d, k)
}

// GetMany implements Store, addressing entries by ids alone: per key one
// index probe and one pread, into a buffer the caller then owns. A
// record that fails the strict decode (DecodeInto) — one under an older
// format tag, say — is a miss, like any other unreadable entry.
func (d *SegmentDisk) GetMany(_ context.Context, _ []Key, ids []Digest, out [][]byte) {
	hits := 0
	var scratch engine.Result
	for i := range ids {
		out[i] = nil
		id := segKey(&ids[i])
		if data, ok := d.eng.GetBytes(id[:]); ok && DecodeInto(&scratch, data) == nil {
			out[i] = data
			hits++
		}
	}
	d.hits.Add(int64(hits))
	d.misses.Add(int64(len(ids) - hits))
}

// Put is the one-key PutMany, encoding r (a result
// Encode writes no payload for is not stored).
func (d *SegmentDisk) Put(ctx context.Context, k Key, r *engine.Result) {
	d.PutMany(ctx, []Key{k}, []Digest{k.Digest()}, [][]byte{Encode(r)})
}

// PutMany implements Store, addressing entries by ids: one buffered
// append per payload, as given, in key order (the batched flusher makes
// them durable within the sync interval). An empty payload is skipped.
func (d *SegmentDisk) PutMany(_ context.Context, keys []Key, ids []Digest, payloads [][]byte) {
	for i, p := range payloads {
		if len(p) > 0 {
			d.eng.Put(segID(&ids[i]), segFuncTok(keys[i].FuncHash), p)
		}
	}
}

// InvalidateFuncs implements Store: one lock hold and one
// append batch for the whole hash set.
func (d *SegmentDisk) InvalidateFuncs(funcHashes []string) int {
	toks := make([]string, len(funcHashes))
	for i, fh := range funcHashes {
		toks[i] = segFuncTok(fh)
	}
	return d.eng.InvalidateFuncs(toks)
}

// StartCompactLoop runs one garbage-collection pass (TTL + byte budget +
// dead-segment rewrite) on a ticker until ctx is done (the
// daemon's signal context). onSweep (optional) observes each pass.
func (d *SegmentDisk) StartCompactLoop(ctx context.Context, ttl time.Duration, onSweep func(removed int, dur time.Duration)) {
	d.eng.StartCompactLoop(ctx, ttl, 0, func(dur time.Duration, res segment.CompactResult) {
		if onSweep != nil {
			onSweep(res.Total(), dur)
		}
	})
}

// Close syncs and closes the engine. Operations afterwards are misses.
func (d *SegmentDisk) Close() error { return d.eng.Close() }

// Stats implements Store. Entries and Bytes come straight from the
// engine's index — exact for the live set by construction, not
// delta-maintained.
func (d *SegmentDisk) Stats() Stats {
	es := d.eng.Stats()
	return Stats{
		Hits:        d.hits.Load(),
		Misses:      d.misses.Load(),
		Puts:        es.Puts,
		Evictions:   es.Evicted,
		Entries:     es.Entries,
		Bytes:       es.Bytes,
		Invalidated: es.Invalidated,
		Expired:     es.Expired,
	}
}
