package store

import (
	"context"
	"sync/atomic"
	"time"

	"knighter/internal/obs"
)

// Tier names one leaf of a Stack. The name is the tier's label on the
// store_* metric families.
type Tier struct {
	Name  string
	Store Store
}

// Stack is the one composite store: a front tier over at most one
// kcached. A deployment has one of three shapes — a single host (memory,
// no back), a fleet replica (memory over a *Remote: kcached) and kcached
// itself (its segment log, no back) — and everything it needs from the
// composition is a behaviour of this type:
//
//   - Get hands a range of keys and their digests to the front in one
//     call (a lock acquisition per 64 keys on *Memory, no hashing); the
//     keys it misses that the caller shares go to kcached as one range
//     (one round trip, none when it shares none), and kcached's hits
//     are promoted into the front with one putMany, as the payloads it
//     returned. Counters stay per key.
//   - Put hands a range of keys, their digests and their payloads to
//     the front, and the keys the caller shares to kcached, in one call
//     each, synchronously: a scan that returned has published every
//     result it shared. The scheduler shares only the results it
//     explored, so kcached holds loud results alone and a memory-cold
//     replica answers quiet pairs from its own gate. Puts count per key.
//   - GetMany and PutMany, the Store methods, are Get and Put with every
//     key shared.
//   - It moves payloads and never looks inside one: no encode, no
//     decode.
//   - Invalidation hands the whole hash set to each tier once; kcached
//     is invalidated off the caller's goroutine, so a corpus mutation
//     never waits on a round-trip. That is safe because remote
//     invalidation is garbage collection, not correctness: content
//     addressing means orphaned keys are never requested again.
//   - With a registry, each tier lands in the store_*{tier=name}
//     families (kcached's as tier="remote"). Requests, hits, misses and
//     puts count per key; latency is one store_op_duration_seconds
//     observation per tier call, the whole range of keys it carried.
type Stack struct {
	// back's Store is nil or a *Remote.
	front, back leaf

	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64
}

type leaf struct {
	Tier
	// getDur and putDur are nil without a registry.
	getDur, putDur *obs.Histogram
}

// NewStack puts front over back, the replica's kcached; a nil back means
// none. reg may be nil (no metrics).
//
// The request/hit/miss/put series are callback-backed: every tier
// already counts those events for its own Stats(), so they are read at
// scrape time instead of being counted twice. tier="stack" carries the
// request-level totals /stats reports.
func NewStack(reg *obs.Registry, front Tier, back *Remote) *Stack {
	s := &Stack{front: leaf{Tier: front}}
	if back != nil {
		s.back.Tier = Tier{"remote", back}
	}
	if reg == nil {
		return s
	}
	opDur := reg.HistogramVec("store_op_duration_seconds",
		"Latency of one store call against the tier: one call, a range of keys.", nil, "tier", "op")
	for _, l := range s.leaves() {
		registerTierCounters(reg, l.Name, l.Store.Stats)
		l.getDur, l.putDur = opDur.With(l.Name, "get"), opDur.With(l.Name, "put")
	}
	registerTierCounters(reg, "stack", s.Stats)
	return s
}

// leaves returns the front and, if there is one, the back.
func (s *Stack) leaves() []*leaf {
	if s.back.Store == nil {
		return []*leaf{&s.front}
	}
	return []*leaf{&s.front, &s.back}
}

func registerTierCounters(reg *obs.Registry, tier string, stats func() Stats) {
	for _, c := range []struct {
		name, help string
		pick       func(Stats) int64
	}{
		{"store_requests_total", "Store operations (gets + puts) that reached the tier.",
			func(s Stats) int64 { return s.Hits + s.Misses + s.Puts }},
		{"store_hits_total", "Gets answered by the tier.", func(s Stats) int64 { return s.Hits }},
		{"store_misses_total", "Gets the tier could not answer.", func(s Stats) int64 { return s.Misses }},
		{"store_puts_total", "Results written to the tier.", func(s Stats) int64 { return s.Puts }},
	} {
		reg.CounterVec(c.name, c.help, "tier").
			WithFunc(func() float64 { return float64(c.pick(stats())) }, tier)
	}
}

// getMany probes the leaf for a range of keys in one call, timed once.
func (l *leaf) getMany(ctx context.Context, keys []Key, ids []Digest, out [][]byte) {
	start := time.Now()
	l.Store.GetMany(ctx, keys, ids, out)
	observe(l.getDur, start)
}

// putMany stores a range of payloads in the leaf in one call, timed once.
func (l *leaf) putMany(ctx context.Context, keys []Key, ids []Digest, payloads [][]byte) {
	start := time.Now()
	l.Store.PutMany(ctx, keys, ids, payloads)
	observe(l.putDur, start)
}

// observe records the time since start in dur, which is nil without a
// registry.
func observe(dur *obs.Histogram, start time.Time) {
	if dur != nil {
		dur.Observe(time.Since(start).Seconds())
	}
}

// GetMany implements Store: Get with every key shared.
func (s *Stack) GetMany(ctx context.Context, keys []Key, ids []Digest, out [][]byte) {
	s.Get(ctx, keys, ids, out, nil)
}

// Get sets out[i] to the payload stored for keys[i], or to nil: the
// front answers the whole range in one call, by ids, and the keys it
// misses that share reports (each asked once, in key order, and only
// when there is a back; a nil share reports every key) go to the back
// as one range — promoted, counted once per key. A range the front
// answers whole, one that shares no miss, or any range on a stack with
// no back, allocates nothing and sends nothing.
func (s *Stack) Get(ctx context.Context, keys []Key, ids []Digest, out [][]byte, share func(i int) bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.front.getMany(ctx, keys, ids, out)
	hits := 0
	for _, p := range out {
		if p != nil {
			hits++
		}
	}
	if hits < len(keys) && s.back.Store != nil {
		hits += s.getBack(ctx, keys, ids, out, len(keys)-hits, share)
	}
	s.hits.Add(int64(hits))
	s.misses.Add(int64(len(keys) - hits))
}

// getBack sends the keys the front missed (the misses entries of out
// left nil) that share reports to the back as one range, sets the back's
// hits in out, promotes them into the front with one putMany, and
// returns how many there were.
func (s *Stack) getBack(ctx context.Context, keys []Key, ids []Digest, out [][]byte, misses int, share func(int) bool) int {
	var mk []Key
	var mi []Digest
	var at []int
	for i, p := range out {
		if p == nil && (share == nil || share(i)) {
			if mk == nil {
				mk, mi, at = make([]Key, 0, misses), make([]Digest, 0, misses), make([]int, 0, misses)
			}
			mk, mi, at = append(mk, keys[i]), append(mi, ids[i]), append(at, i)
		}
	}
	if len(mk) == 0 {
		return 0
	}
	mo := make([][]byte, len(mk))
	s.back.getMany(ctx, mk, mi, mo)
	// The back has returned: pack its hits, in key order, to the front
	// of the range it was handed.
	n := 0
	for j, p := range mo {
		if p != nil {
			out[at[j]] = p
			mk[n], mi[n], mo[n] = mk[j], mi[j], p
			n++
		}
	}
	if n > 0 {
		s.front.putMany(ctx, mk[:n], mi[:n], mo[:n])
	}
	return n
}

// PutMany implements Store: Put with every key shared.
func (s *Stack) PutMany(ctx context.Context, keys []Key, ids []Digest, payloads [][]byte) {
	s.Put(ctx, keys, ids, payloads, nil)
}

// Put stores the range in the front, and the keys share reports (a nil
// share reports every key) in the back, in one call each, by ids, so
// the front ends up as the same Puts in sequence leave it. The back has
// its keys, one round trip or none, before this returns: a scan that
// returned has published what it shared.
func (s *Stack) Put(ctx context.Context, keys []Key, ids []Digest, payloads [][]byte, share func(i int) bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.puts.Add(int64(len(keys)))
	s.front.putMany(ctx, keys, ids, payloads)
	if s.back.Store != nil {
		if share != nil {
			var sk []Key
			var si []Digest
			var sp [][]byte
			for i := range keys {
				if share(i) {
					sk, si, sp = append(sk, keys[i]), append(si, ids[i]), append(sp, payloads[i])
				}
			}
			keys, ids, payloads = sk, si, sp
		}
		if len(keys) > 0 {
			s.back.putMany(ctx, keys, ids, payloads)
		}
	}
}

// InvalidateFuncs implements Store: each tier gets the whole hash set in
// one call, kcached off the caller's goroutine. The count is the
// front's; kcached's round-trip finishes after this returns.
func (s *Stack) InvalidateFuncs(funcHashes []string) int {
	if s.back.Store != nil {
		go s.back.Store.InvalidateFuncs(funcHashes)
	}
	return s.InvalidateFront(funcHashes)
}

// InvalidateFront drops the entries of funcHashes from the front tier
// alone, for a commit whose shared-tier entries another process
// already dropped. It returns the front's count.
func (s *Stack) InvalidateFront(funcHashes []string) int {
	return s.front.Store.InvalidateFuncs(funcHashes)
}

// Stats implements Store. Hits, misses and puts are request-level (one
// per key of a GetMany or PutMany on the stack, however many tiers it
// touched). Every other count is the front's, plus the invalidations
// kcached reported: kcached keeps no books on a replica's behalf, so a
// replica reports its memory.
func (s *Stack) Stats() Stats {
	out := s.front.Store.Stats()
	out.Hits, out.Misses, out.Puts = s.hits.Load(), s.misses.Load(), s.puts.Load()
	if s.back.Store != nil {
		out.Invalidated += s.back.Store.Stats().Invalidated
	}
	return out
}
