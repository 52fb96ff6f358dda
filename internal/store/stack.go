package store

import (
	"context"
	"sync/atomic"
	"time"

	"knighter/internal/engine"
	"knighter/internal/obs"
)

// Tier names one leaf of a Stack. The name is the tier's label on the
// store_* metric families.
type Tier struct {
	Name  string
	Store Store
}

// Stack is the one composite store: an ordered list of leaf tiers,
// fastest first. Everything a deployment needs from the composition is
// a behaviour of this type, chosen from the leaves it was given:
//
//   - GetMany hands a range of keys and their digests to the front leaf
//     in one call (one lock acquisition on *Memory, no hashing); the
//     keys it misses go on to the leaves behind it as one range, and a
//     deeper hit is promoted into every leaf in front of it with one
//     putMany per leaf. A network leaf (*Remote) takes a range in one
//     round trip, and with a leaf behind it, it is raced against that
//     leaf: the local leaf probes the range while the round trip is in
//     flight, a range the local leaf answers whole never waits on the
//     network, and the remote's hits are promoted into the local leaf
//     too. Get is the one-key GetMany. Counters stay per key.
//   - PutMany hands a range of keys and their digests to every leaf in
//     one call each (one lock acquisition on *Memory, one round trip on
//     *Remote), synchronously: a scan that returned has published. Put
//     is the one-key PutMany. Puts count per key.
//   - Invalidation fans the whole hash set out to every leaf once;
//     network leaves are invalidated off the caller's goroutine, so a
//     corpus mutation never waits on a round-trip. That is safe because
//     remote invalidation is garbage collection, not correctness:
//     content addressing means orphaned keys are never requested again.
//   - With a registry, every leaf lands in the store_*{tier=name}
//     families. Requests, hits, misses and puts count per key; latency
//     is one store_op_duration_seconds observation per leaf call, the
//     whole range of keys it carried, on every leaf alike.
type Stack struct {
	leaves []leaf

	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64
}

type leaf struct {
	Tier
	// network marks a *Remote: raced, invalidated asynchronously, and
	// without entry books of its own (they belong to kcached).
	network bool
	// getDur and putDur are nil without a registry.
	getDur, putDur *obs.Histogram
}

// NewStack composes tiers, fastest first. reg may be nil (no metrics).
//
// The request/hit/miss/put series are callback-backed: every leaf
// already counts those events for its own Stats(), so they are read at
// scrape time instead of being counted twice. tier="stack" carries the
// request-level totals /stats reports.
func NewStack(reg *obs.Registry, tiers ...Tier) *Stack {
	s := &Stack{leaves: make([]leaf, len(tiers))}
	for i, t := range tiers {
		l := leaf{Tier: t}
		_, l.network = t.Store.(*Remote)
		s.leaves[i] = l
	}
	if reg == nil {
		return s
	}
	opDur := reg.HistogramVec("store_op_duration_seconds",
		"Latency of one store call against the tier: one call, a range of keys.", nil, "tier", "op")
	for i := range s.leaves {
		l := &s.leaves[i]
		registerTierCounters(reg, l.Name, l.Store.Stats)
		l.getDur, l.putDur = opDur.With(l.Name, "get"), opDur.With(l.Name, "put")
	}
	registerTierCounters(reg, "stack", s.Stats)
	return s
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

// Open builds the store both daemons serve from — the one place that
// orders tiers: memory in front, then the kcached client (with
// RemoteConfig's defaults) when remoteURL is set, then the segment disk
// tier when cacheDir is set. kserve passes what its flags say; kcached
// passes its directory and no remote.
func Open(reg *obs.Registry, cacheBytes int64, cacheDir string, diskMaxBytes int64, remoteURL string) (*Stack, error) {
	tiers := []Tier{{"memory", NewMemory(cacheBytes)}}
	if remoteURL != "" {
		r, err := NewRemote(remoteURL, RemoteConfig{})
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, Tier{"remote", r})
	}
	if cacheDir != "" {
		d, err := NewSegmentDisk(cacheDir, SegmentDiskMaxBytes(diskMaxBytes))
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, Tier{"disk", d})
	}
	return NewStack(reg, tiers...), nil
}

// Remote returns the stack's network leaf, or nil.
func (s *Stack) Remote() *Remote {
	for _, l := range s.leaves {
		if r, ok := l.Store.(*Remote); ok {
			return r
		}
	}
	return nil
}

// Disk returns the stack's segment disk leaf, or nil. The caller owns
// its compaction loop and Close.
func (s *Stack) Disk() *SegmentDisk {
	for _, l := range s.leaves {
		if d, ok := l.Store.(*SegmentDisk); ok {
			return d
		}
	}
	return nil
}

// getMany probes the leaf for a range of keys in one call, timed once.
func (l *leaf) getMany(ctx context.Context, keys []Key, ids []Digest, out []*engine.Result) {
	start := time.Now()
	l.Store.GetMany(ctx, keys, ids, out)
	observe(l.getDur, start)
}

// putMany stores a range of results in the leaf in one call, timed once.
func (l *leaf) putMany(ctx context.Context, keys []Key, ids []Digest, rs []*engine.Result) {
	start := time.Now()
	l.Store.PutMany(ctx, keys, ids, rs)
	observe(l.putDur, start)
}

// observe records the time since start in dur, which is nil without a
// registry.
func observe(dur *obs.Histogram, start time.Time) {
	if dur != nil {
		dur.Observe(time.Since(start).Seconds())
	}
}

// Get is the one-key GetMany.
func (s *Stack) Get(ctx context.Context, k Key) (*engine.Result, bool) {
	var out [1]*engine.Result
	s.GetMany(ctx, []Key{k}, []Digest{k.Digest()}, out[:])
	return out[0], out[0] != nil
}

// GetMany implements Store: the front leaf answers the whole range
// in one call, by ids, and the keys it misses go on, as one range, to the
// leaves behind it — raced, promoted, counted once per key.
func (s *Stack) GetMany(ctx context.Context, keys []Key, ids []Digest, out []*engine.Result) {
	if ctx == nil {
		ctx = context.Background()
	}
	hits := s.getFrom(ctx, 0, keys, ids, out)
	s.hits.Add(int64(hits))
	s.misses.Add(int64(len(keys) - hits))
}

// getFrom answers keys from the leaves from index first on, setting
// out[i] or leaving it nil; promotes every hit into each leaf in front
// of the one that answered it; and returns the hit count. A level that
// answers every key, or the last level, allocates nothing.
func (s *Stack) getFrom(ctx context.Context, first int, keys []Key, ids []Digest, out []*engine.Result) int {
	if first == len(s.leaves) {
		clear(out)
		return 0
	}
	l, next := &s.leaves[first], first+1
	if l.network && next < len(s.leaves) {
		race(ctx, l, &s.leaves[next], keys, ids, out)
		next++
	} else {
		l.getMany(ctx, keys, ids, out)
	}
	hits := len(keys) - misses(out)
	if first > 0 && hits > 0 {
		hk, hi, hr := pick(keys, ids, out, true)
		for j := range s.leaves[:first] {
			s.leaves[j].putMany(ctx, hk, hi, hr)
		}
	}
	if hits == len(keys) || next == len(s.leaves) {
		return hits
	}
	mk, mi, mo := pick(keys, ids, out, false)
	hits += s.getFrom(ctx, next, mk, mi, mo)
	for i, j := 0, 0; j < len(mo); i++ {
		if out[i] == nil {
			out[i], j = mo[j], j+1
		}
	}
	return hits
}

// misses returns how many of out are nil.
func misses(out []*engine.Result) int {
	n := 0
	for _, r := range out {
		if r == nil {
			n++
		}
	}
	return n
}

// pick returns the keys, ids and results at the positions where out is
// set (hit) or nil (!hit); for misses the results are fresh nils.
func pick(keys []Key, ids []Digest, out []*engine.Result, hit bool) ([]Key, []Digest, []*engine.Result) {
	var pk []Key
	var pi []Digest
	var pr []*engine.Result
	for i, r := range out {
		if (r != nil) == hit {
			pk, pi, pr = append(pk, keys[i]), append(pi, ids[i]), append(pr, r)
		}
	}
	return pk, pi, pr
}

// race probes a network leaf and the local leaf behind it together, for
// a whole range. The local probe runs on the caller's goroutine while
// the round trip is in flight. If it answers every key, the round trip
// is canceled (the remote tier counts it abandoned, not failed) and
// waited for only until it aborts; otherwise the remote answers the
// keys it missed, and those hits are written into the local leaf, so
// the next restart or kcached outage serves them locally.
func race(ctx context.Context, remote, local *leaf, keys []Key, ids []Digest, out []*engine.Result) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rout := make([]*engine.Result, len(keys))
	done := make(chan struct{})
	go func() {
		remote.getMany(rctx, keys, ids, rout)
		close(done)
	}()
	local.getMany(ctx, keys, ids, out)
	if misses(out) == 0 {
		cancel()
	}
	<-done
	for i, r := range out {
		if r != nil {
			rout[i] = nil // the local leaf answered this key
		} else {
			out[i] = rout[i]
		}
	}
	if hk, hi, hr := pick(keys, ids, rout, true); len(hk) > 0 {
		local.putMany(ctx, hk, hi, hr)
	}
}

// Put is the one-key PutMany.
func (s *Stack) Put(ctx context.Context, k Key, r *engine.Result) {
	s.PutMany(ctx, []Key{k}, []Digest{k.Digest()}, []*engine.Result{r})
}

// PutMany implements Store: every leaf takes the whole range in one
// call, by ids, so each ends up as the same Puts in sequence leave it. A
// network leaf publishes the range in one round trip before this
// returns: a scan that returned has published.
func (s *Stack) PutMany(ctx context.Context, keys []Key, ids []Digest, rs []*engine.Result) {
	if ctx == nil {
		ctx = context.Background()
	}
	for i := range s.leaves {
		s.leaves[i].putMany(ctx, keys, ids, rs)
	}
	s.puts.Add(int64(len(keys)))
}

// InvalidateFuncs implements Store: every leaf gets the whole hash set
// in one call. The count covers the local leaves only; a network leaf's
// round-trip finishes after this returns.
func (s *Stack) InvalidateFuncs(funcHashes []string) int {
	n := 0
	for _, l := range s.leaves {
		if l.network {
			go l.Store.InvalidateFuncs(funcHashes)
			continue
		}
		n += l.Store.InvalidateFuncs(funcHashes)
	}
	return n
}

// Stats implements Store. Hits, misses and puts are request-level (one
// per key of a GetMany or PutMany on the stack, however many leaves it
// touched); evictions, invalidations and expiries are summed over the
// leaves.
// Entries and Bytes come from the deepest leaf that keeps its own books
// — writes go through and reads promote, so it holds a superset of the
// leaves in front and summing would double-count — which skips network
// leaves: a replica with only memory and kcached reports its memory.
func (s *Stack) Stats() Stats {
	out := Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), Puts: s.puts.Load()}
	for _, l := range s.leaves {
		ls := l.Store.Stats()
		out.Evictions += ls.Evictions
		out.Invalidated += ls.Invalidated
		out.Expired += ls.Expired
		if !l.network {
			out.Entries, out.Bytes = ls.Entries, ls.Bytes
		}
	}
	return out
}
