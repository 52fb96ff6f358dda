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
//   - Get probes front to back and promotes a deeper hit into every
//     leaf in front of it. A network leaf (*Remote) with a leaf behind
//     it is raced against that leaf: a local hit never waits on the
//     network, a miss is declared only after both answered, and a
//     remote hit is promoted into the local leaf too.
//   - GetMany hands a range of keys and their digests to the front leaf
//     in one call (one lock acquisition on *Memory, no hashing); each
//     key it misses then takes Get's path through the leaves behind it.
//     Counters stay per key.
//   - Put writes through to every leaf. PutMany hands a range of keys
//     and their digests to the front leaf in one call (one lock
//     acquisition on *Memory, no hashing), then writes each key through
//     the leaves behind it as Put does. Puts count per key.
//   - Invalidation fans the whole hash set out to every leaf once;
//     network leaves are invalidated off the caller's goroutine, so a
//     corpus mutation never waits on a round-trip. That is safe because
//     remote invalidation is garbage collection, not correctness:
//     content addressing means orphaned keys are never requested again.
//   - With a registry, every leaf lands in the store_*{tier=name}
//     families. The in-memory leaf (*Memory) times one op in 16 — a
//     memory hit costs about as much as reading the clock — and leaves
//     that do I/O time every op. Under GetMany and PutMany a timed key
//     observes its share of the batched call (duration / keys), so the
//     get and put series stay one observation per key at per-key
//     latency.
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
	// sampled marks a *Memory: latency is measured for 1 key in 16.
	sampled bool
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
		_, l.sampled = t.Store.(*Memory)
		s.leaves[i] = l
	}
	if reg == nil {
		return s
	}
	opDur := reg.HistogramVec("store_op_duration_seconds",
		"Latency of one store operation against the tier.", nil, "tier", "op")
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
// orders tiers: memory in front, then the kcached client when remoteURL
// is set, then the segment disk tier when cacheDir is set. kserve
// passes what its flags say; kcached passes its directory and no
// remote.
func Open(reg *obs.Registry, cacheBytes int64, cacheDir string, diskMaxBytes int64, remoteURL string, rcfg RemoteConfig) (*Stack, error) {
	tiers := []Tier{{"memory", NewMemory(cacheBytes)}}
	if remoteURL != "" {
		r, err := NewRemote(remoteURL, rcfg)
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

// timed reports whether this op's latency is measured. The sampling
// decision derives from the key's content address rather than a shared
// counter, so the unsampled path touches no shared cache line: function
// hashes are hex, and '0' leads one in 16.
func (l *leaf) timed(k Key) bool {
	return l.getDur != nil && (!l.sampled || (k.FuncHash != "" && k.FuncHash[0] == '0'))
}

func (l *leaf) get(ctx context.Context, k Key) (*engine.Result, bool) {
	if !l.timed(k) {
		return l.Store.Get(ctx, k)
	}
	start := time.Now()
	r, ok := l.Store.Get(ctx, k)
	l.getDur.Observe(time.Since(start).Seconds())
	return r, ok
}

// getMany probes the leaf for a range of keys in one call.
func (l *leaf) getMany(ctx context.Context, keys []Key, ids []Digest, out []*engine.Result) {
	l.batched(keys, l.getDur, func() { GetMany(ctx, l.Store, keys, ids, out) })
}

// putMany stores a range of results in the leaf in one call.
func (l *leaf) putMany(ctx context.Context, keys []Key, ids []Digest, rs []*engine.Result) {
	l.batched(keys, l.putDur, func() { PutMany(ctx, l.Store, keys, ids, rs) })
}

// batched runs call, one call over a range of keys. Latency stays a
// per-key series: each key the leaf would time observes the call's
// duration divided by its key count — its amortized share of one lock
// acquisition.
func (l *leaf) batched(keys []Key, dur *obs.Histogram, call func()) {
	timed := 0
	for _, k := range keys {
		if l.timed(k) {
			timed++
		}
	}
	if timed == 0 {
		call()
		return
	}
	start := time.Now()
	call()
	perKey := time.Since(start).Seconds() / float64(len(keys))
	for ; timed > 0; timed-- {
		dur.Observe(perKey)
	}
}

func (l *leaf) put(ctx context.Context, k Key, r *engine.Result) {
	if !l.timed(k) {
		l.Store.Put(ctx, k, r)
		return
	}
	start := time.Now()
	l.Store.Put(ctx, k, r)
	l.putDur.Observe(time.Since(start).Seconds())
}

// Get implements Store.
func (s *Stack) Get(ctx context.Context, k Key) (*engine.Result, bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	return s.getFrom(ctx, 0, k)
}

// GetMany implements BatchGetter: the front leaf answers the whole range
// in one call, by ids, and each key it misses falls through the leaves
// behind it exactly as Get does — by Key, raced, promoted, counted once
// per key. A network front leaf is raced per key, so then every key
// takes Get's path from the front.
func (s *Stack) GetMany(ctx context.Context, keys []Key, ids []Digest, out []*engine.Result) {
	if ctx == nil {
		ctx = context.Background()
	}
	first := 0
	if len(s.leaves) > 0 && !s.leaves[0].network {
		s.leaves[0].getMany(ctx, keys, ids, out)
		first = 1
	} else {
		clear(out)
	}
	hits := int64(0)
	for i, k := range keys {
		if out[i] != nil {
			hits++
			continue
		}
		out[i], _ = s.getFrom(ctx, first, k)
	}
	s.hits.Add(hits)
}

// getFrom probes the leaves from index first on, promotes a hit into
// every leaf in front of the one that answered, and counts the key as
// one stack-level hit or miss.
func (s *Stack) getFrom(ctx context.Context, first int, k Key) (*engine.Result, bool) {
	for i := first; i < len(s.leaves); i++ {
		l, front := &s.leaves[i], s.leaves[:i]
		var r *engine.Result
		var ok bool
		if l.network && i+1 < len(s.leaves) {
			r, ok = race(ctx, k, l, &s.leaves[i+1])
			i++
		} else {
			r, ok = l.get(ctx, k)
		}
		if !ok {
			continue
		}
		for j := range front {
			front[j].put(ctx, k, r)
		}
		s.hits.Add(1)
		return r, true
	}
	s.misses.Add(1)
	return nil, false
}

// race probes a network leaf and the local leaf behind it together.
// The local probe runs on the caller's goroutine: a local hit returns
// at local-I/O speed and cancels the round-trip (which the remote tier
// counts as abandoned, not failed); a local miss waits for the remote
// answer, and a remote hit is written into the local leaf so the next
// restart or kcached outage serves it locally.
func race(ctx context.Context, k Key, remote, local *leaf) (*engine.Result, bool) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type answer struct {
		r  *engine.Result
		ok bool
	}
	ch := make(chan answer, 1)
	go func() {
		r, ok := remote.get(rctx, k)
		ch <- answer{r, ok}
	}()
	if r, ok := local.get(ctx, k); ok {
		return r, true
	}
	a := <-ch
	if a.ok {
		local.put(ctx, k, a.r)
	}
	return a.r, a.ok
}

// Put implements Store: write through to every leaf.
func (s *Stack) Put(ctx context.Context, k Key, r *engine.Result) {
	for i := range s.leaves {
		s.leaves[i].put(ctx, k, r)
	}
	s.puts.Add(1)
}

// PutMany implements BatchPutter: the front leaf takes the whole range
// in one call, by ids, and every leaf behind it takes the keys one Put at
// a time, in order — so each leaf ends up as the same Puts in sequence
// leave it. A network front leaf takes them one at a time too.
func (s *Stack) PutMany(ctx context.Context, keys []Key, ids []Digest, rs []*engine.Result) {
	first := 0
	if len(s.leaves) > 0 && !s.leaves[0].network {
		s.leaves[0].putMany(ctx, keys, ids, rs)
		first = 1
	}
	for j := first; j < len(s.leaves); j++ {
		for i, k := range keys {
			s.leaves[j].put(ctx, k, rs[i])
		}
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
// per Get or Put on the stack, however many leaves it touched);
// evictions, invalidations and expiries are summed over the leaves.
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
