package serve

import (
	"context"
	"errors"
	"log"
	"net/http"
	"time"

	"knighter/internal/obs"
	"knighter/internal/shard"
	"knighter/internal/store"
)

// CacheConfig is everything a kcached daemon is built from. Each field
// is the cmd/kcached flag of the same name (CacheDir is -cache-dir,
// FeedCap is -feed-cap, ...), with the flag's meaning, and the zero
// CacheConfig with a CacheDir is what kcached runs with only
// -cache-dir: a zero field selects the flag's default, and a negative
// one is an error that names the flag.
type CacheConfig struct {
	CacheDir      string
	CacheTTL      time.Duration
	CacheMaxBytes int64

	FeedCap int

	TraceRetain int
	TraceSample float64
	TraceSlow   time.Duration
}

// DefaultCacheConfig is the zero CacheConfig with its defaults filled
// in, which cmd/kcached's flags show.
func DefaultCacheConfig() CacheConfig {
	c, _ := CacheConfig{}.withDefaults()
	return c
}

// withDefaults fills every zero field with its default, and names the
// first negative one.
func (c CacheConfig) withDefaults() (CacheConfig, error) {
	var err error
	orDefault(&err, "-cache-ttl", &c.CacheTTL, 0)            // keep forever
	orDefault(&err, "-cache-max-bytes", &c.CacheMaxBytes, 0) // unbounded
	orDefault(&err, "-feed-cap", &c.FeedCap, shard.DefaultFeedCap)
	orDefault(&err, "-trace-retain", &c.TraceRetain, traceRetain)
	orDefault(&err, "-trace-sample", &c.TraceSample, traceSample)
	orDefault(&err, "-trace-slow", &c.TraceSlow, 250*time.Millisecond)
	return c, err
}

// Cache is the fleet cache daemon, kcached: it serves the
// content-addressed analysis-result store over HTTP so a fleet of kserve
// replicas shares one warm cache, and it is the fleet's one durable
// tier. It serves a store.Stack, as kserve does, whose front is the
// segment-packed disk store and which has no back, behind the
// store.CacheServer protocol. A replica's memory tier already holds
// what that replica reads again, and the OS page cache holds the hot
// part of the segment files, so kcached keeps no memory tier of its
// own: a fleet get is one index probe plus one pread into an
// append-only segment file, and a put is one append. Entries survive
// restarts (recovery is a single sequential segment scan). Keys are
// content addresses, so an entry can only ever be correct for the
// inputs that produced it; invalidation is garbage collection of
// unreachable keys, not a correctness mechanism.
//
// The generation feed (shard.Feed, POST /feed and GET /feed?from=N)
// rides beside the store because kcached is the one process every
// sharded replica already dials. It is a bounded in-memory ledger
// (FeedCap), not a durability mechanism.
//
// Every cache and feed request runs under the chassis kserve also
// mounts (obs.RequestObserver), so a coordinating kserve's
// GET /trace/{id} pulls kcached's retained fragments into the assembled
// cross-host tree.
type Cache struct {
	traces  *obs.TraceStore
	handler http.Handler
	// disk is the stack's one tier, whose compaction loop and final
	// sync the daemon owns.
	disk   *store.SegmentDisk
	stopGC context.CancelFunc
}

// NewCache opens the store in cfg.CacheDir, mounts the cache protocol and
// the generation feed, and starts the compaction loop. Call Close when
// done with it.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if cfg.CacheDir == "" {
		return nil, errors.New("serve: a cache daemon needs a cache directory (-cache-dir)")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// /metrics carries the same store_* families as kserve's, under the
	// kcached namespace with tier="disk".
	reg := obs.NewRegistry("kcached")
	gcSweep := reg.Histogram("gc_sweep_duration_seconds",
		"Wall time of one GC sweep over the backing store.", nil)
	disk, err := store.NewSegmentDisk(cfg.CacheDir, store.SegmentDiskMaxBytes(cfg.CacheMaxBytes))
	if err != nil {
		return nil, err
	}
	st := store.NewStack(reg, store.Tier{Name: "disk", Store: disk}, nil)
	c := &Cache{disk: disk, traces: obs.NewTraceStore(cfg.TraceRetain, cfg.TraceSample, cfg.TraceSlow)}
	ro := &obs.RequestObserver{Service: "kcached", Traces: c.traces}
	cs := store.NewCacheServer(st)
	cs.Observe(ro)
	cs.Register(reg)
	c.traces.Register(reg)
	feed := shard.NewFeed(cfg.FeedCap)
	feed.Register(reg)
	// Compaction always runs: even without a TTL or byte budget it
	// reclaims the dead bytes that overwrites and invalidations leave in
	// the segment log. Close stops it before the final sync.
	ctx, cancel := context.WithCancel(context.Background())
	c.stopGC = cancel
	disk.StartCompactLoop(ctx, cfg.CacheTTL, func(n int, dur time.Duration) {
		gcSweep.Observe(dur.Seconds())
		if n > 0 {
			log.Printf("kcached: GC removed %d entries in %s", n, dur)
		}
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/feed", ro.Wrap("feed", feed.Handler().ServeHTTP))
	// kcached never fans out: it is always a leaf of the request tree,
	// so its local fragment is the whole answer.
	mux.HandleFunc("GET /trace/{id}", c.traces.ServeTrace)
	mux.HandleFunc("GET /traces", c.traces.ServeList)
	mux.Handle("/", cs.Handler())
	c.handler = mux
	version, goVersion := obs.BuildVersion()
	boot := disk.Stats()
	log.Printf("kcached: %s (%s) serving %s (%d entries, %d bytes)",
		version, goVersion, cfg.CacheDir, boot.Entries, boot.Bytes)
	return c, nil
}

// Handler is the daemon's whole HTTP surface.
func (c *Cache) Handler() http.Handler { return c.handler }

// Close stops the compaction loop, then syncs and closes the disk tier —
// the flush window's tail is on disk, so the next boot recovers
// everything this one served — and logs the final counters. Call it
// after the listener has drained.
func (c *Cache) Close() error {
	c.stopGC()
	final := c.disk.Stats()
	err := c.disk.Close()
	log.Printf("kcached: final stats: entries=%d bytes=%d hits=%d misses=%d hit_rate=%.3f",
		final.Entries, final.Bytes, final.Hits, final.Misses, final.HitRate())
	return err
}
