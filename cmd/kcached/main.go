// Command kcached is the fleet cache daemon: it serves the
// content-addressed analysis-result store over HTTP so a fleet of kserve
// replicas shares one warm cache. A replica started with
// -cache-remote=http://kcached-host:8322 composes this daemon between
// its in-memory tier and its (optional) local disk tier; the second
// replica's first scan of a corpus its sibling already analyzed is then
// answered from here instead of recomputed.
//
// The daemon serves the same store.Stack kserve does, built by the same
// constructor with no remote: a memory tier over the segment-packed
// disk store (internal/store/segment), behind the store.CacheServer
// protocol. A fleet GET that misses memory is one index probe plus one
// pread into an append-only segment file, and entries survive restarts
// (recovery is a single sequential segment scan).
// Consistency needs no coordination — keys are content addresses, so an
// entry can only ever be correct for the inputs that produced it;
// invalidation (POST /invalidate, issued by replicas applying
// changesets) is garbage collection of unreachable keys, not a
// correctness mechanism.
//
// Usage:
//
//	kcached -cache-dir /var/cache/kcached
//	kcached -addr :8322 -cache-ttl 72h -cache-max-bytes 1073741824
//	kcached -cache-dir /var/cache/kcached -pprof-addr localhost:6061
//
// Endpoints:
//
//	GET  /entry/{id}?fh=&ck=&eng=   cached result (200) or miss (404)
//	PUT  /entry/{id}?fh=&ck=&eng=   store a result (204)
//	POST /invalidate                {"func_hashes": [...]}
//	POST /feed                      publish a fleet changeset commit
//	GET  /feed?from=N               pull commits a shard missed
//	GET  /trace/{id}                retained trace fragment (tail-sampled)
//	GET  /traces?limit=N&slow=1     local trace index
//	GET  /stats                     store + request counters
//	GET  /metrics                   Prometheus text exposition
//	GET  /healthz                   liveness
//
// The /feed pair is the sharded fleet's generation feed (see
// internal/shard): a kserve coordinator that commits a changeset
// publishes (generation, changes) here, and a shard owner that detects
// it is behind pulls and replays the entries it missed. The feed is a
// bounded in-memory ledger (-feed-cap), not a durability mechanism —
// a shard that falls out of the retention window must be reseeded.
//
// Every cache and feed request runs under the daemon chassis kserve
// also mounts (obs.RequestObserver): it is access-logged with its
// X-Trace-Id (the caller's — a kserve replica's remote tier — or a
// minted one) and records a span fragment attached under the caller's
// X-Span-Id. A coordinating kserve's GET /trace/{id} pulls the retained
// fragments (-trace-retain) into the assembled cross-host tree, so the
// kcached leg of a slow scan shows up as spans, not as grep homework.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"knighter/internal/obs"
	"knighter/internal/shard"
	"knighter/internal/store"
)

func main() {
	addr := flag.String("addr", ":8322", "listen address")
	cacheDir := flag.String("cache-dir", "", "cache directory (required)")
	cacheTTL := flag.Duration("cache-ttl", 0, "drop entries older than this (0 = keep forever)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "disk byte budget; compaction evicts oldest-first past it (0 = unbounded)")
	cacheBytes := flag.Int64("cache-bytes", store.DefaultMemoryBytes, "memory front-tier budget in entry weight: each entry's binary payload plus 128 B of per-entry overhead (0 = library default)")
	feedCap := flag.Int("feed-cap", shard.DefaultFeedCap, "generation-feed retention (entries); shards further behind than this cannot converge from the feed")
	traceRetain := flag.Int("trace-retain", 512, "completed trace fragments retained for GET /trace/{id} (0 retains none)")
	traceSample := flag.Float64("trace-sample", 0.05, "probability of retaining an unremarkable trace; slow and errored traces are always retained")
	traceSlow := flag.Duration("trace-slow", 250*time.Millisecond, "always retain traces of requests at least this slow (0 disables the slow class)")
	pprofAddr := flag.String("pprof-addr", "", "optional side listen address for net/http/pprof (e.g. localhost:6061); never exposed on the main port")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	version, goVersion := obs.BuildVersion()
	if *showVersion {
		fmt.Printf("kcached %s (%s)\n", version, goVersion)
		return
	}
	if *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "kcached: -cache-dir is required")
		os.Exit(2)
	}
	// A hot fleet GET never touches the segment log at all; a warm one
	// is an index probe plus one pread. /metrics carries the same
	// store_* families as kserve's, under the kcached namespace with
	// tier="memory" and tier="disk".
	reg := obs.NewRegistry("kcached")
	gcSweep := reg.Histogram("gc_sweep_duration_seconds",
		"Wall time of one GC sweep over the backing store.", nil)
	st, err := store.Open(reg, *cacheBytes, *cacheDir, *cacheMaxBytes, "", store.RemoteConfig{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kcached:", err)
		os.Exit(1)
	}
	disk := st.Disk()
	ro := &obs.RequestObserver{
		Service: "kcached",
		Traces:  obs.NewTraceStore(*traceRetain, *traceSample, *traceSlow),
	}
	cs := store.NewCacheServer(st)
	cs.Observe(ro)
	cs.Register(reg)
	// The generation feed rides on the cache daemon because it is the
	// one process every sharded replica already dials.
	feed := shard.NewFeed(*feedCap)
	feed.Register(reg)
	// Compaction always runs: even without a TTL or byte budget it
	// reclaims the dead bytes that overwrites and invalidations leave in
	// the segment log. It stops before the final sync.
	ctx, stopCompaction := context.WithCancel(context.Background())
	disk.StartCompactLoop(ctx, *cacheTTL, func(n int, dur time.Duration) {
		gcSweep.Observe(dur.Seconds())
		if n > 0 {
			log.Printf("kcached: GC removed %d entries in %s", n, dur)
		}
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/feed", ro.Wrap("feed", feed.Handler().ServeHTTP))
	mux.Handle("/", cs.Handler())
	boot := disk.Stats()
	log.Printf("kcached: %s (%s) serving %s (%d entries, %d bytes) on %s",
		version, goVersion, *cacheDir, boot.Entries, boot.Bytes, *addr)
	if err := obs.Serve("kcached", *addr, *pprofAddr, mux); err != nil {
		log.Fatal("kcached: ", err)
	}
	stopCompaction()
	final := disk.Stats()
	// Final sync: the flush window's tail is on disk before exit, so
	// the next boot recovers everything this one served.
	if err := disk.Close(); err != nil {
		log.Printf("kcached: disk close: %v", err)
	}
	log.Printf("kcached: final stats: entries=%d bytes=%d hits=%d misses=%d hit_rate=%.3f",
		final.Entries, final.Bytes, final.Hits, final.Misses, final.HitRate())
}
