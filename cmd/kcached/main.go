// Command kcached is the fleet cache daemon: it serves the
// content-addressed analysis-result store over HTTP so a fleet of kserve
// replicas shares one warm cache. A replica started with
// -cache-remote=http://kcached-host:8322 composes this daemon between
// its in-memory tier and its (optional) local disk tier; the second
// replica's first scan of a corpus its sibling already analyzed is then
// answered from here instead of recomputed. It is flags in,
// internal/serve out: serve.NewCache builds the daemon and documents its
// design; internal/obs runs it until SIGINT/SIGTERM and drains it.
//
// Usage:
//
//	kcached -cache-dir /var/cache/kcached
//	kcached -addr :8322 -cache-ttl 72h -cache-max-bytes 1073741824
//	kcached -cache-dir /var/cache/kcached -pprof-addr localhost:6061
//
// Endpoints:
//
//	POST /entries/get               a range of keys -> a record or a miss per key
//	POST /entries/put               a range of keys and records -> 204
//	POST /invalidate                {"func_hashes": [...]}
//	POST /feed                      publish a fleet changeset commit
//	GET  /feed?from=N               pull commits a shard missed
//	GET  /trace/{id}                retained trace fragment (tail-sampled)
//	GET  /traces?limit=N&slow=1     local trace index
//	GET  /stats                     store + request counters
//	GET  /metrics                   Prometheus text exposition
//	GET  /healthz                   liveness
//
// The entry routes carry binary bodies in the result codec every store
// tier uses, never JSON: store.CacheServer documents the framing.
// Counters stay per entry, whatever a round trip carries. A replica
// from before these routes (per-key GET/PUT /entry/{id}) gets 404s here
// and degrades to local misses through its breaker.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"knighter/internal/obs"
	"knighter/internal/serve"
	"knighter/internal/shard"
	"knighter/internal/store"
)

func main() {
	var cfg serve.CacheConfig
	addr := flag.String("addr", ":8322", "listen address")
	flag.StringVar(&cfg.CacheDir, "cache-dir", "", "cache directory (required)")
	flag.DurationVar(&cfg.CacheTTL, "cache-ttl", 0, "drop entries older than this (0 = keep forever)")
	flag.Int64Var(&cfg.CacheMaxBytes, "cache-max-bytes", 0, "disk byte budget; compaction evicts oldest-first past it (0 = unbounded)")
	flag.Int64Var(&cfg.CacheBytes, "cache-bytes", store.DefaultMemoryBytes, "memory front-tier budget in entry weight: each entry's binary payload plus 128 B of per-entry overhead (0 = library default)")
	flag.IntVar(&cfg.FeedCap, "feed-cap", shard.DefaultFeedCap, "generation-feed retention (entries); shards further behind than this cannot converge from the feed")
	flag.IntVar(&cfg.TraceRetain, "trace-retain", 512, "completed trace fragments retained for GET /trace/{id} (0 retains none)")
	flag.Float64Var(&cfg.TraceSample, "trace-sample", 0.05, "probability of retaining an unremarkable trace; slow and errored traces are always retained")
	flag.DurationVar(&cfg.TraceSlow, "trace-slow", 250*time.Millisecond, "always retain traces of requests at least this slow (0 disables the slow class)")
	pprofAddr := flag.String("pprof-addr", "", "optional side listen address for net/http/pprof (e.g. localhost:6061); never exposed on the main port")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		v, gv := obs.BuildVersion()
		fmt.Printf("kcached %s (%s)\n", v, gv)
		return
	}
	c, err := serve.NewCache(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kcached:", err)
		os.Exit(1)
	}
	if err := obs.Serve("kcached", *addr, *pprofAddr, c.Handler()); err != nil {
		log.Fatal("kcached: ", err)
	}
	if err := c.Close(); err != nil {
		log.Printf("kcached: disk close: %v", err)
	}
}
