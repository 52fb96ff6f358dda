// Command kcached is the fleet cache daemon: it serves the
// content-addressed analysis-result store over HTTP so a fleet of kserve
// replicas shares one warm cache. It is the fleet's one durable tier: a
// replica started with -cache-remote=http://kcached-host:8322 puts this
// daemon behind its in-memory tier and keeps no disk of its own, and
// this daemon answers from its segment log in -cache-dir, with no
// memory tier of its own (the OS page cache holds the hot segments). The
// second replica's first scan of a corpus its sibling already analyzed
// is then answered from here instead of recomputed, and so is a
// restarted replica's. It is flags in, internal/serve out:
// serve.NewCache builds the daemon and documents its design;
// internal/obs runs it until SIGINT/SIGTERM and drains it. The flags
// show the defaults of serve.DefaultCacheConfig.
//
// Usage:
//
//	kcached -cache-dir /var/cache/kcached
//	kcached -addr :8322 -cache-dir /var/cache/kcached -cache-ttl 72h -cache-max-bytes 1073741824
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
// Counters stay per entry, whatever a round trip carries.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"knighter/internal/obs"
	"knighter/internal/serve"
)

func main() {
	cfg := serve.DefaultCacheConfig()
	addr := flag.String("addr", ":8322", "listen address")
	flag.StringVar(&cfg.CacheDir, "cache-dir", "", "cache directory (required)")
	flag.DurationVar(&cfg.CacheTTL, "cache-ttl", 0, "drop entries older than this (0 = keep forever)")
	flag.Int64Var(&cfg.CacheMaxBytes, "cache-max-bytes", 0, "segment-log byte budget; compaction evicts oldest-first past it (0 = unbounded)")
	flag.IntVar(&cfg.FeedCap, "feed-cap", cfg.FeedCap, "generation-feed retention (entries); shards further behind than this cannot converge from the feed (0 selects the default)")
	flag.IntVar(&cfg.TraceRetain, "trace-retain", cfg.TraceRetain, "completed trace fragments retained for GET /trace/{id} (0 selects the default)")
	flag.Float64Var(&cfg.TraceSample, "trace-sample", cfg.TraceSample, "probability of retaining an unremarkable trace; slow and errored traces are always retained (0 selects the default)")
	flag.DurationVar(&cfg.TraceSlow, "trace-slow", cfg.TraceSlow, "always retain traces of requests at least this slow (0 selects the default)")
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
