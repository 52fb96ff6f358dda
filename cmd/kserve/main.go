// Command kserve is the incremental scan service: an HTTP daemon that
// holds a parsed codebase and a shared content-addressed analysis cache
// in memory, so many checker runs amortize one parse and one cache. It
// is flags in, internal/serve out: that package builds the replica and
// documents its design; internal/obs runs it until SIGINT/SIGTERM and
// drains it. With no flags it runs the zero serve.Config, whose
// defaults (serve.DefaultConfig) the flags show.
//
// Usage:
//
//	kserve                         # serve the synthetic corpus on :8321
//	kserve -addr :9000 -scale 0.5
//	kserve -cache-remote http://cache-host:8322   # share results fleet-wide via kcached
//	kserve -cache-remote http://localhost:8322    # restart warm: kcached beside a single host
//	kserve -max-inflight 8 -max-queued 32 -max-queued-writes 8
//	kserve -shard-index 0 -shard-count 3 -peers http://a:8321,http://b:8321,http://c:8321 \
//	       -cache-remote http://cache-host:8322   # sharded fleet member
//
// Endpoints:
//
//	POST /scan             {"checker": "<DSL text>", "files": [...], "min_generation": n, ...}
//	POST /batch            {"checkers": ["<DSL>", ...], ...}
//	POST /shard/batch      a coordinator's shard-local sub-batch, binary reply (sharded only; own gate, not the read gate)
//	POST /changeset        {"changes": [{"path", "func?", "source"}, ...]} -> committed generation
//	POST /converge         replay the generation feed to catch this shard up
//	                       (?generation=n: only if still behind n)
//	GET  /trace/{id}       assembled cross-host span tree (?format=text for a waterfall)
//	GET  /traces           local tail-sampled trace index (?limit=N&slow=1)
//	GET  /stats            cache + service + admission (+ shard) counters
//	GET  /metrics          Prometheus exposition
//	GET  /healthz          liveness
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
	cfg := serve.DefaultConfig()
	addr := flag.String("addr", ":8321", "listen address")
	flag.Int64Var(&cfg.Seed, "seed", 1, "corpus seed")
	flag.Float64Var(&cfg.Scale, "scale", cfg.Scale, "corpus scale (0 selects the default)")
	flag.Int64Var(&cfg.CacheBytes, "cache-bytes", cfg.CacheBytes, "in-memory cache budget in entry weight: each entry's binary payload plus 100 B of per-entry overhead, so it bounds resident memory (0 selects the default)")
	flag.StringVar(&cfg.CacheRemote, "cache-remote", "", "kcached URL for the shared fleet cache tier and the generation feed (e.g. http://cache-host:8322); required with -shard-count > 1")
	flag.IntVar(&cfg.MaxInflight, "max-inflight", cfg.MaxInflight, "max concurrent read requests (/scan, /batch) (0 selects the default)")
	flag.IntVar(&cfg.MaxQueued, "max-queued", cfg.MaxQueued, "max read requests waiting for an inflight slot before shedding with 429 (0 selects the default)")
	flag.IntVar(&cfg.MaxQueuedWrites, "max-queued-writes", cfg.MaxQueuedWrites, "max write requests (/changeset, /converge) waiting before shedding with 429; writes run one at a time (0 selects the default)")
	flag.IntVar(&cfg.ShardIndex, "shard-index", 0, "this replica's shard index within the fleet (with -shard-count)")
	flag.IntVar(&cfg.ShardCount, "shard-count", cfg.ShardCount, "number of corpus shards; > 1 enables scatter/gather fan-out (0 selects the default)")
	flag.StringVar(&cfg.Peers, "peers", "", "comma-separated shard base URLs in shard-index order (required when -shard-count > 1; entry -shard-index names this replica)")
	flag.DurationVar(&cfg.SlowScan, "slow-scan", 0, "log a structured slow-request report (trace id + stage timeline) for requests slower than this (0 = off); also the trace store's always-keep slow threshold")
	flag.IntVar(&cfg.TraceRetain, "trace-retain", cfg.TraceRetain, "completed traces retained for GET /trace/{id} (0 selects the default)")
	flag.Float64Var(&cfg.TraceSample, "trace-sample", cfg.TraceSample, "probability of retaining an unremarkable trace; slow, errored, and degraded traces are always retained (0 selects the default)")
	pprofAddr := flag.String("pprof-addr", "", "optional side listen address for net/http/pprof (e.g. localhost:6060); never exposed on the main port")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		v, gv := obs.BuildVersion()
		fmt.Printf("kserve %s (%s)\n", v, gv)
		return
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kserve:", err)
		os.Exit(1)
	}
	if err := obs.Serve("kserve", *addr, *pprofAddr, srv.Handler()); err != nil {
		log.Fatal("kserve: ", err)
	}
	srv.Close()
}
