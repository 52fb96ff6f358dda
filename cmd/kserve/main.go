// Command kserve is the incremental scan service: an HTTP daemon that
// holds a parsed codebase and a shared content-addressed analysis cache
// in memory, so many checker runs amortize one parse and one cache. It
// is flags in, internal/serve out: that package builds the replica and
// documents its design; internal/obs runs it until SIGINT/SIGTERM and
// drains it.
//
// Usage:
//
//	kserve                         # serve the synthetic corpus on :8321
//	kserve -addr :9000 -scale 0.5
//	kserve -cache-dir /var/cache/kserve -cache-ttl 72h -cache-max-bytes 268435456
//	kserve -cache-remote http://cache-host:8322   # share results fleet-wide via kcached
//	kserve -max-inflight 8 -max-queued 32 -max-queued-per-client 4
//	kserve -max-inflight-writes 1 -max-queued-writes 32
//	kserve -max-cost 100000        # weighted read budget: sum of checkers x files
//	kserve -shard-index 0 -shard-count 3 -peers http://a:8321,http://b:8321,http://c:8321 \
//	       -cache-remote http://cache-host:8322   # sharded fleet member
//
// Endpoints:
//
//	POST /scan             {"checker": "<DSL text>", "files": [...], "min_generation": n, ...}
//	POST /batch            {"checkers": ["<DSL>", ...], ...}
//	POST /changeset        {"changes": [{"path", "func?", "source"}, ...]} -> committed generation
//	POST /converge         replay the generation feed to catch this shard up
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
	"runtime"

	"knighter/internal/obs"
	"knighter/internal/serve"
)

func main() {
	var cfg serve.Config
	addr := flag.String("addr", ":8321", "listen address")
	flag.Int64Var(&cfg.Seed, "seed", 1, "corpus seed")
	flag.Float64Var(&cfg.Scale, "scale", 1.0, "corpus scale")
	flag.Int64Var(&cfg.CacheBytes, "cache-bytes", 0, "in-memory cache budget in entry weight: each entry's binary payload plus 128 B of per-entry overhead, so it bounds resident memory (0 = default 64 MiB)")
	flag.StringVar(&cfg.CacheDir, "cache-dir", "", "optional on-disk cache tier directory")
	flag.DurationVar(&cfg.CacheTTL, "cache-ttl", 0, "drop disk-tier entries older than this (0 = keep forever)")
	flag.Int64Var(&cfg.CacheMaxBytes, "cache-max-bytes", 0, "disk-tier byte budget; GC evicts oldest-first past it (0 = unbounded)")
	flag.StringVar(&cfg.CacheRemote, "cache-remote", "", "optional kcached URL for the shared fleet cache tier (e.g. http://cache-host:8322)")
	flag.IntVar(&cfg.MaxInflight, "max-inflight", runtime.GOMAXPROCS(0), "max concurrent read requests (/scan, /batch) (0 = unlimited, no admission control)")
	flag.IntVar(&cfg.MaxQueued, "max-queued", 64, "max read requests waiting for an inflight slot before shedding with 429")
	flag.IntVar(&cfg.MaxQueuedPerClient, "max-queued-per-client", 16, "max queued requests per client key (X-Client-ID header or remote address; 0 = unbounded)")
	flag.IntVar(&cfg.MaxInflightWrites, "max-inflight-writes", 1, "max concurrent write requests (/changeset, /converge); writes serialize on the corpus commit lock anyway (0 = ungated)")
	flag.IntVar(&cfg.MaxQueuedWrites, "max-queued-writes", 32, "max write requests waiting before shedding with 429")
	flag.Int64Var(&cfg.MaxCost, "max-cost", 0, "max summed cost weight (checkers x files) of admitted read requests (0 = unweighted admission)")
	flag.IntVar(&cfg.ShardIndex, "shard-index", 0, "this replica's shard index within the fleet (with -shard-count)")
	flag.IntVar(&cfg.ShardCount, "shard-count", 1, "number of corpus shards; > 1 enables scatter/gather fan-out")
	flag.StringVar(&cfg.Peers, "peers", "", "comma-separated shard base URLs in shard-index order (required when -shard-count > 1; entry -shard-index names this replica)")
	flag.DurationVar(&cfg.SlowScan, "slow-scan", 0, "log a structured slow-request report (trace id + stage timeline) for requests slower than this (0 = off); also the trace store's always-keep slow threshold")
	flag.IntVar(&cfg.TraceRetain, "trace-retain", 512, "completed traces retained for GET /trace/{id} (0 disables the trace store)")
	flag.Float64Var(&cfg.TraceSample, "trace-sample", 0.05, "probability of retaining an unremarkable trace; slow, errored, and degraded traces are always retained")
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
	if err := srv.Close(); err != nil {
		log.Printf("kserve: disk close: %v", err)
	}
}
