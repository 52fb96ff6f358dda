// Command kserve is the incremental scan service: an HTTP daemon that
// holds a parsed codebase and a shared content-addressed analysis cache
// in memory, so many checker runs amortize one parse and one cache.
//
// This is the deployment shape the paper's §5 scans want: checker
// synthesis and refinement issue many near-identical scans of the same
// tree, and a warm daemon answers repeats from cache instead of
// re-executing the analyzer. The corpus is multi-version: POST /patch
// applies a single-file code update, POST /changeset applies a
// commit-sized multi-file changeset atomically (one snapshot swap, one
// generation bump; "async": true returns a generation token
// immediately), and only the touched functions go cold. Scans pin an
// immutable snapshot at admission and run lock-free, so writes never
// stall reads and reads never drain writes. POST /batch evaluates N
// checker revisions in one request over a bounded worker pool
// (StaAgent-style many-revision evaluation), all against one pinned
// snapshot.
//
// The read endpoints (/scan, /batch) sit behind a bounded admission
// queue (-max-inflight, -max-queued); the write endpoints (/patch,
// /changeset) behind their own gate (-max-inflight-writes,
// -max-queued-writes) — so a changeset storm sheds writes, never
// reads. Excess load is shed with 429 + Retry-After instead of being
// buffered without bound. -max-cost/-max-cost-writes add a
// cost-weighted budget on top (checkers × files for reads, ops for
// writes), so one enormous batch can't starve the gate that a
// request-count limit would admit.
//
// With -shard-count N (plus -shard-index and -peers) the daemon joins
// a sharded fleet: each replica owns the files whose path hash lands
// on its index, any replica coordinates a scan by scattering
// shard-local sub-scans to the owners and merging the partials
// byte-identically to a single-host scan, and changesets propagate
// fleet-wide through a generation feed hosted on the -cache-remote
// kcached (peers replay it via POST /converge). A dead or behind
// shard degrades its partition to the coordinator's local snapshot —
// slower, never wrong.
//
// The cache is one store.Stack, opened by the same constructor kcached
// uses (store.Open) from an ordered tier list the flags spell out:
// memory, then kcached (-cache-remote), then the local segment tier
// (-cache-dir). Promotion, write-through, racing the remote tier
// against the disk tier behind it, single-flight computation and the
// per-tier /metrics families all follow from that list.
//
// Wire types live in internal/api: every response carries the corpus
// generation (body + X-KN-Generation header), scan-shaped requests
// accept min_generation (read-your-writes), and errors use the
// {"error": {"code", "message", "retry_after_ms"}} envelope.
//
// Usage:
//
//	kserve                         # serve the synthetic corpus on :8321
//	kserve -addr :9000 -scale 0.5
//	kserve -cache-dir /var/cache/kserve -cache-ttl 72h -cache-max-bytes 268435456
//	kserve -cache-remote http://cache-host:8322   # share results fleet-wide via kcached
//	kserve -func-timeout 2s        # default per-function analysis budget
//	kserve -max-inflight 8 -max-queued 32 -max-queued-per-client 4
//	kserve -max-inflight-writes 1 -max-queued-writes 32
//	kserve -max-cost 100000        # weighted read budget: sum of checkers x files
//	kserve -min-gen-wait 2s        # bounded wait before 409 on min_generation
//	kserve -shard-index 0 -shard-count 3 -peers http://a:8321,http://b:8321,http://c:8321 \
//	       -cache-remote http://cache-host:8322   # sharded fleet member
//	kserve -shard-timeout 30s -shard-hedge 200ms  # scatter budgets
//
// Endpoints:
//
//	POST /scan             {"checker": "<DSL text>", "files": [...], "min_generation": n, ...}
//	POST /batch            {"checkers": ["<DSL>", ...], "concurrency": n, ...}
//	POST /patch            {"path": "...", "func": "...", "source": "..."}
//	POST /changeset        {"changes": [{"path", "func?", "source"}, ...], "async": bool}
//	GET  /changeset/status ?generation=N  async changeset outcome
//	POST /converge         replay the generation feed to catch this shard up
//	GET  /trace/{id}       assembled cross-host span tree (?format=text for a waterfall)
//	GET  /traces           local tail-sampled trace index (?limit=N&slow=1)
//	GET  /stats            cache + service + admission (+ shard) counters
//	GET  /metrics          Prometheus exposition
//	GET  /healthz          liveness
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"knighter/internal/api"
	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/kernel"
	"knighter/internal/obs"
	"knighter/internal/scan"
	"knighter/internal/shard"
	"knighter/internal/store"
)

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	seed := flag.Int64("seed", 1, "corpus seed")
	scale := flag.Float64("scale", 1.0, "corpus scale")
	cacheBytes := flag.Int64("cache-bytes", 0, "in-memory cache budget in serialized bytes (0 = default 64 MiB)")
	cacheDir := flag.String("cache-dir", "", "optional on-disk cache tier directory")
	cacheTTL := flag.Duration("cache-ttl", 0, "drop disk-tier entries older than this (0 = keep forever)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "disk-tier byte budget; GC evicts oldest-first past it (0 = unbounded)")
	cacheRemote := flag.String("cache-remote", "", "optional kcached URL for the shared fleet cache tier (e.g. http://cache-host:8322)")
	cacheRemoteTimeout := flag.Duration("cache-remote-timeout", 2*time.Second, "per-request budget for the remote tier")
	funcTimeout := flag.Duration("func-timeout", 0, "default per-function analysis budget (0 = none)")
	maxInflight := flag.Int("max-inflight", runtime.GOMAXPROCS(0), "max concurrent read requests (/scan, /batch) (0 = unlimited, no admission control)")
	maxQueued := flag.Int("max-queued", 64, "max read requests waiting for an inflight slot before shedding with 429")
	maxQueuedPerClient := flag.Int("max-queued-per-client", 16, "max queued requests per client key (X-Client-ID header or remote address; 0 = unbounded)")
	maxInflightWrites := flag.Int("max-inflight-writes", 1, "max concurrent write requests (/patch, /changeset); writes serialize on the corpus commit lock anyway (0 = ungated)")
	maxQueuedWrites := flag.Int("max-queued-writes", 32, "max write requests waiting before shedding with 429")
	maxCost := flag.Int64("max-cost", 0, "max summed cost weight (checkers x files) of admitted read requests (0 = unweighted admission)")
	maxCostWrites := flag.Int64("max-cost-writes", 0, "max summed cost weight (changeset ops) of admitted write requests (0 = unweighted)")
	shardIndex := flag.Int("shard-index", 0, "this replica's shard index within the fleet (with -shard-count)")
	shardCount := flag.Int("shard-count", 1, "number of corpus shards; > 1 enables scatter/gather fan-out")
	peers := flag.String("peers", "", "comma-separated shard base URLs in shard-index order (required when -shard-count > 1; entry -shard-index names this replica)")
	shardTimeout := flag.Duration("shard-timeout", 60*time.Second, "per-shard sub-request budget before the partition falls back to the local snapshot")
	shardHedge := flag.Duration("shard-hedge", 0, "start a local-snapshot hedge for a shard sub-request outstanding this long (0 = fall back only on failure)")
	minGenWait := flag.Duration("min-gen-wait", 2*time.Second, "bounded wait for a request's min_generation before answering 409")
	slowScan := flag.Duration("slow-scan", 0, "log a structured slow-request report (trace id + stage timeline) for requests slower than this (0 = off); also the trace store's always-keep slow threshold")
	traceRetain := flag.Int("trace-retain", 512, "completed traces retained for GET /trace/{id} (0 disables the trace store)")
	traceSample := flag.Float64("trace-sample", 0.05, "probability of retaining an unremarkable trace; slow, errored, degraded, and hedge-win traces are always retained")
	pprofAddr := flag.String("pprof-addr", "", "optional side listen address for net/http/pprof (e.g. localhost:6060); never exposed on the main port")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		v, gv := obs.BuildVersion()
		fmt.Printf("kserve %s (%s)\n", v, gv)
		return
	}

	corpus := kernel.Generate(kernel.Config{Seed: *seed, Scale: *scale})
	cb, err := scan.NewCodebase(corpus)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kserve:", err)
		os.Exit(1)
	}
	// The signal context exists before any background loop starts so the
	// disk compaction loop (and anything else long-running) stops on the
	// same SIGINT/SIGTERM that begins the drain — no sweep races the
	// final stats log.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The store is memory, then kcached (-cache-remote), then the local
	// segment tier (-cache-dir); store.Stack derives racing, promotion,
	// coalescing and the per-tier /metrics families from that list.
	reg := obs.NewRegistry("kserve")
	if *cacheMaxBytes > 0 && *cacheDir == "" {
		log.Printf("kserve: -cache-max-bytes ignored without -cache-dir (the byte budget bounds the disk tier; use -cache-bytes for the memory tier)")
	}
	st, err := store.Open(reg, *cacheBytes, *cacheDir, *cacheMaxBytes, *cacheRemote,
		store.RemoteConfig{Timeout: *cacheRemoteTimeout})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kserve:", err)
		os.Exit(1)
	}
	disk := st.Disk()
	srv := newServer(cb, st)
	srv.funcTimeout = *funcTimeout
	srv.slowScan = *slowScan
	srv.minGenWait = *minGenWait
	srv.traces = obs.NewTraceStore(*traceRetain, *traceSample, *slowScan)
	read := newAdmission(*maxInflight, *maxQueued, *maxQueuedPerClient)
	write := newAdmission(*maxInflightWrites, *maxQueuedWrites, *maxQueuedPerClient)
	if read != nil {
		read.maxCost = *maxCost
	}
	if write != nil {
		write.maxCost = *maxCostWrites
	}
	srv.setGates(read, write)
	if *shardCount > 1 {
		peerList := splitPeers(*peers)
		if len(peerList) != *shardCount {
			fmt.Fprintf(os.Stderr, "kserve: -shard-count %d needs exactly that many -peers entries, got %d\n", *shardCount, len(peerList))
			os.Exit(2)
		}
		if *shardIndex < 0 || *shardIndex >= *shardCount {
			fmt.Fprintf(os.Stderr, "kserve: -shard-index %d out of range [0,%d)\n", *shardIndex, *shardCount)
			os.Exit(2)
		}
		srv.setupShard(*shardIndex, *shardCount, peerList, *cacheRemote, *shardTimeout, *shardHedge)
		if *cacheRemote == "" {
			log.Printf("kserve: sharded without -cache-remote: no generation feed; changesets will not propagate to peers")
		}
		log.Printf("kserve: shard %d/%d, peers=%v", *shardIndex, *shardCount, peerList)
	}
	// The trace collector fans GET /trace/{id} out to everyone who may
	// hold a fragment of a trace this replica coordinated: every shard
	// peer (each sub-scan left a fragment on its owner) plus kcached.
	var traceTargets []string
	if sh := srv.shard; sh != nil {
		for i, p := range sh.peers {
			if i != sh.index && p != "" {
				traceTargets = append(traceTargets, p)
			}
		}
	}
	if *cacheRemote != "" {
		traceTargets = append(traceTargets, strings.TrimRight(*cacheRemote, "/"))
	}
	srv.traceColl = shard.NewTraceCollector(traceTargets, 2*time.Second)
	srv.registerMetrics(reg)
	if disk != nil {
		// Compaction runs whenever the disk tier exists: even without a
		// TTL or byte budget it reclaims the dead bytes that overwrites
		// and invalidations leave in the segment log.
		srv.startDiskGC(ctx, disk, *cacheTTL)
	}
	if srv.remote != nil {
		log.Printf("kserve: fleet cache tier: %s (raced against local disk: %v)", *cacheRemote, disk != nil)
	}
	if srv.adm != nil {
		log.Printf("kserve: read admission control: %d inflight, %d queued", *maxInflight, *maxQueued)
	}
	if srv.wadm != nil {
		log.Printf("kserve: write admission control: %d inflight, %d queued", *maxInflightWrites, *maxQueuedWrites)
	}
	if *pprofAddr != "" {
		startPprof("kserve", *pprofAddr)
	}

	// Graceful shutdown: SIGTERM/SIGINT stops the listener, in-flight
	// requests drain (bounded), and the daemon logs its final counters —
	// so a fleet roll never truncates a scan mid-response and the last
	// cache numbers survive in the log.
	hs := &http.Server{Addr: *addr, Handler: srv.routes()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	version, goVersion := obs.BuildVersion()
	log.Printf("kserve: %s (%s) serving %d files / %d functions on %s",
		version, goVersion, len(cb.Files()), cb.NumFuncs(), *addr)
	select {
	case err := <-errCh:
		log.Fatal("kserve: ", err)
	case <-ctx.Done():
		stop()
		log.Printf("kserve: shutdown signal; draining in-flight requests")
		sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("kserve: shutdown: %v", err)
		}
		if disk != nil {
			// Final sync: whatever the flush window still held is on disk
			// before the process exits, so the next boot starts as warm as
			// this one ended.
			if err := disk.Close(); err != nil {
				log.Printf("kserve: disk close: %v", err)
			}
		}
		stats := srv.inc.Stats()
		log.Printf("kserve: final stats: uptime=%.1fs scans=%d batches=%d reports=%d cache_hits=%d cache_misses=%d hit_rate=%.3f",
			time.Since(srv.started).Seconds(), srv.scans.Load(), srv.batches.Load(),
			srv.reportsServed.Load(), stats.Hits, stats.Misses, stats.HitRate())
	}
}

// startPprof serves net/http/pprof on its own listener — never the main
// port, so profiling endpoints are reachable only where the operator
// points them (typically localhost).
func startPprof(name, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		log.Printf("%s: pprof on %s", name, addr)
		if err := http.ListenAndServe(addr, mux); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("%s: pprof: %v", name, err)
		}
	}()
}

// server holds the warm codebase, the shared store, and service
// counters.
type server struct {
	inc     *scan.Incremental
	started time.Time
	// funcTimeout is the default per-function analysis budget applied
	// when a request does not set its own.
	funcTimeout time.Duration
	// adm gates the read endpoints (/scan, /batch); wadm gates the write
	// endpoints (/patch, /changeset). Separate gates are the point:
	// since scans pin MVCC snapshots and never block on writers, a
	// changeset storm saturating wadm sheds writes while reads keep
	// flowing untouched — and vice versa. nil = no admission control.
	adm  *admission
	wadm *admission
	// remote is the shared fleet cache tier, when -cache-remote is set;
	// kept for /stats health reporting.
	remote *store.Remote
	// metrics is the /metrics instrumentation, nil until registerMetrics.
	metrics *serverMetrics
	// slowScan, when > 0, triggers the structured slow-request log line
	// (trace id + stage timeline) for requests slower than it.
	slowScan time.Duration
	// minGenWait bounds how long a request's min_generation may hold the
	// request before it fails 409 with the current generation.
	minGenWait time.Duration
	// asyncLedger records async changeset outcomes for
	// GET /changeset/status.
	asyncLedger asyncLedger
	// shard is the fleet fan-out layer (-shard-count > 1); nil on a
	// single-host daemon, and every shard path nil-checks it.
	shard *shardLayer
	// traces is the tail-sampled trace store behind GET /trace/{id};
	// nil (tracing disabled) is valid everywhere it is used.
	traces *obs.TraceStore
	// traceColl fans /trace/{id} out to shard peers and kcached; nil
	// when there is no one else to ask (unsharded, no remote tier).
	traceColl *shard.TraceCollector
	// accessLog overrides the destination of per-request log lines
	// (tests inject one; nil = the process logger).
	accessLog *log.Logger

	// No request-wide corpus lock: scans pin an immutable snapshot
	// (scan.Codebase is MVCC) and mutations commit by pointer swap, so
	// the old server-level RWMutex — which made every write drain every
	// read — is gone, not merely narrowed.

	scans           atomic.Int64
	batches         atomic.Int64
	patches         atomic.Int64
	changesets      atomic.Int64
	asyncChangesets atomic.Int64
	scanErrors      atomic.Int64
	scansCanceled   atomic.Int64
	reportsServed   atomic.Int64
	gcRemoved       atomic.Int64
}

// newServer serves cb from st, the store the daemon opened; the
// stack's remote leaf (if any) is kept for /stats health reporting.
func newServer(cb *scan.Codebase, st *store.Stack) *server {
	s := &server{
		inc:        scan.NewIncremental(cb, st),
		remote:     st.Remote(),
		started:    time.Now(),
		minGenWait: 2 * time.Second,
	}
	s.asyncLedger.init()
	return s
}

// setGates installs the read and write admission gates and teaches both
// to stamp shed responses with the live corpus generation.
func (s *server) setGates(read, write *admission) {
	gen := func() int64 { return s.inc.Codebase().Generation() }
	if read != nil {
		read.generation = gen
	}
	if write != nil {
		write.generation = gen
	}
	s.adm, s.wadm = read, write
}

// startDiskGC runs the segment store's compaction loop over the disk
// tier until ctx is done, hooking the server's counter and log line
// into each sweep. The context is the daemon's signal context: shutdown
// stops the loop instead of leaving a sweep racing the drain.
func (s *server) startDiskGC(ctx context.Context, disk *store.SegmentDisk, ttl time.Duration) {
	disk.StartCompactLoop(ctx, ttl, func(n int, dur time.Duration) {
		s.observeGCSweep(dur)
		if n > 0 {
			s.gcRemoved.Add(int64(n))
			log.Printf("kserve: disk GC removed %d entries in %s", n, dur)
		}
	})
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	// Reads (/scan, /batch) and writes (/patch, /changeset) go through
	// SEPARATE admission gates: scans pin MVCC snapshots and never wait
	// on a writer, so there is no reason to let a changeset storm's
	// queue shed a read (or a batch flood shed a commit). /stats,
	// /healthz, and /changeset/status stay outside both gates: they must
	// answer even when the daemon is saturated (that is when an operator
	// needs them most).
	// withObs sits OUTSIDE the gates: the trace exists before the
	// request queues (so admission_wait lands on the timeline) and the
	// measured latency is what the client saw, queueing included.
	mux.HandleFunc("/scan", s.withObs("scan", s.adm.wrap(s.handleScan)))
	mux.HandleFunc("/batch", s.withObs("batch", s.adm.wrap(s.handleBatch)))
	mux.HandleFunc("/changeset", s.withObs("changeset", s.wadm.wrap(s.handleChangeset)))
	mux.HandleFunc("/changeset/status", s.handleChangesetStatus)
	mux.HandleFunc("/converge", s.withObs("converge", s.wadm.wrap(s.handleConverge)))
	mux.HandleFunc("/patch", s.withObs("patch", s.wadm.wrap(s.handlePatch)))
	mux.HandleFunc("/stats", s.handleStats)
	// The trace endpoints stay outside the gates with /stats: they are
	// the triage path, needed exactly when the daemon is drowning.
	mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /traces", s.handleTraces)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if s.metrics == nil {
			s.httpError(w, http.StatusNotFound, api.ErrUnavailable, "metrics not registered")
			return
		}
		s.metrics.reg.Handler().ServeHTTP(w, r)
	})
	return mux
}

// requestCost is the admission cost weight of a scan-shaped request:
// checkers x files, with an empty file list meaning the whole corpus.
// It is what the request will actually make the analyzer walk, so one
// 50-checker full-corpus /batch weighs 50 corpus scans — not the one
// token a single-file /scan also costs.
func (s *server) requestCost(checkers int, files []string) int64 {
	n := len(files)
	if n == 0 {
		n = len(s.inc.Codebase().Files())
	}
	if checkers < 1 {
		checkers = 1
	}
	return int64(checkers) * int64(n)
}

// attachTiming copies the request trace's id and span timeline into the
// response when the client asked for it.
func attachTiming(ctx context.Context, id *string, spans *[]obs.Span, want bool) {
	if !want {
		return
	}
	if tr := obs.TraceFrom(ctx); tr != nil {
		*id = tr.ID
		*spans = tr.Spans()
	}
}

// toScanResponse wraps the shared api.ScanResult conversion with the
// server's reports-served accounting. includeCuts is set for shard-local
// sub-scans: the per-file cut list is what lets a coordinator splice
// this partial back into global file order.
func (s *server) toScanResponse(name string, res *scan.Result, includeTrace, includeCuts bool) *api.ScanResponse {
	resp := api.ScanResult(name, res, includeTrace, includeCuts)
	s.reportsServed.Add(int64(len(resp.Reports)))
	return resp
}

// awaitMinGeneration implements the serve-at-or-after contract: wait a
// bounded interval for the corpus to reach the requested generation,
// and answer 409 + the current generation + a retry hint if it does
// not arrive in time. Returns false when the request has been answered.
func (s *server) awaitMinGeneration(w http.ResponseWriter, r *http.Request, min int64) bool {
	if min <= 0 {
		return true
	}
	cb := s.inc.Codebase()
	ctx, cancel := context.WithTimeout(r.Context(), s.minGenWait)
	ok := cb.WaitForGeneration(ctx, min)
	cancel()
	if ok {
		return true
	}
	s.scanErrors.Add(1)
	s.writeError(w, http.StatusConflict, &api.Error{
		Code: api.ErrGenerationUnavailable,
		Message: fmt.Sprintf("corpus is at generation %d; min_generation %d not reached within %s",
			cb.Generation(), min, s.minGenWait),
		RetryAfterMS: s.minGenWait.Milliseconds(),
	})
	return false
}

// resolveFiles maps request paths to file indices (nil = all files).
func (s *server) resolveFiles(paths []string) ([]int, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	files := make([]int, 0, len(paths))
	for _, path := range paths {
		i := s.inc.Codebase().FileIndex(path)
		if i < 0 {
			return nil, fmt.Errorf("unknown file: %s", path)
		}
		files = append(files, i)
	}
	return files, nil
}

func (s *server) scanOptions(ctx context.Context, maxReports, workers, funcTimeoutMS int) scan.Options {
	opts := scan.Options{
		Workers:     workers,
		MaxReports:  maxReports,
		FuncTimeout: s.funcTimeout,
		// The request context: a client that disconnects mid-scan stops
		// paying for the rest of it (the admitted slot frees up, and no
		// partial results are cached).
		Context: ctx,
	}
	if funcTimeoutMS > 0 {
		opts.FuncTimeout = time.Duration(funcTimeoutMS) * time.Millisecond
	}
	return opts
}

func (s *server) handleScan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, api.ErrMethodNotAllowed, "POST only")
		return
	}
	var req api.ScanRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.scanErrors.Add(1)
		s.httpError(w, http.StatusBadRequest, api.ErrBadRequest, "bad JSON: "+err.Error())
		return
	}
	if req.Checker == "" {
		s.scanErrors.Add(1)
		s.httpError(w, http.StatusBadRequest, api.ErrBadRequest, "missing 'checker' (DSL text)")
		return
	}
	// Cost-weighted admission: the gate's token only counted requests;
	// the cost charge weighs what is inside one (checkers x files), so
	// one enormous request cannot hide behind the same token a tiny one
	// costs.
	release, ok := s.adm.admitCost(w, s.requestCost(1, req.Files))
	if !ok {
		return
	}
	defer release()
	ck, err := ckdsl.CompileSource(req.Checker)
	if err != nil {
		s.scanErrors.Add(1)
		s.httpError(w, http.StatusUnprocessableEntity, api.ErrUnprocessable, "checker does not compile: "+err.Error())
		return
	}
	// A sharded replica that is behind the requested generation tries
	// the feed first: a sub-scan from a coordinator that just committed
	// converges here instead of burning its bounded wait toward a 409.
	s.maybeConverge(r.Context(), req.MinGeneration)
	if !s.awaitMinGeneration(w, r, req.MinGeneration) {
		return
	}

	// No corpus lock: RunFiles pins the live snapshot itself. The
	// resolved indices stay valid across generations because the file
	// set is fixed — only contents change.
	files, err := s.resolveFiles(req.Files)
	if err != nil {
		s.scanErrors.Add(1)
		s.httpError(w, http.StatusNotFound, api.ErrNotFound, err.Error())
		return
	}
	if s.shard != nil && !req.ShardLocal {
		s.scatterScan(w, r, &req, ck)
		return
	}
	if files == nil {
		files = allFiles(s.inc.Codebase())
	}

	res := s.inc.RunFiles(files, []checker.Checker{ck},
		s.scanOptions(r.Context(), req.MaxReports, req.Workers, req.FuncTimeoutMS))
	s.scans.Add(1)
	s.observeScan(r.Context(), res)
	if res.Canceled {
		s.scansCanceled.Add(1)
	}
	if req.ShardLocal && s.shard != nil {
		s.shard.subScans.Add(1)
	}
	resp := s.toScanResponse(ck.Name(), res, req.IncludeTrace, req.ShardLocal)
	attachTiming(r.Context(), &resp.TraceID, &resp.Timing, req.IncludeTiming)
	s.writeOK(w, res.Generation, resp)
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, api.ErrMethodNotAllowed, "POST only")
		return
	}
	var req api.BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.scanErrors.Add(1)
		s.httpError(w, http.StatusBadRequest, api.ErrBadRequest, "bad JSON: "+err.Error())
		return
	}
	if len(req.Checkers) == 0 {
		s.scanErrors.Add(1)
		s.httpError(w, http.StatusBadRequest, api.ErrBadRequest, "missing 'checkers' (list of DSL texts)")
		return
	}
	// Cost-weighted admission: a /batch weighs checkers x files, so the
	// tenant shipping 50 checkers over the full corpus is charged 50
	// corpus scans, not one request.
	release, ok := s.adm.admitCost(w, s.requestCost(len(req.Checkers), req.Files))
	if !ok {
		return
	}
	defer release()

	// Compile every checker first; a bad revision gets a per-entry error
	// instead of failing its siblings.
	resp := &api.BatchResponse{Results: make([]*api.ScanResponse, len(req.Checkers))}
	var cks []checker.Checker
	var live []int // request index of each compiled checker
	for i, src := range req.Checkers {
		ck, err := ckdsl.CompileSource(src)
		if err != nil {
			resp.Results[i] = &api.ScanResponse{Error: "checker does not compile: " + err.Error()}
			resp.CheckerErrors++
			s.scanErrors.Add(1)
			continue
		}
		cks = append(cks, ck)
		live = append(live, i)
	}
	s.maybeConverge(r.Context(), req.MinGeneration)
	if !s.awaitMinGeneration(w, r, req.MinGeneration) {
		return
	}

	// No corpus lock: RunBatch pins ONE snapshot for the whole batch,
	// so every entry scans the same generation even while changesets
	// commit concurrently.
	files, err := s.resolveFiles(req.Files)
	if err != nil {
		s.scanErrors.Add(1)
		s.httpError(w, http.StatusNotFound, api.ErrNotFound, err.Error())
		return
	}
	if s.shard != nil && !req.ShardLocal && len(cks) > 0 {
		s.scatterBatch(w, r, &req, resp, cks, live)
		return
	}

	// Default for an all-errors batch (nothing scanned): the live
	// generation; any actual result overwrites it with the pinned one.
	resp.Generation = s.inc.Codebase().Generation()
	start := time.Now()
	results := s.inc.RunBatch(cks, files,
		s.scanOptions(r.Context(), req.MaxReports, req.Workers, req.FuncTimeoutMS), req.Concurrency)
	elapsed := time.Since(start)

	agg := &scan.Result{}
	for bi, res := range results {
		resp.Results[live[bi]] = s.toScanResponse(cks[bi].Name(), res, req.IncludeTrace, req.ShardLocal)
		s.observeScan(r.Context(), res)
		resp.Generation = res.Generation
		agg.CacheHits += res.CacheHits
		agg.CacheMisses += res.CacheMisses
		agg.CacheCoalesced += res.CacheCoalesced
		if res.Canceled {
			s.scansCanceled.Add(1)
		}
	}
	resp.CheckersRun = len(cks)
	resp.Cache = api.CacheOf(agg)
	resp.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	attachTiming(r.Context(), &resp.TraceID, &resp.Timing, req.IncludeTiming)
	s.batches.Add(1)
	s.scans.Add(int64(len(cks)))
	s.writeOK(w, resp.Generation, resp)
}

func (s *server) handlePatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, api.ErrMethodNotAllowed, "POST only")
		return
	}
	var req api.PatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.scanErrors.Add(1)
		s.httpError(w, http.StatusBadRequest, api.ErrBadRequest, "bad JSON: "+err.Error())
		return
	}
	if req.Path == "" || req.Source == "" {
		s.scanErrors.Add(1)
		s.httpError(w, http.StatusBadRequest, api.ErrBadRequest, "missing 'path' or 'source'")
		return
	}
	// Write cost is ops: one for a patch.
	release, ok := s.wadm.admitCost(w, 1)
	if !ok {
		return
	}
	defer release()

	// No request-wide lock: the mutation is an MVCC commit — in-flight
	// scans keep their pinned snapshots; the next admitted scan pins the
	// new generation.
	start := time.Now()
	var m *scan.Mutation
	var err error
	mode := "replace"
	if req.Func != "" {
		mode = "patch"
		m, err = s.inc.Patch(req.Path, req.Func, req.Source)
	} else {
		m, err = s.inc.Replace(req.Path, req.Source)
	}
	if err != nil {
		s.scanErrors.Add(1)
		s.httpError(w, http.StatusUnprocessableEntity, api.ErrUnprocessable, err.Error())
		return
	}
	s.patches.Add(1)
	s.observeCommit(time.Since(start))
	// A patch is a one-change commit to the fleet feed, so sharded peers
	// converge on it the same way they do on changesets.
	s.shardPublish(r.Context(), m.Generation, []api.Change{{Path: req.Path, Func: req.Func, Source: req.Source}})
	s.writeOK(w, m.Generation, &api.PatchResponse{
		Path:             m.Path,
		Mode:             mode,
		Funcs:            m.Funcs,
		ChangedFuncs:     m.Changed,
		StaleHashes:      len(m.StaleHashes),
		StoreInvalidated: m.StoreInvalidated,
		Generation:       m.Generation,
		ElapsedMS:        float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (s *server) handleChangeset(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, api.ErrMethodNotAllowed, "POST only")
		return
	}
	var req api.ChangesetRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.scanErrors.Add(1)
		s.httpError(w, http.StatusBadRequest, api.ErrBadRequest, "bad JSON: "+err.Error())
		return
	}
	if len(req.Changes) == 0 {
		s.scanErrors.Add(1)
		s.httpError(w, http.StatusBadRequest, api.ErrBadRequest, "missing 'changes' (list of file updates)")
		return
	}
	changes := make([]scan.Change, 0, len(req.Changes))
	for i, c := range req.Changes {
		if c.Path == "" || c.Source == "" {
			s.scanErrors.Add(1)
			s.httpError(w, http.StatusBadRequest, api.ErrBadRequest, fmt.Sprintf("change %d: missing 'path' or 'source'", i))
			return
		}
		changes = append(changes, scan.Change{Path: c.Path, Func: c.Func, Source: c.Source})
	}
	// Write cost is ops: each change is one staged parse + commit entry.
	release, ok := s.wadm.admitCost(w, int64(len(req.Changes)))
	if !ok {
		return
	}
	defer release()

	start := time.Now()
	if req.Async {
		// Reserve a generation token and return immediately; the commit
		// proceeds in the background in token order. The token is the
		// client's read-your-writes handle: pass it as min_generation on
		// a later /scan, or poll /changeset/status?generation=N.
		a := s.inc.ApplyChangesetAsync(changes)
		s.asyncChangesets.Add(1)
		s.asyncLedger.record(a.Generation)
		go s.settleAsync(context.WithoutCancel(r.Context()), a, start, req.Changes)
		s.writeJSONGen(w, http.StatusAccepted, a.Generation, &api.ChangesetResponse{
			Async:      true,
			Status:     api.StatusPending,
			Generation: a.Generation,
			ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
		})
		return
	}

	// Sync path: no request-wide lock. The changeset stages off to the
	// side and commits with a pointer swap — in-flight scans keep their
	// pinned snapshots and are never drained.
	cs, err := s.inc.ApplyChangeset(changes)
	if err != nil {
		s.scanErrors.Add(1)
		s.httpError(w, http.StatusUnprocessableEntity, api.ErrUnprocessable, err.Error())
		return
	}
	s.changesets.Add(1)
	s.observeCommit(time.Since(start))
	s.shardPublish(r.Context(), cs.Generation, req.Changes)
	resp := &api.ChangesetResponse{
		Status:           api.StatusCommitted,
		Ops:              cs.Ops,
		ChangedFuncs:     cs.Changed,
		StaleHashes:      len(cs.StaleHashes),
		StoreInvalidated: cs.StoreInvalidated,
		Generation:       cs.Generation,
		ElapsedMS:        float64(time.Since(start).Microseconds()) / 1000,
	}
	for _, fc := range cs.Files {
		resp.Files = append(resp.Files, fc.Path)
	}
	s.writeOK(w, cs.Generation, resp)
}

// settleAsync waits for an async changeset to commit (or fail) and
// records the outcome in the ledger so /changeset/status can report it.
// A committed changeset is also published to the fleet feed — only
// then, so peers never replay a change the coordinator rejected.
func (s *server) settleAsync(ctx context.Context, a *scan.AsyncChangeset, start time.Time, changes []api.Change) {
	cs, err := a.Result()
	if err != nil {
		s.scanErrors.Add(1)
		s.asyncLedger.settle(a.Generation, &api.ChangesetStatus{
			Generation: a.Generation,
			Status:     api.StatusFailed,
			Error:      err.Error(),
		})
		return
	}
	s.changesets.Add(1)
	s.observeCommit(time.Since(start))
	s.shardPublish(ctx, cs.Generation, changes)
	st := &api.ChangesetStatus{
		Generation:       cs.Generation,
		Status:           api.StatusCommitted,
		Ops:              cs.Ops,
		ChangedFuncs:     cs.Changed,
		StaleHashes:      len(cs.StaleHashes),
		StoreInvalidated: cs.StoreInvalidated,
	}
	for _, fc := range cs.Files {
		st.Files = append(st.Files, fc.Path)
	}
	s.asyncLedger.settle(a.Generation, st)
}

// asyncLedger remembers the outcome of recent async changesets, keyed by
// their reserved generation token. Bounded FIFO: old entries age out once
// the ledger exceeds asyncLedgerCap, so a long-lived daemon under a
// changeset storm cannot grow without bound.
const asyncLedgerCap = 1024

type asyncLedger struct {
	mu    sync.Mutex
	byGen map[int64]*api.ChangesetStatus
	order []int64
}

func (l *asyncLedger) init() {
	l.byGen = make(map[int64]*api.ChangesetStatus)
}

func (l *asyncLedger) record(gen int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.byGen[gen] = &api.ChangesetStatus{Generation: gen, Status: api.StatusPending}
	l.order = append(l.order, gen)
	for len(l.order) > asyncLedgerCap {
		delete(l.byGen, l.order[0])
		l.order = l.order[1:]
	}
}

func (l *asyncLedger) settle(gen int64, st *api.ChangesetStatus) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.byGen[gen]; ok {
		l.byGen[gen] = st
	}
}

func (l *asyncLedger) lookup(gen int64) (*api.ChangesetStatus, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.byGen[gen]
	return st, ok
}

// handleChangesetStatus reports the outcome of an async changeset by its
// generation token: pending, committed (with the commit's accounting), or
// failed (with the rejection reason — the token's generation was burned
// by an empty commit, so min_generation waits on it still resolve).
func (s *server) handleChangesetStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.httpError(w, http.StatusMethodNotAllowed, api.ErrMethodNotAllowed, "GET only")
		return
	}
	gen, err := strconv.ParseInt(r.URL.Query().Get("generation"), 10, 64)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, api.ErrBadRequest, "missing or bad 'generation' query parameter")
		return
	}
	st, ok := s.asyncLedger.lookup(gen)
	if !ok {
		s.httpError(w, http.StatusNotFound, api.ErrNotFound, fmt.Sprintf("no async changeset recorded for generation %d", gen))
		return
	}
	s.writeOK(w, s.inc.Codebase().Generation(), st)
}

// handleStats, like handleHealthz, takes no request lock: every value it
// reads is either atomic or guarded by its own short-lived lock. In
// particular Generation comes from an atomic counter, so /stats reports
// a truthful generation even while a changeset commit is mid-swap.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.inc.Stats()
	cb := s.inc.Codebase()
	var remote *store.RemoteStats
	if s.remote != nil {
		rs := s.remote.RemoteStats()
		remote = &rs
	}
	version, goVersion := obs.BuildVersion()
	gen := cb.Generation()
	s.writeOK(w, gen, &api.StatsResponse{
		UptimeSeconds:   time.Since(s.started).Seconds(),
		Version:         version,
		GoVersion:       goVersion,
		Files:           len(cb.Files()),
		Funcs:           cb.NumFuncs(),
		Generation:      gen,
		PinnedSnapshots: cb.PinnedSnapshots(),
		Scans:           s.scans.Load(),
		Batches:         s.batches.Load(),
		Patches:         s.patches.Load(),
		Changesets:      s.changesets.Load(),
		AsyncChangesets: s.asyncChangesets.Load(),
		ScanErrors:      s.scanErrors.Load(),
		ScansCanceled:   s.scansCanceled.Load(),
		ReportsServed:   s.reportsServed.Load(),
		GCRemoved:       s.gcRemoved.Load(),
		Store:           st,
		StoreHitRate:    st.HitRate(),
		Remote:          remote,
		Admission:       s.adm.snapshot(),
		WriteAdmission:  s.wadm.snapshot(),
		Shards:          s.shardStats(),
		TraceStore:      s.traces.Stats(),
		ScanExemplars:   s.scanExemplars(),
	})
}

// handleHealthz deliberately takes no locks: a liveness probe must
// answer instantly even mid-commit. Under MVCC there is no pending
// writer that could block it — every value here is an atomic load.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cb := s.inc.Codebase()
	gen := cb.Generation()
	s.writeOK(w, gen, &api.HealthzResponse{
		OK:              true,
		Files:           len(cb.Files()),
		Generation:      gen,
		PinnedSnapshots: cb.PinnedSnapshots(),
	})
}

// splitPeers parses the -peers flag: comma-separated base URLs,
// whitespace-tolerant, trailing slashes dropped.
func splitPeers(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func allFiles(cb *scan.Codebase) []int {
	files := make([]int, len(cb.Files()))
	for i := range files {
		files[i] = i
	}
	return files
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("kserve: encode response: %v", err)
	}
}

// writeJSONGen writes a JSON response stamped with the generation it was
// served against, both in the body (callers embed it) and in the
// X-KN-Generation header so clients that only look at headers can chain
// min_generation reads without parsing the body.
func (s *server) writeJSONGen(w http.ResponseWriter, code int, gen int64, v any) {
	w.Header().Set(api.GenerationHeader, strconv.FormatInt(gen, 10))
	writeJSON(w, code, v)
}

// writeOK is the 200 form of writeJSONGen.
func (s *server) writeOK(w http.ResponseWriter, gen int64, v any) {
	s.writeJSONGen(w, http.StatusOK, gen, v)
}

// writeError writes the uniform error envelope.
func (s *server) writeError(w http.ResponseWriter, code int, e *api.Error) {
	gen := s.inc.Codebase().Generation()
	writeErrorEnvelope(w, code, e, gen)
}

// httpError is the shorthand for errors that carry no retry hint.
func (s *server) httpError(w http.ResponseWriter, code int, errCode, msg string) {
	s.writeError(w, code, &api.Error{Code: errCode, Message: msg})
}

// writeErrorEnvelope is the package-level core of writeError, shared
// with the admission gate (which sheds before it has a server handle).
func writeErrorEnvelope(w http.ResponseWriter, code int, e *api.Error, gen int64) {
	w.Header().Set(api.GenerationHeader, strconv.FormatInt(gen, 10))
	// withObs stamps X-Trace-Id on the response header before the
	// handler runs, so every error envelope — including admission sheds,
	// which write through this path directly — carries the trace id the
	// client can feed to GET /trace/{id}.
	writeJSON(w, code, &api.ErrorResponse{
		Err:        e,
		Generation: gen,
		TraceID:    w.Header().Get(obs.TraceHeader),
	})
}
