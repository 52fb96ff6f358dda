// Package serve is the incremental scan service behind cmd/kserve: one
// constructor, New(Config), builds a replica — parsed corpus, cache
// stack, admission gates, shard layer, trace store, metrics registry,
// compaction loop — and Handler returns what the binary, every test
// and the benchmarks mount. NewCache(CacheConfig) does the same for
// cmd/kcached, the fleet cache daemon (cache.go).
//
// This is the deployment shape the paper's §5 scans want: checker
// synthesis and refinement issue many near-identical scans of the same
// tree, and a warm daemon answers repeats from cache instead of
// re-executing the analyzer. The corpus is multi-version: POST
// /changeset applies a changeset — one file replacement or function
// patch, or a commit's worth of them — atomically (one snapshot swap,
// one generation bump, and the reply carries that generation), and only
// the touched functions go cold. Scans pin an immutable snapshot at
// admission and run lock-free, so writes never stall reads and reads
// never drain writes. POST /batch evaluates N
// checker revisions in one request over a bounded worker pool
// (StaAgent-style many-revision evaluation), all against one pinned
// snapshot.
//
// The read endpoints (/scan, /batch) sit behind a bounded admission
// queue (MaxInflight, MaxQueued); the write endpoints (/changeset,
// /converge) behind their own gate (MaxInflightWrites, MaxQueuedWrites)
// — so a changeset storm sheds writes, never reads. Excess load is shed
// with 429 + Retry-After instead of being buffered without bound.
// MaxCost adds a cost-weighted read budget on top (checkers × files),
// so one enormous batch can't starve the gate that a request-count
// limit would admit.
//
// With ShardCount N (plus ShardIndex and Peers) the replica joins a
// sharded fleet: each replica owns the files whose path hash lands on
// its index, any replica coordinates a scan by scattering shard-local
// sub-scans to the owners and merging the partials byte-identically to
// a single-host scan, and changesets propagate fleet-wide through a
// generation feed hosted on the CacheRemote kcached (peers replay it
// via POST /converge). A dead or behind shard degrades its partition to
// the coordinator's local snapshot — slower, never wrong.
//
// The cache is one store.Stack, opened by the same constructor kcached
// uses (store.Open) from an ordered tier list the config spells out:
// memory, then kcached (CacheRemote), then the local segment tier
// (CacheDir). Promotion, write-through, racing the remote tier against
// the disk tier behind it and the per-tier /metrics families all follow
// from that list.
//
// Wire types live in internal/api: every response carries the corpus
// generation (body + X-KN-Generation header), scan-shaped requests
// accept min_generation (read-your-writes), and errors use the
// {"error": {"code", "message", "retry_after_ms"}} envelope. Every
// service counter is one obs.Counter in the replica's registry: /stats
// and /metrics read the same objects.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"knighter/internal/api"
	"knighter/internal/kernel"
	"knighter/internal/obs"
	"knighter/internal/scan"
	"knighter/internal/shard"
	"knighter/internal/store"
)

// Config is everything a replica is built from. Each field is the
// cmd/kserve flag of the same name (Seed is -seed, MaxQueuedPerClient
// is -max-queued-per-client, ...), with the flag's meaning; zero values
// mean what the flag's zero means (no gate, no disk tier, no traces),
// not the flag's default.
type Config struct {
	Seed  int64
	Scale float64

	CacheBytes    int64
	CacheDir      string
	CacheTTL      time.Duration
	CacheMaxBytes int64
	CacheRemote   string

	MaxInflight        int
	MaxQueued          int
	MaxQueuedPerClient int
	MaxInflightWrites  int
	MaxQueuedWrites    int
	MaxCost            int64

	ShardIndex int
	ShardCount int
	Peers      string

	SlowScan    time.Duration
	TraceRetain int
	TraceSample float64
}

// minGenWait bounds how long a request's min_generation may hold the
// request before it fails 409 with the current generation.
const minGenWait = 2 * time.Second

// Server is one kserve replica: the warm codebase, the shared store,
// and the service counters.
type Server struct {
	inc     *scan.Incremental
	started time.Time
	handler http.Handler

	// reg holds every instrument of the replica; m are the service's own.
	reg *obs.Registry
	m   metrics
	// ro is the per-request chassis (trace, HTTP metrics, access log)
	// around every gated route.
	ro *obs.RequestObserver
	// traces is the tail-sampled trace store behind GET /trace/{id};
	// nil (TraceRetain 0) is valid everywhere it is used.
	traces *obs.TraceStore
	// traceColl fans /trace/{id} out to everyone who may hold a fragment
	// of a trace this replica coordinated: every shard peer (each
	// sub-scan left a fragment on its owner) plus kcached. nil when
	// there is no one else to ask.
	traceColl *shard.TraceCollector

	// adm gates the read endpoints (/scan, /batch); wadm gates the write
	// endpoints (/changeset, /converge). Separate gates are the point:
	// since scans pin MVCC snapshots and never block on writers, a
	// changeset storm saturating wadm sheds writes while reads keep
	// flowing untouched — and vice versa. nil = no admission control.
	adm  *admission
	wadm *admission
	// shard is the fleet fan-out layer (ShardCount > 1); nil on a
	// single-host daemon, and every shard path nil-checks it.
	shard *shardLayer
	// remote is the shared fleet cache tier, when CacheRemote is set;
	// kept for /stats health reporting. disk is the local segment tier,
	// whose compaction loop and final sync the server owns.
	remote *store.Remote
	disk   *store.SegmentDisk
	stopGC context.CancelFunc
}

// New builds a replica from cfg: it generates and parses the corpus,
// opens the store, and derives the gates, the shard layer, the trace
// store and its collector targets, the metrics and the disk tier's
// compaction loop. Call Close when done with it.
func New(cfg Config) (*Server, error) {
	cb, err := scan.NewCodebase(kernel.Generate(kernel.Config{Seed: cfg.Seed, Scale: cfg.Scale}))
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry("kserve")
	sh, err := newShardLayer(reg, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.CacheMaxBytes > 0 && cfg.CacheDir == "" {
		log.Printf("kserve: -cache-max-bytes ignored without -cache-dir (the byte budget bounds the disk tier; use -cache-bytes for the memory tier)")
	}
	st, err := store.Open(reg, cfg.CacheBytes, cfg.CacheDir, cfg.CacheMaxBytes, cfg.CacheRemote, store.RemoteConfig{})
	if err != nil {
		return nil, err
	}
	s := &Server{
		inc:     scan.NewIncremental(cb, st),
		started: time.Now(),
		reg:     reg,
		traces:  obs.NewTraceStore(cfg.TraceRetain, cfg.TraceSample, cfg.SlowScan),
		shard:   sh,
		remote:  st.Remote(),
		disk:    st.Disk(),
	}
	s.instrument()

	name := "kserve"
	var traceTargets []string
	if sh != nil {
		// "kserve-<index>" inside a fleet, so an assembled trace shows
		// WHICH replica served each partition.
		name = "kserve-" + strconv.Itoa(sh.index)
		traceTargets = sh.others()
		log.Printf("kserve: shard %d/%d, peers=%v", sh.index, sh.ring.Count, sh.peers)
		if sh.feed == nil {
			log.Printf("kserve: sharded without -cache-remote: no generation feed; changesets will not propagate to peers")
		}
	}
	if cfg.CacheRemote != "" {
		traceTargets = append(traceTargets, strings.TrimRight(cfg.CacheRemote, "/"))
		log.Printf("kserve: fleet cache tier: %s (raced against local disk: %v)", cfg.CacheRemote, s.disk != nil)
	}
	s.traceColl = shard.NewTraceCollector(traceTargets, 2*time.Second)
	s.ro = &obs.RequestObserver{
		Service: name,
		Traces:  s.traces,
		Requests: reg.CounterVec("http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		Duration: reg.HistogramVec("http_request_duration_seconds",
			"Wall time of one HTTP request, queueing included.", nil, "route"),
		Slow: cfg.SlowScan,
	}

	// Both gates stamp shed responses with the live corpus generation.
	gen := cb.Generation
	s.adm = newAdmission(reg, "admission", cfg.MaxInflight, cfg.MaxQueued, cfg.MaxQueuedPerClient, cfg.MaxCost, gen)
	s.wadm = newAdmission(reg, "write_admission", cfg.MaxInflightWrites, cfg.MaxQueuedWrites, cfg.MaxQueuedPerClient, 0, gen)
	if s.adm != nil {
		log.Printf("kserve: read admission control: %d inflight, %d queued", cfg.MaxInflight, cfg.MaxQueued)
	}
	if s.wadm != nil {
		log.Printf("kserve: write admission control: %d inflight, %d queued", cfg.MaxInflightWrites, cfg.MaxQueuedWrites)
	}

	if s.disk != nil {
		// Compaction runs whenever the disk tier exists: even without a
		// TTL or byte budget it reclaims the dead bytes that overwrites
		// and invalidations leave in the segment log.
		ctx, cancel := context.WithCancel(context.Background())
		s.stopGC = cancel
		s.disk.StartCompactLoop(ctx, cfg.CacheTTL, func(n int, dur time.Duration) {
			s.m.gcSweep.Observe(dur.Seconds())
			if n > 0 {
				s.m.gcRemoved.Add(float64(n))
				log.Printf("kserve: disk GC removed %d entries in %s", n, dur)
			}
		})
	}
	s.handler = s.routes()
	version, goVersion := obs.BuildVersion()
	log.Printf("kserve: %s (%s) holding %d files / %d functions", version, goVersion, len(cb.Files()), cb.NumFuncs())
	return s, nil
}

// Handler is the replica's whole HTTP surface.
func (s *Server) Handler() http.Handler { return s.handler }

// Close stops the compaction loop, syncs and closes the disk tier —
// whatever the flush window still held is on disk, so the next boot
// starts as warm as this one ended — and logs the final counters. Call
// it after the listener has drained.
func (s *Server) Close() error {
	var err error
	if s.disk != nil {
		s.stopGC()
		err = s.disk.Close()
	}
	stats := s.inc.Stats()
	log.Printf("kserve: final stats: uptime=%.1fs scans=%d batches=%d reports=%d cache_hits=%d cache_misses=%d hit_rate=%.3f",
		time.Since(s.started).Seconds(), count(s.m.scans), count(s.m.batches),
		count(s.m.reportsServed), stats.Hits, stats.Misses, stats.HitRate())
	return err
}

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	// Reads (/scan, /batch) and writes (/changeset, /converge — a replay
	// IS a write) go through SEPARATE admission gates: scans pin MVCC
	// snapshots and never wait on a writer, so there is no reason to let
	// a changeset storm's queue shed a read (or a batch flood shed a
	// commit). The request observer sits OUTSIDE the gates: the trace
	// exists before the request queues (so admission_wait lands on the
	// timeline) and the measured latency is what the client saw,
	// queueing included.
	mux.HandleFunc("/scan", s.ro.Wrap("scan", s.adm.wrap(s.handleScan)))
	mux.HandleFunc("/batch", s.ro.Wrap("batch", s.adm.wrap(s.handleBatch)))
	mux.HandleFunc("/changeset", s.ro.Wrap("changeset", s.wadm.wrap(s.handleChangeset)))
	mux.HandleFunc("/converge", s.ro.Wrap("converge", s.wadm.wrap(s.handleConverge)))
	// /stats, /healthz, /metrics and the trace endpoints stay outside
	// both gates: they are the triage path and must answer even when the
	// daemon is saturated (that is when an operator needs them most).
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", s.reg.Handler())
	mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /traces", s.traces.ServeList)
	return mux
}

// decodePost is the front half of every POST handler with a body:
// method check, bounded JSON decode, error accounting. It returns false
// when the request has been answered.
func (s *Server) decodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, api.ErrMethodNotAllowed, "POST only")
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes)).Decode(v); err != nil {
		msg := "bad JSON: " + err.Error()
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			msg = fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)
		}
		s.reject(w, http.StatusBadRequest, api.ErrBadRequest, msg)
		return false
	}
	return true
}

// handleStats, like handleHealthz, takes no request lock: every value it
// reads is either atomic or guarded by its own short-lived lock. In
// particular Generation comes from an atomic counter, so /stats reports
// a truthful generation even while a changeset commit is mid-swap.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
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
		Scans:           count(s.m.scans),
		Batches:         count(s.m.batches),
		Changesets:      count(s.m.changesets),
		ScanErrors:      count(s.m.scanErrors),
		ScansCanceled:   count(s.m.scansCanceled),
		ReportsServed:   count(s.m.reportsServed),
		GCRemoved:       count(s.m.gcRemoved),
		Store:           st,
		StoreHitRate:    st.HitRate(),
		Remote:          remote,
		Admission:       s.adm.snapshot(),
		WriteAdmission:  s.wadm.snapshot(),
		Shards:          s.shardStats(),
		TraceStore:      s.traces.Stats(),
		ScanExemplars:   s.m.scanDur.Exemplars(),
	})
}

// handleHealthz deliberately takes no locks: a liveness probe must
// answer instantly even mid-commit. Under MVCC there is no pending
// writer that could block it — every value here is an atomic load.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cb := s.inc.Codebase()
	gen := cb.Generation()
	s.writeOK(w, gen, &api.HealthzResponse{
		OK:              true,
		Files:           len(cb.Files()),
		Generation:      gen,
		PinnedSnapshots: cb.PinnedSnapshots(),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Compact: indenting cost a warm /scan a third of its reply bytes and
	// a measurable share of CPU. Pipe replies through `jq .` to read them.
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("kserve: encode response: %v", err)
	}
}

// writeOK writes a 200 JSON response stamped with the generation it was
// served against, both in the body (callers embed it) and in the
// X-KN-Generation header so clients that only look at headers can chain
// min_generation reads without parsing the body.
func (s *Server) writeOK(w http.ResponseWriter, gen int64, v any) {
	w.Header().Set(api.GenerationHeader, strconv.FormatInt(gen, 10))
	writeJSON(w, http.StatusOK, v)
}

// writeError writes the uniform error envelope.
func (s *Server) writeError(w http.ResponseWriter, code int, e *api.Error) {
	writeErrorEnvelope(w, code, e, s.inc.Codebase().Generation())
}

// httpError is the shorthand for errors that carry no retry hint.
func (s *Server) httpError(w http.ResponseWriter, code int, errCode, msg string) {
	s.writeError(w, code, &api.Error{Code: errCode, Message: msg})
}

// reject is httpError for a request that failed validation: it counts
// in scan_errors.
func (s *Server) reject(w http.ResponseWriter, code int, errCode, msg string) {
	s.m.scanErrors.Inc()
	s.httpError(w, code, errCode, msg)
}

// writeErrorEnvelope is the package-level core of writeError, shared
// with the admission gate (which sheds before any handler runs).
func writeErrorEnvelope(w http.ResponseWriter, code int, e *api.Error, gen int64) {
	w.Header().Set(api.GenerationHeader, strconv.FormatInt(gen, 10))
	// The request observer stamps X-Trace-Id on the response header
	// before the handler runs, so every error envelope — including
	// admission sheds, which write through this path directly — carries
	// the trace id the client can feed to GET /trace/{id}.
	writeJSON(w, code, &api.ErrorResponse{
		Err:        e,
		Generation: gen,
		TraceID:    w.Header().Get(obs.TraceHeader),
	})
}

// elapsedMS is the wire form of a duration since start.
func elapsedMS(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// splitPeers parses the Peers setting: comma-separated base URLs,
// whitespace-tolerant, trailing slashes dropped.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
			out = append(out, p)
		}
	}
	return out
}
