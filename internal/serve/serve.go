// Package serve is the incremental scan service behind cmd/kserve: one
// constructor, New(Config), builds a replica — parsed corpus, cache
// stack, admission gates, shard layer, trace store, metrics registry —
// and Handler returns what the binary, every test and the benchmarks
// mount. NewCache(CacheConfig) does the same for cmd/kcached, the fleet
// cache daemon (cache.go).
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
// never drain writes. POST /batch evaluates N checker revisions as one
// pass over one pinned snapshot (StaAgent-style many-revision
// evaluation), and POST /scan is its one-checker case: both handlers
// run through one read core (read, in scan.go).
//
// The read endpoints (/scan, /batch) sit behind a bounded admission
// queue (MaxInflight, MaxQueued); the write endpoints (/changeset,
// /converge) behind their own gate, one write at a time with
// MaxQueuedWrites waiting — so a changeset storm sheds writes, never
// reads. Excess load is shed with 429 + Retry-After instead of being
// buffered without bound.
//
// With ShardCount N (plus ShardIndex and Peers) the replica joins a
// sharded fleet: each replica owns the files whose path hash lands on
// its index, any replica coordinates a read by sending each owner its
// partition as one shard-local sub-batch (behind the owner's sub-batch
// gate, not its read gate) and merging every checker's partials
// byte-identically to a single-host scan, and changesets propagate
// fleet-wide through a generation feed hosted on the CacheRemote
// kcached (peers replay it via POST /converge). A dead or behind shard
// degrades its partition to the coordinator's local snapshot — slower,
// never wrong.
//
// The cache is one store.Stack: a memory tier, over kcached when
// CacheRemote is set. A replica keeps no disk of its own; the fleet's
// one durable tier is kcached's, so a host that wants to restart warm
// runs kcached beside it. Promotion, write-through and the per-tier
// /metrics families are the stack's.
//
// Wire types live in internal/api: every response carries the corpus
// generation (body + X-KN-Generation header), scan-shaped requests
// accept min_generation (read-your-writes), and errors use the
// {"error": {"code", "message", "retry_after_ms"}} envelope. Every
// service counter is one obs.Counter in the replica's registry: /stats
// and /metrics read the same objects.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
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
// cmd/kserve flag of the same name (Seed is -seed, MaxQueuedWrites is
// -max-queued-writes, ...), with the flag's meaning, and the
// zero Config is what kserve runs with no flags: a zero field selects
// the flag's default, and a negative one is an error that names the
// flag. Seed is the exception: seed 0 is a corpus of its own, and
// -seed defaults to 1.
type Config struct {
	Seed  int64
	Scale float64

	CacheBytes  int64
	CacheRemote string

	MaxInflight     int
	MaxQueued       int
	MaxQueuedWrites int

	ShardIndex int
	ShardCount int
	Peers      string

	SlowScan    time.Duration
	TraceRetain int
	TraceSample float64
}

const traceRetain, traceSample = 512, 0.05 // the trace store's, on both daemons

// DefaultConfig is the zero Config with its defaults filled in, which
// cmd/kserve's flags show.
func DefaultConfig() Config {
	c, _ := Config{}.withDefaults()
	return c
}

// withDefaults fills every zero field with its default, and names the
// first negative one.
func (c Config) withDefaults() (Config, error) {
	var err error
	orDefault(&err, "-scale", &c.Scale, 1)
	orDefault(&err, "-cache-bytes", &c.CacheBytes, store.DefaultMemoryBytes)
	orDefault(&err, "-max-inflight", &c.MaxInflight, runtime.GOMAXPROCS(0))
	orDefault(&err, "-max-queued", &c.MaxQueued, 64)
	orDefault(&err, "-max-queued-writes", &c.MaxQueuedWrites, 32)
	orDefault(&err, "-shard-count", &c.ShardCount, 1)
	orDefault(&err, "-slow-scan", &c.SlowScan, 0) // off
	orDefault(&err, "-trace-retain", &c.TraceRetain, traceRetain)
	orDefault(&err, "-trace-sample", &c.TraceSample, traceSample)
	return c, err
}

// orDefault replaces a zero *v with def, and sets *err, unless already
// set, when *v is negative.
func orDefault[T int | int64 | float64 | time.Duration](err *error, flag string, v *T, def T) {
	if *v < 0 && *err == nil {
		*err = fmt.Errorf("serve: %s %v is negative", flag, *v)
	}
	if *v == 0 {
		*v = def
	}
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
	// traces is the tail-sampled trace store behind GET /trace/{id}.
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
	// flowing untouched — and vice versa.
	adm  *admission
	wadm *admission
	// shard is the fleet fan-out layer (ShardCount > 1); nil on a
	// single-host daemon, and every shard path nil-checks it.
	shard *shardLayer
	// remote is the shared fleet cache tier, when CacheRemote is set;
	// kept for /stats health reporting and the breaker gauges.
	remote *store.Remote
}

// New builds a replica from cfg: it generates and parses the corpus,
// opens the store, and derives the gates, the shard layer, the trace
// store and its collector targets and the metrics. Call Close when done
// with it.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cb, err := scan.NewCodebase(kernel.Generate(kernel.Config{Seed: cfg.Seed, Scale: cfg.Scale}))
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry("kserve")
	sh, err := newShardLayer(reg, cfg, cb)
	if err != nil {
		return nil, err
	}
	var remote *store.Remote
	if cfg.CacheRemote != "" {
		if remote, err = store.NewRemote(cfg.CacheRemote, store.RemoteConfig{}); err != nil {
			return nil, err
		}
	}
	st := store.NewStack(reg, store.Tier{Name: "memory", Store: store.NewMemory(cfg.CacheBytes)}, remote)
	s := &Server{
		inc:     scan.NewIncremental(cb, st),
		started: time.Now(),
		reg:     reg,
		traces:  obs.NewTraceStore(cfg.TraceRetain, cfg.TraceSample, cfg.SlowScan),
		shard:   sh,
		remote:  remote,
	}
	s.instrument()

	name := "kserve"
	if sh != nil {
		// "kserve-<index>" inside a fleet, so an assembled trace shows
		// WHICH replica served each partition.
		name = "kserve-" + strconv.Itoa(sh.index)
		log.Printf("kserve: shard %d/%d, peers=%v", sh.index, sh.ring.Count, sh.peers)
	}
	if cfg.CacheRemote != "" {
		log.Printf("kserve: fleet cache tier: %s", cfg.CacheRemote)
	}
	s.traceColl = shard.NewTraceCollector(traceTargets(sh, cfg.CacheRemote))
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
	s.adm = newAdmission(reg, "admission", cfg.MaxInflight, cfg.MaxQueued, gen)
	s.wadm = newAdmission(reg, "write_admission", 1, cfg.MaxQueuedWrites, gen)
	log.Printf("kserve: admission control: reads %d inflight, %d queued; writes 1 inflight, %d queued",
		cfg.MaxInflight, cfg.MaxQueued, cfg.MaxQueuedWrites)
	if sh != nil { // one sub-batch per read slot of every other coordinator
		sh.gate = newAdmission(reg, "shard_sub_admission", cfg.MaxInflight*(cfg.ShardCount-1), cfg.MaxQueued, gen)
	}

	s.handler = s.routes()
	version, goVersion := obs.BuildVersion()
	log.Printf("kserve: %s (%s) holding %d files / %d functions", version, goVersion, len(cb.Files()), cb.NumFuncs())
	return s, nil
}

// Handler is the replica's whole HTTP surface.
func (s *Server) Handler() http.Handler { return s.handler }

// Close logs the final counters. Call it after the listener has
// drained.
func (s *Server) Close() {
	stats := s.inc.Stats()
	log.Printf("kserve: final stats: uptime=%.1fs scans=%d batches=%d reports=%d cache_hits=%d cache_misses=%d hit_rate=%.3f",
		time.Since(s.started).Seconds(), count(s.m.scans), count(s.m.batches),
		count(s.m.reportsServed), stats.Hits, stats.Misses, stats.HitRate())
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
	// A sub-batch has a gate of its own: its coordinator holds a read
	// slot meanwhile, so behind the read gate two replicas'
	// coordinators queued each other's sub-batches until the scatter
	// timeout. A sub-batch never scatters, so it never waits on a slot.
	if s.shard != nil {
		mux.HandleFunc("POST "+shard.SubBatchPath, s.ro.Wrap("sub_batch", s.shard.gate.wrap(s.handleSubBatch)))
	}
	// /stats, /healthz, /metrics and the trace endpoints stay outside
	// every gate: they are the triage path and must answer even when the
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

// traceTargets lists everyone who may hold a fragment of a trace this
// replica coordinated: every shard peer but this replica (each
// sub-request left a fragment on its owner), then kcached.
func traceTargets(sh *shardLayer, cacheRemote string) []string {
	var out []string
	if sh != nil {
		out = sh.others()
	}
	if cacheRemote != "" {
		out = append(out, strings.TrimRight(cacheRemote, "/"))
	}
	return out
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
