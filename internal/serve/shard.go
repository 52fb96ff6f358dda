package serve

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"knighter/internal/api"
	"knighter/internal/checker"
	"knighter/internal/obs"
	"knighter/internal/scan"
	"knighter/internal/shard"
)

// shardLayer is the server's view of the shard fleet: the scatter
// client, the generation-feed client, and the fan-out counters. nil on
// an unsharded daemon — every caller nil-checks, so the single-host
// paths are untouched.
//
// Every replica holds the FULL corpus; the shard index only decides
// which partition of the scan work this replica owns. That is what
// makes "any replica can coordinate" and "fall back to the local
// snapshot" cheap: a coordinator is never missing a dead shard's
// files, it is just slower at scanning them.
type shardLayer struct {
	sc    *shard.Scatter
	ring  shard.Ring
	index int
	peers []string
	// feed is the generation feed through kcached (nil when the daemon
	// runs sharded without -cache-remote; changesets then reach peers
	// only via their own coordinators).
	feed *shard.FeedClient
	// nudge posts best-effort /converge pokes to peers after a commit.
	nudge *http.Client

	// convergeMu serializes feed replays so two concurrent triggers
	// (a nudge racing a sub-scan's lazy converge) cannot interleave
	// their ApplyChangeset calls.
	convergeMu sync.Mutex

	// The fan-out counters, in the replica's registry; /stats reads the
	// same objects.
	scatters      *obs.Counter
	degraded      *obs.Counter
	subScans      *obs.Counter
	converges     *obs.Counter
	feedPublishes *obs.Counter
}

// newShardLayer builds the fleet layer cfg asks for — nil when
// ShardCount <= 1 — or reports shard settings that contradict each
// other. This replica owns partition ShardIndex of ShardCount, Peers
// lists every replica's base URL in shard-index order, and the
// CacheRemote kcached carries the generation feed. The scatter path
// lands on /metrics as the per-shard fan-out latency histogram, the
// degraded-scatter counter the fault-injection smoke asserts on, and
// the peer-health gauge vec.
func newShardLayer(reg *obs.Registry, cfg Config) (*shardLayer, error) {
	if cfg.ShardCount <= 1 {
		return nil, nil
	}
	peers := splitPeers(cfg.Peers)
	if len(peers) != cfg.ShardCount {
		return nil, fmt.Errorf("serve: -shard-count %d needs exactly that many -peers entries, got %d", cfg.ShardCount, len(peers))
	}
	if cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount {
		return nil, fmt.Errorf("serve: -shard-index %d out of range [0,%d)", cfg.ShardIndex, cfg.ShardCount)
	}
	sh := &shardLayer{
		ring:  shard.Ring{Count: cfg.ShardCount},
		index: cfg.ShardIndex,
		peers: peers,
		nudge: &http.Client{Timeout: 5 * time.Second},

		scatters: reg.Counter("shard_scatters_total", "Coordinated scan/batch fan-outs served by this replica."),
		degraded: reg.Counter("shard_degraded_scatters_total",
			"Scatter partitions recomputed on the local snapshot because their shard failed or timed out."),
		subScans:      reg.Counter("shard_sub_scans_total", "Shard-local sub-requests served for other coordinators, one per sub-request."),
		converges:     reg.Counter("shard_converges_total", "Generation-feed replays that brought this shard up to the fleet generation."),
		feedPublishes: reg.Counter("shard_feed_publishes_total", "Changeset commits published to the generation feed."),
	}
	if cfg.CacheRemote != "" {
		sh.feed = shard.NewFeedClient(cfg.CacheRemote, 5*time.Second)
	}
	fanoutDur := reg.HistogramVec("shard_fanout_duration_seconds",
		"Wall time of one shard's partition within a scatter (however served), by shard.",
		nil, "shard")
	peerHealthy := reg.GaugeVec("shard_peer_healthy",
		"Last-observed shard peer health: 1 healthy, 0 failed its last sub-request.", "peer")
	setHealth := func(i int, healthy bool) {
		v := 0.0
		if healthy {
			v = 1
		}
		peerHealthy.With(strconv.Itoa(i)).Set(v)
	}
	for i := range peers {
		setHealth(i, true)
	}
	sh.sc = shard.NewScatter(shard.Config{
		Ring:  sh.ring,
		Self:  sh.index,
		Peers: peers,
	}, shard.Hooks{
		FanoutDone: func(i int, d time.Duration) { fanoutDur.With(strconv.Itoa(i)).Observe(d.Seconds()) },
		Degraded:   func(int) { sh.degraded.Inc() },
		PeerHealth: setHealth,
	})
	return sh, nil
}

// others lists every peer's base URL but this replica's own.
func (sh *shardLayer) others() []string {
	var out []string
	for i, p := range sh.peers {
		if i != sh.index {
			out = append(out, p)
		}
	}
	return out
}

// shardStats is the /stats view of the fan-out layer (nil when
// unsharded).
func (s *Server) shardStats() *api.ShardStats {
	sh := s.shard
	if sh == nil {
		return nil
	}
	return &api.ShardStats{
		Index:          sh.index,
		Count:          sh.ring.Count,
		Peers:          sh.peers,
		Scatters:       count(sh.scatters),
		Degraded:       count(sh.degraded),
		SubScansServed: count(sh.subScans),
		Converges:      count(sh.converges),
		FeedPublishes:  count(sh.feedPublishes),
		PeerHealthy:    sh.sc.PeerHealth(),
	}
}

// localPartition scans cks over a partition's files on the
// coordinator's pinned snapshot, one uncapped sub-response per checker
// — exactly what the shard owner would have returned, since each entry
// of a pass equals what RunFiles returns for that checker alone. It
// serves the coordinator's own partition and is the fallback for
// everyone else's.
func (s *Server) localPartition(pin *scan.PinnedSnapshot, cks []checker.Checker, q api.Query) shard.Local {
	q.MaxReports = 0 // the merge applies the cap
	return func(ctx context.Context, files []string) ([]*api.ScanResponse, error) {
		idx, err := s.resolveFiles(files)
		if err != nil {
			return nil, err
		}
		out := make([]*api.ScanResponse, len(cks))
		results := s.inc.RunBatchAt(pin.Snapshot, cks, idx, scanOptions(ctx, &q))
		s.observeScan(ctx, results...)
		for i, res := range results {
			out[i] = api.ScanResult(cks[i].Name(), res, q.IncludeTrace, true)
		}
		return out, nil
	}
}

// scatterPaths is the ordered path list a coordinated request covers:
// the request's own, or every corpus path in canonical file order — the
// global order the merge reassembles.
func scatterPaths(cb *scan.Codebase, files []string) []string {
	if len(files) > 0 {
		return files
	}
	fs := cb.Files()
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
}

// scatter serves a coordinated read: pin the local snapshot, send each
// shard owner its partition as one shard-local /batch of the checkers
// (srcs holds their DSL texts, index for index with cks), and merge
// every checker's partials byte-identically to a single-host scan. Each
// merged entry carries the scatter's wall time, as a local pass's
// entries carry the pass's. It returns false when the scatter failed
// and the request has been answered.
func (s *Server) scatter(w http.ResponseWriter, r *http.Request, q *api.Query, cks []checker.Checker, srcs []string) ([]*api.ScanResponse, int64, bool) {
	cb := s.inc.Codebase()
	// The pinned snapshot serves three jobs: it is the local partition's
	// corpus, the fallback corpus for dead shards, and its generation is
	// the floor every sub-request must reach (min_generation) — so
	// however a partition ends up being served, it sees at least this
	// state.
	pin := cb.Pin()
	defer pin.Release()
	gen := pin.Snapshot.Generation()

	// The sub-request template is the client's query, max_reports
	// included: Scatter sends it per shard uncapped and applies the cap
	// at the merge.
	sub := api.BatchRequest{Checkers: srcs, Query: *q}
	sub.MinGeneration = gen
	names := make([]string, len(cks))
	for i, ck := range cks {
		names[i] = ck.Name()
	}
	start := time.Now()
	merged, info, err := s.shard.sc.Batch(r.Context(), shard.BatchJob{
		Req:      sub,
		Names:    names,
		Paths:    scatterPaths(cb, q.Files),
		ClientID: r.Header.Get(shard.ClientIDHeader),
		Local:    s.localPartition(pin, cks, *q),
	})
	s.shard.scatters.Inc()
	if err != nil {
		s.reject(w, http.StatusBadGateway, api.ErrUnavailable, "scatter failed: "+err.Error())
		return nil, 0, false
	}
	elapsed := elapsedMS(start)
	for _, m := range merged {
		m.ElapsedMS = elapsed
	}
	// One log line per degraded scatter — quiet in the healthy steady
	// state.
	if info.Degraded > 0 {
		id := ""
		if tr := obs.TraceFrom(r.Context()); tr != nil {
			id = tr.ID
		}
		log.Printf("kserve: scatter %s: shards=%d degraded=%d gen=%d trace=%s",
			strings.TrimPrefix(r.URL.Path, "/"), info.Shards, info.Degraded, gen, id)
	}
	return merged, gen, true
}

// maybeConverge pulls the generation feed when a sharded replica
// notices a request wants a generation it has not reached: the lazy
// half of fleet convergence (the eager half is the post-commit nudge).
// Failures are not fatal here — awaitMinGeneration still waits after,
// and 409s if the corpus really cannot get there.
func (s *Server) maybeConverge(ctx context.Context, min int64) {
	sh := s.shard
	if sh == nil || sh.feed == nil || s.inc.Codebase().Generation() >= min {
		return
	}
	if _, err := s.converge(ctx); err != nil {
		log.Printf("kserve: converge: %v", err)
	}
}

// converge pulls the feed entries this replica is missing and replays
// them in generation order. Replays go through ApplyChangeset, so they
// invalidate stale cache entries and wake min_generation waiters
// exactly like a directly-served commit.
func (s *Server) converge(ctx context.Context) (int, error) {
	sh := s.shard
	if sh == nil || sh.feed == nil {
		return 0, nil
	}
	sh.convergeMu.Lock()
	defer sh.convergeMu.Unlock()
	cb := s.inc.Codebase()
	page, err := sh.feed.Since(ctx, cb.Generation())
	if err != nil {
		return 0, err
	}
	applied := 0
	for _, e := range page.Entries {
		cur := cb.Generation()
		if e.Generation <= cur {
			continue // raced a direct commit of the same generation
		}
		if e.Generation != cur+1 {
			return applied, fmt.Errorf("feed gap: at generation %d, next feed entry is %d (fell out of the feed's retention window?)", cur, e.Generation)
		}
		if _, err := s.inc.ApplyChangeset(toScanChanges(e.Changes)); err != nil {
			return applied, fmt.Errorf("replay generation %d: %w", e.Generation, err)
		}
		applied++
	}
	if applied > 0 {
		sh.converges.Inc()
	}
	return applied, nil
}

// handleConverge is the eager convergence endpoint: coordinators poke
// it on peers after committing, and operators can poke it by hand. It
// sits behind the write gate because a replay IS a write.
func (s *Server) handleConverge(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, api.ErrMethodNotAllowed, "POST only")
		return
	}
	if s.shard == nil || s.shard.feed == nil {
		s.httpError(w, http.StatusNotFound, api.ErrUnavailable, "not sharded, or no generation feed configured (-shard-count, -cache-remote)")
		return
	}
	start := time.Now()
	applied, err := s.converge(r.Context())
	if err != nil {
		s.writeError(w, http.StatusConflict, &api.Error{
			Code:    api.ErrGenerationUnavailable,
			Message: "converge: " + err.Error(),
		})
		return
	}
	gen := s.inc.Codebase().Generation()
	s.writeOK(w, gen, &api.ConvergeResponse{
		Generation: gen,
		Applied:    applied,
		ElapsedMS:  elapsedMS(start),
	})
}

// shardPublish commits a mutation fleet-wide: publish (generation,
// changes) — the committed changeset, never empty — to the feed, then
// nudge every peer to converge. Both legs are asynchronous and
// best-effort — the local commit already succeeded, and a peer that
// misses the nudge converges lazily the next time a sub-scan arrives
// with a min_generation it has not seen.
// The mutation request's trace rides along on both legs (feed publish
// and nudges propagate X-Trace-Id/X-Span-Id), so the assembled trace
// of a changeset shows the fan-out it triggered.
func (s *Server) shardPublish(ctx context.Context, gen int64, changes []api.Change) {
	sh := s.shard
	if sh == nil || sh.feed == nil {
		return
	}
	sh.feedPublishes.Inc()
	entry := api.FeedEntry{Generation: gen, Changes: changes}
	tr := obs.TraceFrom(ctx)
	go func() {
		// Background-derived context: the legs outlive the request, but
		// keep its trace so the downstream fragments join the same tree.
		bctx := obs.WithTrace(context.Background(), tr)
		pctx, cancel := context.WithTimeout(bctx, 5*time.Second)
		defer cancel()
		if err := sh.feed.Publish(pctx, entry); err != nil {
			log.Printf("kserve: feed publish generation %d: %v", gen, err)
			return
		}
		for _, peer := range sh.others() {
			go func(peer string) {
				nctx, ncancel := context.WithTimeout(bctx, 5*time.Second)
				defer ncancel()
				req, err := http.NewRequestWithContext(nctx, http.MethodPost, peer+"/converge", nil)
				if err != nil {
					return
				}
				req.Header.Set("Content-Type", "application/json")
				obs.InjectHeaders(nctx, req.Header)
				resp, err := sh.nudge.Do(req)
				if err != nil {
					return
				}
				// Read the reply to the end, so the connection goes back
				// to the pool and the next commit's nudge reuses it.
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}(peer)
		}
	}()
}
