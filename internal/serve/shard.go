package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"slices"
	"sort"
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
	// feed is the generation feed through kcached: the catch-up log of
	// every commit, for a peer that misses a nudge or falls behind.
	feed *shard.FeedClient
	// nudge posts best-effort /converge pokes to peers after a commit,
	// each carrying the commit's feed entry.
	nudge *http.Client
	// gate admits the sub-batches other coordinators post to
	// shard.SubBatchPath.
	gate *admission

	// table is the ring's partition of the corpus, built at boot: a
	// whole-corpus scatter sends its references, and a sub-batch naming
	// one scans the files it resolves to.
	table *shard.Table

	// writeMu is the replica's one writer lock: every corpus write on a
	// fleet replica — a direct commit, a pushed or pulled replay — holds
	// it, so a commit's generation (live+1) is fixed before it is pushed,
	// and two triggers (a nudge racing a sub-batch's lazy converge)
	// cannot interleave their replays.
	writeMu sync.Mutex

	// The fan-out counters, in the replica's registry; /stats reads the
	// same objects.
	scatters      *obs.Counter
	degraded      *obs.Counter
	subScans      *obs.Counter
	converges     *obs.Counter
	feedPublishes *obs.Counter
}

// newShardLayer builds the fleet layer cfg asks for over cb's corpus —
// nil when ShardCount <= 1 — or reports shard settings that contradict
// each other. This replica owns partition ShardIndex of ShardCount, Peers
// lists every replica's base URL in shard-index order, and the
// CacheRemote kcached, which a fleet must name, carries the generation
// feed. The scatter path lands on /metrics as the per-shard fan-out
// latency histogram, the degraded-scatter counter the fault-injection
// smoke asserts on, and the peer-health gauge vec.
func newShardLayer(reg *obs.Registry, cfg Config, cb *scan.Codebase) (*shardLayer, error) {
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
	if cfg.CacheRemote == "" {
		return nil, fmt.Errorf("serve: -shard-count %d needs -cache-remote: the kcached generation feed is how a commit reaches the peers", cfg.ShardCount)
	}
	ring := shard.Ring{Count: cfg.ShardCount}
	files := cb.Files()
	paths := make([]string, len(files))
	for i, f := range files {
		paths[i] = f.Name
	}
	sh := &shardLayer{
		ring:  ring,
		table: ring.Table(paths),
		index: cfg.ShardIndex,
		peers: peers,
		feed:  shard.NewFeedClient(cfg.CacheRemote),
		nudge: &http.Client{Timeout: 5 * time.Second},

		scatters: reg.Counter("shard_scatters_total", "Coordinated scan/batch fan-outs served by this replica."),
		degraded: reg.Counter("shard_degraded_scatters_total",
			"Scatter partitions recomputed on the local snapshot because their shard failed or timed out."),
		subScans:      reg.Counter("shard_sub_scans_total", "Shard-local sub-requests served for other coordinators, one per sub-request."),
		converges:     reg.Counter("shard_converges_total", "Generation-feed replays that brought this shard up to the fleet generation."),
		feedPublishes: reg.Counter("shard_feed_publishes_total", "Changeset commits published to the generation feed."),
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
		Table: sh.table,
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
		SubAdmission:   sh.gate.snapshot(),
	}
}

// localPartition scans cks over a partition's files on the
// coordinator's pinned snapshot, one uncapped sub-response per checker
// — exactly what the shard owner would have returned, since each entry
// of a pass equals what RunFiles returns for that checker alone. It
// serves the coordinator's own partition and is the fallback for
// everyone else's.
func (s *Server) localPartition(pin *scan.PinnedSnapshot, cks []checker.Checker, q api.Query) shard.Local {
	return func(ctx context.Context, files []string) ([]*api.ScanResponse, error) {
		idx, err := s.resolveFiles(files)
		if err != nil {
			return nil, err
		}
		// Uncapped: the merge applies MaxReports.
		return s.localPass(ctx, pin.Snapshot, cks, idx, 0, q.IncludeTrace, true), nil
	}
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
		Req:   sub,
		Names: names,
		Paths: q.Files,
		Local: s.localPartition(pin, cks, *q),
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
	if sh == nil || s.inc.Codebase().Generation() >= min {
		return
	}
	if _, err := s.converge(ctx, min, nil); err != nil {
		log.Printf("kserve: converge: %v", err)
	}
}

// converge replays the generations this replica is missing, in order.
// Replays go through ReplayChangeset, so they drop stale entries from
// this replica's memory tier (the committer already dropped them from
// kcached) and wake min_generation waiters exactly like a
// directly-served commit. A caller that wants generation want (> 0)
// does nothing if the replica has reached it once it holds writeMu: a
// nudge and a lazy converge race for the lock, and the loser finds the
// winner's replay already applied. pushed is the entry a commit's nudge
// carried, or nil: a replica exactly one generation behind it applies
// it without pulling the feed; one further behind pulls and replays the
// page, then the pushed entry if the page lacks its generation (for a
// generation both hold, the page wins). A pushed entry the replica
// rejects is one its committer rejects too, since both validate it on
// the same parent state: it takes no generation on either. Only a
// sharded replica converges.
func (s *Server) converge(ctx context.Context, want int64, pushed *api.FeedEntry) (int, error) {
	sh := s.shard
	sh.writeMu.Lock()
	defer sh.writeMu.Unlock()
	cb := s.inc.Codebase()
	if want > 0 && cb.Generation() >= want {
		return 0, nil
	}
	var entries []api.FeedEntry
	if pushed == nil || pushed.Generation != cb.Generation()+1 {
		page, err := sh.feed.Since(ctx, cb.Generation())
		if err != nil {
			return 0, err
		}
		entries = page.Entries
	}
	if pushed != nil {
		i := sort.Search(len(entries), func(i int) bool { return entries[i].Generation >= pushed.Generation })
		if i == len(entries) || entries[i].Generation != pushed.Generation {
			entries = slices.Insert(entries, i, *pushed)
		}
	}
	applied := 0
	for _, e := range entries {
		cur := cb.Generation()
		if e.Generation <= cur {
			continue // raced a direct commit of the same generation
		}
		if e.Generation != cur+1 {
			return applied, fmt.Errorf("feed gap: at generation %d, next feed entry is %d (fell out of the feed's retention window?)", cur, e.Generation)
		}
		if _, err := s.inc.ReplayChangeset(toScanChanges(e.Changes)); err != nil {
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
// it on peers after committing, with ?generation= the generation they
// committed and that generation's feed entry as the body, and operators
// can poke it by hand with neither (always a pull). It sits behind the
// write gate because a replay IS a write.
func (s *Server) handleConverge(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, api.ErrMethodNotAllowed, "POST only")
		return
	}
	if s.shard == nil {
		s.httpError(w, http.StatusNotFound, api.ErrUnavailable, "not sharded (-shard-count)")
		return
	}
	var want int64
	if g := r.URL.Query().Get("generation"); g != "" {
		var err error
		if want, err = strconv.ParseInt(g, 10, 64); err != nil {
			s.reject(w, http.StatusBadRequest, api.ErrBadRequest, "generation: "+err.Error())
			return
		}
	}
	var pushed *api.FeedEntry
	if r.ContentLength != 0 {
		pushed = new(api.FeedEntry)
		if !s.decodePost(w, r, pushed) {
			return
		}
		if pushed.Generation <= 0 || len(pushed.Changes) == 0 || want != 0 && want != pushed.Generation {
			s.reject(w, http.StatusBadRequest, api.ErrBadRequest, fmt.Sprintf(
				"pushed entry: generation %d with %d changes, want ?generation= (> 0) with changes",
				pushed.Generation, len(pushed.Changes)))
			return
		}
		want = pushed.Generation
	}
	start := time.Now()
	applied, err := s.converge(r.Context(), want, pushed)
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

// shardCommit commits changes fleet-wide, as a command: under writeMu
// it takes live+1 as the commit's generation, encodes the feed entry
// (generation, the wire changes — never empty) once and pushes it to
// every peer's /converge?generation=gen before it parses anything, then
// applies it locally and, only if that succeeds, publishes it to the
// feed. A peer at gen−1 replays the pushed entry while this replica
// applies it, instead of after. A changeset this replica rejects, every
// peer rejects the same way, since each validates it on the same
// gen−1 state, so no replica spends a generation on it and the feed
// never sees it. The push and the publish are asynchronous and
// best-effort: the feed stays the catch-up log for a peer further
// behind, and a peer that misses its nudge converges lazily the next
// time a sub-batch arrives with a min_generation it has not seen. The
// request's trace rides along on every leg (X-Trace-Id/X-Span-Id), so
// the assembled trace of a changeset shows the fan-out it triggered.
func (s *Server) shardCommit(ctx context.Context, wire []api.Change, changes []scan.Change) (*scan.Changeset, error) {
	sh := s.shard
	sh.writeMu.Lock()
	defer sh.writeMu.Unlock()
	gen := s.inc.Codebase().Generation() + 1
	entry, err := json.Marshal(api.FeedEntry{Generation: gen, Changes: wire})
	if err != nil {
		return nil, err
	}
	// Background-derived contexts: the legs outlive the request, but keep
	// its trace so the downstream fragments join the same tree.
	bctx := obs.WithTrace(context.Background(), obs.TraceFrom(ctx))
	for _, peer := range sh.others() {
		go sh.nudgePeer(bctx, peer, gen, entry)
	}
	// Yield once, so the pushes are on the wire before the apply takes
	// this goroutine's processor: without it they left ≈ 0.1 ms later
	// on a two-core box, and more sub-batches waited on the replay.
	runtime.Gosched()
	cs, err := s.inc.ApplyChangeset(changes)
	if err != nil {
		return nil, err
	}
	sh.feedPublishes.Inc()
	go func() {
		pctx, cancel := context.WithTimeout(bctx, 5*time.Second)
		defer cancel()
		if err := sh.feed.Publish(pctx, entry); err != nil {
			log.Printf("kserve: feed publish generation %d: %v", gen, err)
		}
	}()
	return cs, nil
}

// nudgePeer posts /converge?generation=gen to peer with entry, the
// commit's encoded feed entry, as the body.
func (sh *shardLayer) nudgePeer(bctx context.Context, peer string, gen int64, entry []byte) {
	ctx, cancel := context.WithTimeout(bctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/converge?generation="+strconv.FormatInt(gen, 10), bytes.NewReader(entry))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	obs.InjectHeaders(ctx, req.Header)
	resp, err := sh.nudge.Do(req)
	if err != nil {
		return
	}
	// Read the reply to the end, so the connection goes back to the pool
	// and the next commit's nudge reuses it.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
