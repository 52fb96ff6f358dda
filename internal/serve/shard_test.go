package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knighter/internal/api"
	"knighter/internal/minic"
	"knighter/internal/scan"
	"knighter/internal/shard"
)

// sameScan asserts the deterministic fields of two scan responses match:
// the byte-identity contract covers reports (order included), runtime
// errors, counters, and truncation — not timings or cache counters.
func sameScan(t *testing.T, label string, got, want *api.ScanResponse) {
	t.Helper()
	if gj, wj := reportsJSON(t, got), reportsJSON(t, want); gj != wj {
		t.Fatalf("%s: reports diverge\n got: %s\nwant: %s", label, gj, wj)
	}
	if got.FilesScanned != want.FilesScanned || got.FuncsScanned != want.FuncsScanned {
		t.Fatalf("%s: scanned files=%d/%d funcs=%d/%d", label,
			got.FilesScanned, want.FilesScanned, got.FuncsScanned, want.FuncsScanned)
	}
	if got.Truncated != want.Truncated {
		t.Fatalf("%s: truncated=%v, want %v", label, got.Truncated, want.Truncated)
	}
	if len(got.RuntimeErrs) != len(want.RuntimeErrs) {
		t.Fatalf("%s: %d runtime errs, want %d", label, len(got.RuntimeErrs), len(want.RuntimeErrs))
	}
	if got.Generation != want.Generation {
		t.Fatalf("%s: generation=%d, want %d", label, got.Generation, want.Generation)
	}
}

// TestShardedScanByteIdentical is the tentpole acceptance criterion: a
// scatter/gathered scan — whole corpus, explicit file subset,
// MaxReports-truncated, and with path traces — returns byte-identical
// reports to a single-host scan, from any coordinator.
func TestShardedScanByteIdentical(t *testing.T) {
	_, single := bootOne(t, Config{})
	srvs, tss := boot(t, 3, Config{})

	req := api.ScanRequest{Checker: testChecker}
	want := postScan(t, single, req)
	if len(want.Reports) == 0 {
		t.Fatal("fixture checker found no reports; the equivalence check is vacuous")
	}
	sameScan(t, "full corpus", postScan(t, tss[0], req), want)
	// Any replica can coordinate, not just shard 0.
	sameScan(t, "coordinator=1", postScan(t, tss[1], req), want)

	// Truncation is applied by the coordinator after the merge, so the
	// capped prefix is the same bytes a single host would keep.
	capped := api.ScanRequest{Checker: testChecker, Query: api.Query{MaxReports: 3}}
	sameScan(t, "max_reports", postScan(t, tss[0], capped), postScan(t, single, capped))

	// Traces travel in the owners' sub-batch replies only when asked for.
	traced := api.ScanRequest{Checker: testChecker, Query: api.Query{IncludeTrace: true}}
	tw := postScan(t, single, traced)
	steps := 0
	for _, rep := range tw.Reports {
		steps += len(rep.Trace)
	}
	if steps == 0 {
		t.Fatal("include_trace returned no trace steps; the traced check is vacuous")
	}
	sameScan(t, "include_trace", postScan(t, tss[0], traced), tw)

	// An explicit file subset partitions the same way.
	files := srvs[0].inc.Codebase().Files()
	var subset []string
	for i := 0; i < len(files); i += 3 {
		subset = append(subset, files[i].Name)
	}
	sub := api.ScanRequest{Checker: testChecker, Query: api.Query{Files: subset}}
	sameScan(t, "file subset", postScan(t, tss[0], sub), postScan(t, single, sub))

	if count(srvs[0].shard.scatters) == 0 {
		t.Fatal("coordinator recorded no scatters")
	}
	if subs := count(srvs[1].shard.subScans) + count(srvs[2].shard.subScans); subs == 0 {
		t.Fatal("no peer served a shard-local sub-scan — the work never fanned out")
	}
	if d := count(srvs[0].shard.degraded); d != 0 {
		t.Fatalf("healthy fleet recorded %d degraded scatters", d)
	}
	st := getStats(t, tss[0])
	if st.Shards == nil || st.Shards.Count != 3 || st.Shards.Scatters == 0 {
		t.Fatalf("/stats shards = %+v", st.Shards)
	}
}

// TestShardedScanShardDeathFallsBack kills one shard owner outright and
// asserts the fault-injection acceptance criterion: zero non-2xx
// client responses, byte-identical merged output (served degraded from
// the coordinator's local snapshot), and the degraded counter visible
// on /stats and /metrics.
func TestShardedScanShardDeathFallsBack(t *testing.T) {
	_, single := bootOne(t, Config{})
	srvs, tss := boot(t, 3, Config{})
	tss[2].Close() // SIGKILL stand-in: connections refused from now on

	req := api.ScanRequest{Checker: testChecker}
	want := postScan(t, single, req)
	// postScan fails the test on any non-200, so one passing call IS the
	// zero-non-2xx assertion.
	sameScan(t, "shard death", postScan(t, tss[0], req), want)

	if d := count(srvs[0].shard.degraded); d == 0 {
		t.Fatal("dead shard produced no degraded scatter")
	}
	st := getStats(t, tss[0])
	if st.Shards.Degraded == 0 {
		t.Fatalf("/stats degraded_scatters = %d, want > 0", st.Shards.Degraded)
	}
	if len(st.Shards.PeerHealthy) != 3 || st.Shards.PeerHealthy[2] {
		t.Fatalf("/stats peer health = %v, want shard 2 unhealthy", st.Shards.PeerHealthy)
	}
	metrics := getMetrics(t, tss[0])
	for _, name := range []string{
		"kserve_shard_degraded_scatters_total",
		"kserve_shard_fanout_duration_seconds",
		"kserve_shard_peer_healthy",
		"kserve_shard_scatters_total",
	} {
		if !strings.Contains(metrics, name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}
	if strings.Contains(metrics, "kserve_shard_degraded_scatters_total 0\n") {
		t.Fatal("/metrics still reports zero degraded scatters")
	}
}

// TestShardedBatchByteIdentical: /batch scatters per checker and merges
// per entry; compile errors keep their request positions, and
// max_reports caps every merged entry exactly where a single host cuts
// it (sub-batches run uncapped; the cap is applied at the merge). Each
// owner counts the sub-batch it served in sub_scans_served, and every
// merged entry carries the scatter's wall time as its elapsed_ms.
func TestShardedBatchByteIdentical(t *testing.T) {
	_, single := bootOne(t, Config{})
	srvs, tss := boot(t, 3, Config{})

	for _, maxReports := range []int{0, 3} {
		req := api.BatchRequest{Query: api.Query{MaxReports: maxReports}, Checkers: []string{
			testChecker,
			"checker broken {", // keeps its slot as a per-entry error
			strings.Replace(testChecker, "serve_npd", "serve_npd_b", 1),
		}}
		var want, got api.BatchResponse
		if code := postJSON(t, single, "/batch", req, &want); code != 200 {
			t.Fatalf("single-host /batch = %d", code)
		}
		before := []int64{count(srvs[1].shard.subScans), count(srvs[2].shard.subScans)}
		if code := postJSON(t, tss[0], "/batch", req, &got); code != 200 {
			t.Fatalf("sharded /batch = %d", code)
		}
		for i, owner := range srvs[1:] {
			if after := count(owner.shard.subScans); after <= before[i] {
				t.Fatalf("shard %d served a sub-batch but sub_scans_served stayed at %d", i+1, after)
			}
		}
		if got.CheckersRun != want.CheckersRun || got.CheckerErrors != want.CheckerErrors {
			t.Fatalf("run=%d/%d errors=%d/%d", got.CheckersRun, want.CheckersRun, got.CheckerErrors, want.CheckerErrors)
		}
		if got.Results[1].Error == "" || want.Results[1].Error == "" {
			t.Fatal("broken checker's per-entry error was lost")
		}
		for _, i := range []int{0, 2} {
			sameScan(t, fmt.Sprintf("batch entry %d, max_reports %d", i, maxReports), got.Results[i], want.Results[i])
			if got.Results[i].ElapsedMS <= 0 {
				t.Fatalf("coordinated batch entry %d: elapsed_ms %v, want the scatter's wall time", i, got.Results[i].ElapsedMS)
			}
			if maxReports > 0 && (len(want.Results[i].Reports) != maxReports || !want.Results[i].Truncated) {
				t.Fatalf("fixture does not exercise the cap: single host kept %d reports, truncated=%v",
					len(want.Results[i].Reports), want.Results[i].Truncated)
			}
		}
	}
}

// TestShardedReadsCountClientRequests: after one coordinated /scan and
// one coordinated /batch of two checkers, the coordinator has counted
// what its client sent — three checker scans and one batch — and each
// owner one sub-request per scatter in sub_scans_served and the
// checkers it scanned in scans, but no batch: batches counts client
// batches only.
func TestShardedReadsCountClientRequests(t *testing.T) {
	_, tss := boot(t, 3, Config{})
	type counts struct{ scans, batches, subs int64 }
	check := func(after string, want ...counts) {
		t.Helper()
		for i, ts := range tss {
			st := getStats(t, ts)
			if got := (counts{st.Scans, st.Batches, st.Shards.SubScansServed}); got != want[i] {
				t.Errorf("after a coordinated %s, replica %d counts %+v, want %+v", after, i, got, want[i])
			}
		}
	}
	postScan(t, tss[0], api.ScanRequest{Checker: testChecker})
	check("/scan", counts{1, 0, 0}, counts{1, 0, 1}, counts{1, 0, 1})
	if code := postJSON(t, tss[0], "/batch", api.BatchRequest{Checkers: []string{testChecker, testCheckerB}}, nil); code != 200 {
		t.Fatalf("sharded /batch = %d", code)
	}
	check("/batch", counts{3, 1, 0}, counts{3, 0, 2}, counts{3, 0, 2})
}

// TestShardSubBatchesSkipTheReadGate: coordinators on two replicas,
// together holding every read slot of both, still finish their scans.
// Each coordinator holds its slot while its sub-batch runs on the other
// replica, so a sub-batch that queued behind that replica's read gate
// waited for the slots its own coordinators held, and every partition
// degraded to the local snapshot after the scatter timeout (60 s). The
// eight scans are held at the door until all have arrived, so both
// gates fill with coordinators before any sub-batch is sent.
func TestShardSubBatchesSkipTheReadGate(t *testing.T) {
	const perReplica = 4
	var door sync.WaitGroup
	door.Add(2 * perReplica)
	srvs, tss := bootWith(t, 2, Config{MaxInflight: 2, MaxQueued: 64}, func(_ int, ts *httptest.Server) {
		h := ts.Config.Handler
		ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/scan" {
				door.Done()
				door.Wait()
			}
			h.ServeHTTP(w, r)
		})
	})
	client := &http.Client{Timeout: 5 * time.Second}
	errs := make(chan error, 2*perReplica)
	for i := 0; i < 2*perReplica; i++ {
		go func(i int) {
			// Distinct revisions, so every scan is cold.
			ck := strings.Replace(testChecker, "serve_npd", fmt.Sprintf("serve_npd_%d", i), 1)
			body, err := json.Marshal(api.ScanRequest{Checker: ck})
			if err == nil {
				var resp *http.Response
				if resp, err = client.Post(tss[i%2].URL+"/scan", "application/json", bytes.NewReader(body)); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
			}
			if err != nil {
				err = fmt.Errorf("scan %d via replica %d: %w", i, i%2, err)
			}
			errs <- err
		}(i)
	}
	for i := 0; i < 2*perReplica; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	for i, srv := range srvs {
		if sc, d := count(srv.shard.scatters), count(srv.shard.degraded); sc != perReplica || d != 0 {
			t.Errorf("replica %d: %d scatters with %d degraded partitions, want %d with 0", i, sc, d, perReplica)
		}
	}
}

// TestShardSubBatchGate: only a fleet member mounts the sub-batch
// route, and there it sits behind a gate of its own, sized to one
// sub-batch per read slot of every other coordinator, that sheds a
// caller past its slots and queue like the read gate does.
func TestShardSubBatchGate(t *testing.T) {
	sub := api.BatchRequest{Checkers: []string{testChecker}}
	_, lone := bootOne(t, Config{})
	if resp, err := call(http.MethodPost, lone.URL+shard.SubBatchPath, sub, nil); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unsharded POST %s: %v, %v, want 404", shard.SubBatchPath, resp, err)
	}

	srvs, tss := boot(t, 2, Config{MaxInflight: 1, MaxQueued: 1})
	gate, url := srvs[0].shard.gate, tss[0].URL+shard.SubBatchPath
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseSlot := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseSlot()
	var occupier sync.WaitGroup
	occupier.Add(1)
	go func() {
		defer occupier.Done()
		gate.tokens <- struct{}{} // hold the gate's one slot
		<-release
		<-gate.tokens
	}()
	for len(gate.tokens) == 0 {
		time.Sleep(time.Millisecond)
	}
	queued := make(chan int, 1)
	go func() {
		resp, err := call(http.MethodPost, url, sub, nil)
		if err != nil {
			t.Error(err)
			queued <- 0
			return
		}
		queued <- resp.StatusCode
	}()
	for gate.snapshot().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	if resp, err := call(http.MethodPost, url, sub, nil); err != nil || resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("sub-batch past the gate: %v, %v, want 429", resp, err)
	}
	releaseSlot()
	occupier.Wait()
	if code := <-queued; code != http.StatusOK {
		t.Fatalf("queued sub-batch status = %d, want 200", code)
	}

	st := getDrainedStats(t, tss[0])
	if g := st.Shards.SubAdmission; g.MaxInflight != 1 || g.MaxQueued != 1 || g.Admitted != 1 || g.Shed != 1 {
		t.Errorf("sub_admission = %+v, want 1 inflight, 1 queued, 1 admitted, 1 shed", g)
	}
	if st.Admission.Admitted != 0 || st.Batches != 0 || st.Shards.SubScansServed != 1 {
		t.Errorf("read gate admitted %d, batches %d, sub-scans %d; want 0, 0, 1",
			st.Admission.Admitted, st.Batches, st.Shards.SubScansServed)
	}
}

// TestShardedChangesetConvergesFleetWide: a changeset committed on one
// coordinator reaches every replica through the kcached generation feed
// (publish + converge nudge), and post-commit scans are byte-identical
// to a single host that applied the same changeset.
func TestShardedChangesetConvergesFleetWide(t *testing.T) {
	_, kc := newKcached(t, CacheConfig{})
	srvs, tss := boot(t, 3, Config{CacheRemote: kc.URL})
	_, single := bootOne(t, Config{})

	f0 := srvs[0].inc.Codebase().Files()[0]
	change := api.Change{Path: f0.Name, Source: minic.FormatFile(f0)}
	body := api.ChangesetRequest{Changes: []api.Change{change}}
	var cr api.ChangesetResponse
	if code := postJSON(t, tss[0], "/changeset", body, &cr); code != 200 {
		t.Fatalf("sharded /changeset = %d", code)
	}
	var single2 api.ChangesetResponse
	if code := postJSON(t, single, "/changeset", body, &single2); code != 200 {
		t.Fatalf("single-host /changeset = %d", code)
	}

	// The publish + nudge pipeline is asynchronous; peers must converge
	// to the committed generation on their own.
	deadline := time.Now().Add(5 * time.Second)
	for _, srv := range srvs[1:] {
		for srv.inc.Codebase().Generation() < cr.Generation {
			if time.Now().After(deadline) {
				t.Fatalf("peer stuck at generation %d, fleet committed %d",
					srv.inc.Codebase().Generation(), cr.Generation)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if c := count(srvs[1].shard.converges) + count(srvs[2].shard.converges); c == 0 {
		t.Fatal("no peer replayed the feed")
	}
	if count(srvs[0].shard.feedPublishes) == 0 {
		t.Fatal("coordinator never published to the feed")
	}

	// Read-your-writes across the fleet: a min_generation scan through a
	// DIFFERENT coordinator sees the commit, byte-identical to the
	// single host.
	req := api.ScanRequest{Checker: testChecker, Query: api.Query{MinGeneration: cr.Generation}}
	want := postScan(t, single, req)
	sameScan(t, "post-changeset", postScan(t, tss[1], req), want)
}

// TestRejectedChangesetDoesNotWedgeConvergence: a changeset the
// coordinator rejects is still pushed to the peer, which rejects it the
// same way (409 on its /converge), so both replicas stay at the last
// generation; it consumes no generation and never reaches the feed, so
// the next commit lands right after the last one, the peer replays it
// without a gap, and the scatter that follows degrades no partition to
// the coordinator's local snapshot.
func TestRejectedChangesetDoesNotWedgeConvergence(t *testing.T) {
	_, kc := newKcached(t, CacheConfig{})
	var converges func() []int
	srvs, tss := bootWith(t, 2, Config{CacheRemote: kc.URL}, func(i int, ts *httptest.Server) {
		if i == 1 {
			converges = recordConverges(ts)
		}
	})
	f0 := srvs[0].inc.Codebase().Files()[0]
	base := srvs[0].inc.Codebase().Generation()
	peer := srvs[1].inc.Codebase()

	if code := postJSON(t, tss[0], "/changeset", api.ChangesetRequest{
		Changes: []api.Change{{Path: f0.Name, Source: "int broken("}},
	}, nil); code != 422 {
		t.Fatalf("broken /changeset = %d, want 422", code)
	}
	waitFor(t, "the peer to answer the rejected changeset's push", func() bool { return len(converges()) == 1 })
	if got := converges(); got[0] != http.StatusConflict {
		t.Fatalf("the peer answered the rejected push %d, want 409", got[0])
	}
	if g0, g1 := srvs[0].inc.Codebase().Generation(), peer.Generation(); g0 != base || g1 != base {
		t.Fatalf("after the rejected changeset: generations %d and %d, want both %d", g0, g1, base)
	}
	if page, err := srvs[0].shard.feed.Since(context.Background(), 0); err != nil || len(page.Entries) != 0 {
		t.Fatalf("feed after the rejected changeset: %+v, %v; want no entries", page, err)
	}

	var good api.ChangesetResponse
	if code := postJSON(t, tss[0], "/changeset", api.ChangesetRequest{
		Changes: []api.Change{{Path: f0.Name, Source: minic.FormatFile(f0)}},
	}, &good); code != 200 {
		t.Fatalf("/changeset = %d", code)
	}
	if good.Generation != base+1 {
		t.Fatalf("good changeset committed generation %d, want %d (the rejected one takes none)",
			good.Generation, base+1)
	}

	deadline := time.Now().Add(5 * time.Second)
	for peer.Generation() < good.Generation {
		if time.Now().After(deadline) {
			t.Fatalf("peer stuck at generation %d, fleet committed %d", peer.Generation(), good.Generation)
		}
		time.Sleep(10 * time.Millisecond)
	}
	postScan(t, tss[0], api.ScanRequest{Checker: testChecker, Query: api.Query{MinGeneration: good.Generation}})
	if st := getStats(t, tss[0]).Shards; st.Scatters == 0 || st.Degraded != 0 {
		t.Fatalf("scatter after the rejected changeset: %+v, want degraded_scatters == 0", st)
	}
}

// recordConverges wraps ts's handler so that every /converge it answers
// is recorded with its status; the returned func reads the statuses in
// the order they were answered.
func recordConverges(ts *httptest.Server) func() []int {
	var mu sync.Mutex
	var codes []int
	h := ts.Config.Handler
	ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/converge" {
			h.ServeHTTP(w, r)
			return
		}
		rec := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(rec, r)
		mu.Lock()
		codes = append(codes, rec.code)
		mu.Unlock()
	})
	return func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), codes...)
	}
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// TestReplayInvalidatesOnlyItsMemoryTier: a commit's stale hashes reach
// kcached once, from the committer; the peer's replay of the same
// changeset drops them from its own memory tier only.
func TestReplayInvalidatesOnlyItsMemoryTier(t *testing.T) {
	c, err := NewCache(CacheConfig{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var invalidates atomic.Int64
	kcached := c.Handler()
	kc := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/invalidate" {
			invalidates.Add(1)
		}
		kcached.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		kc.Close()
		c.Close()
	})
	srvs, tss := boot(t, 2, Config{CacheRemote: kc.URL})
	cb := srvs[0].inc.Codebase()
	var cr api.ChangesetResponse
	if code := postJSON(t, tss[0], "/changeset", api.ChangesetRequest{Changes: []api.Change{probeChange(cb, 0, "invalidate_probe")}}, &cr); code != 200 {
		t.Fatalf("/changeset = %d", code)
	}
	if cr.StaleHashes == 0 {
		t.Fatal("the commit orphaned no hash; nothing to invalidate")
	}
	waitFor(t, "the peer's replay and the committer's invalidation", func() bool {
		return srvs[1].inc.Codebase().Generation() == cr.Generation && invalidates.Load() >= 1
	})
	// Both invalidations are sent off the committing goroutine; give a
	// second one time to arrive.
	time.Sleep(200 * time.Millisecond)
	if n := invalidates.Load(); n != 1 {
		t.Fatalf("one commit on a two-replica fleet sent kcached %d invalidations, want 1", n)
	}
	if count(srvs[1].shard.converges) != 1 {
		t.Fatalf("peer converges = %d, want 1", count(srvs[1].shard.converges))
	}
}

// TestDirectCommitRacesLazyConverge: round after round, another
// coordinator commits generation g+1 (its entry reaches the feed, its
// push never reaches the writer), and on the writer a direct commit of
// the same change races that coordinator's sub-batch at g+1, whose lazy
// converge pulls g+1 from the feed under the same writer lock. Either
// order is a consistent history: the replay lands first and the commit
// becomes g+2 (a no-op on the same source), or the commit takes g+1 and
// the replay finds it reached. The lock fixes the commit's generation
// before it is pushed, so no generation is committed twice or skipped:
// the commit's reply is the writer's generation, the sub-batch scans at
// g+1 or later, and the peer, fed by the pushes and the feed, reaches
// the writer's generation holding every change. Without the lock a
// replay landing between the commit's choice of g+1 and its apply made
// the writer g+2 while its push and feed entry said g+1, and the peer
// stopped a generation short.
func TestDirectCommitRacesLazyConverge(t *testing.T) {
	_, kc := newKcached(t, CacheConfig{})
	srvs, tss := boot(t, 2, Config{CacheRemote: kc.URL})
	peer, writer := srvs[0], srvs[1]
	cb := writer.inc.Codebase()
	ref := peer.shard.table.Ref(1)
	const rounds = 12
	for i := 0; i < rounds; i++ {
		g := cb.Generation()
		k := i % len(cb.Files()[0].Funcs) // a function patched before keeps its earlier probes
		change := probeChange(cb, k, fmt.Sprintf("race_probe_%d", i))
		publishEntry(t, peer.shard, g+1, []api.Change{change})
		var cr api.ChangesetResponse
		var commitCode, subCode int
		var subGen int64
		var commitErr, subErr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			var resp *http.Response
			if resp, commitErr = call(http.MethodPost, tss[1].URL+"/changeset", api.ChangesetRequest{Changes: []api.Change{change}}, &cr); commitErr == nil {
				commitCode = resp.StatusCode
			}
		}()
		go func() {
			defer wg.Done()
			sub := api.BatchRequest{Checkers: []string{testChecker}, Query: api.Query{MinGeneration: g + 1, Partition: &ref}}
			subCode, subGen, subErr = postSubBatch(tss[1].URL, sub)
		}()
		wg.Wait()
		if commitErr != nil || subErr != nil || commitCode != http.StatusOK || subCode != http.StatusOK {
			t.Fatalf("round %d: commit %d (%v), sub-batch %d (%v)", i, commitCode, commitErr, subCode, subErr)
		}
		now := cb.Generation()
		if cr.Generation != now || now != g+1 && now != g+2 || subGen < g+1 {
			t.Fatalf("round %d from generation %d: commit answered %d, writer at %d, sub-batch scanned %d",
				i, g, cr.Generation, now, subGen)
		}
		waitFor(t, fmt.Sprintf("round %d: the peer to reach generation %d", i, now), func() bool {
			return peer.inc.Codebase().Generation() >= now
		})
		if pg := peer.inc.Codebase().Generation(); pg != now {
			t.Fatalf("round %d: peer at generation %d, writer at %d", i, pg, now)
		}
	}
	for i := 0; i < rounds; i++ {
		if probe := fmt.Sprintf("race_probe_%d", i); !holds(peer, probe) || !holds(writer, probe) {
			t.Fatalf("round %d's change is missing: peer %v, writer %v", i, holds(peer, probe), holds(writer, probe))
		}
	}
	req := api.ScanRequest{Checker: testChecker, Query: api.Query{MinGeneration: cb.Generation()}}
	if a, b := postScan(t, tss[0], req), postScan(t, tss[1], req); reportsJSON(t, a) != reportsJSON(t, b) {
		t.Fatal("the replicas' coordinated scans differ after the races")
	}
	if st := getStats(t, tss[0]).Shards; st.Degraded != 0 {
		t.Fatalf("degraded scatters %d, want 0", st.Degraded)
	}
}

// postSubBatch sends sub to url's sub-batch route, as a coordinator's
// scatter does, and returns the status and, on a 200, the generation
// its one-checker reply scanned.
func postSubBatch(url string, sub api.BatchRequest) (int, int64, error) {
	data, err := json.Marshal(sub)
	if err != nil {
		return 0, 0, err
	}
	resp, err := http.Post(url+shard.SubBatchPath, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp.StatusCode, 0, err
	}
	if ct := resp.Header.Get("Content-Type"); ct != shard.SubBatchContentType {
		return resp.StatusCode, 0, fmt.Errorf("sub-batch reply Content-Type %q", ct)
	}
	results, err := shard.DecodeSubBatch(reply)
	if err != nil {
		return resp.StatusCode, 0, err
	}
	if len(results) != len(sub.Checkers) {
		return resp.StatusCode, 0, fmt.Errorf("%d entries for %d checkers", len(results), len(sub.Checkers))
	}
	return resp.StatusCode, results[0].Generation, nil
}

// TestSubBatchFromAnotherCorpusDegrades: a peer whose corpus differs
// holds another partition table, so it answers a sub-batch naming the
// coordinator's partition 409, and the scatter serves that partition
// from the coordinator's own snapshot, byte-identical to a single host.
func TestSubBatchFromAnotherCorpusDegrades(t *testing.T) {
	srvs, tss := bootEach(t, 2, Config{}, func(i int, cfg *Config) {
		if i == 1 {
			cfg.Scale = 0.2
		}
	}, nil)
	_, single := bootOne(t, Config{})
	ref := srvs[0].shard.table.Ref(1)
	if code, _, err := postSubBatch(tss[1].URL, api.BatchRequest{Checkers: []string{testChecker}, Query: api.Query{Partition: &ref}}); err != nil || code != http.StatusConflict {
		t.Fatalf("sub-batch naming another corpus's partition: %d, %v; want 409", code, err)
	}
	req := api.ScanRequest{Checker: testChecker}
	sameScan(t, "degraded scatter", postScan(t, tss[0], req), postScan(t, single, req))
	if st := getStats(t, tss[0]).Shards; st.Scatters != 1 || st.Degraded != 1 {
		t.Fatalf("scatter over a peer with another corpus: %+v, want 1 scatter, 1 degraded", st)
	}
}

// TestNudgesReuseTheirConnection: a commit's /converge nudge reads its
// reply to the end, so one keep-alive connection from the coordinator
// carries every nudge to a peer: 20 commits open at most 2 connections
// on it, where closing each reply unread opened one per commit.
func TestNudgesReuseTheirConnection(t *testing.T) {
	_, kc := newKcached(t, CacheConfig{})
	var opened, served atomic.Int64
	srvs, tss := bootWith(t, 2, Config{CacheRemote: kc.URL}, func(i int, ts *httptest.Server) {
		if i != 1 {
			return
		}
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			switch st {
			case http.StateNew:
				opened.Add(1)
			case http.StateIdle: // a request answered, the connection kept
				served.Add(1)
			}
		}
	})
	f0 := srvs[0].inc.Codebase().Files()[0]
	body := api.ChangesetRequest{Changes: []api.Change{{Path: f0.Name, Source: minic.FormatFile(f0)}}}
	peer := srvs[1].inc.Codebase()
	for i := int64(1); i <= 20; i++ {
		var cr api.ChangesetResponse
		if code := postJSON(t, tss[0], "/changeset", body, &cr); code != 200 {
			t.Fatalf("/changeset %d = %d", i, code)
		}
		// One nudge at a time: the next commit's starts after this one
		// was answered.
		waitFor(t, fmt.Sprintf("nudge %d", i), func() bool {
			return served.Load() >= i && peer.Generation() >= cr.Generation
		})
	}
	if n := opened.Load(); n > 2 {
		t.Fatalf("20 commits opened %d connections on the peer, want <= 2", n)
	}
}

// TestConvergePullsOnlyWhileBehind: a lazy converge that waited on
// writeMu while another replay applied the generation it wants finds
// that generation applied and does not pull the feed, and neither does
// a nudge for a generation the replica has reached. A /converge without
// a generation, an operator's poke, still pulls.
func TestConvergePullsOnlyWhileBehind(t *testing.T) {
	_, kc := newKcached(t, CacheConfig{})
	srvs, tss := boot(t, 2, Config{CacheRemote: kc.URL})
	srv, sh := srvs[1], srvs[1].shard
	pulls := func() int64 { return metricValues(t, getMetrics(t, kc))["kcached_feed_pulls_total"] }
	f0 := srv.inc.Codebase().Files()[0]
	changes := []api.Change{{Path: f0.Name, Source: minic.FormatFile(f0)}}
	gen := srv.inc.Codebase().Generation() + 1
	publishEntry(t, sh, gen, changes)
	before := pulls()

	sh.writeMu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.maybeConverge(context.Background(), gen)
	}()
	// Past maybeConverge's own check, the goroutine is in converge,
	// waiting for the lock.
	waitFor(t, "the lazy converge to wait on writeMu", func() bool {
		buf := make([]byte, 1<<20)
		return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*Server).converge("))
	})
	// The replay that holds the lock applies the generation.
	if _, err := srv.inc.ApplyChangeset(toScanChanges(changes)); err != nil {
		t.Fatal(err)
	}
	sh.writeMu.Unlock()
	<-done
	if got := pulls(); got != before {
		t.Fatalf("a converge to generation %d, already applied, pulled the feed %d times", gen, got-before)
	}

	var cr api.ConvergeResponse
	if code := postJSON(t, tss[1], "/converge?generation="+strconv.FormatInt(gen, 10), nil, &cr); code != 200 || cr.Applied != 0 {
		t.Fatalf("nudge for a reached generation: status %d, applied %d", code, cr.Applied)
	}
	if got := pulls(); got != before {
		t.Fatalf("a nudge for generation %d, already applied, pulled the feed", gen)
	}
	if code := postJSON(t, tss[1], "/converge?generation=x", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("/converge?generation=x = %d, want 400", code)
	}
	if code := postJSON(t, tss[1], "/converge", nil, &cr); code != 200 || pulls() != before+1 {
		t.Fatalf("/converge without a generation: status %d, %d pulls, want 1", code, pulls()-before)
	}
}

// publishEntry publishes generation gen of changes to the fleet's feed
// through sh's client, as a committing coordinator does.
func publishEntry(t *testing.T, sh *shardLayer, gen int64, changes []api.Change) {
	t.Helper()
	entry, err := json.Marshal(api.FeedEntry{Generation: gen, Changes: changes})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.feed.Publish(context.Background(), entry); err != nil {
		t.Fatal(err)
	}
}

// probeChange patches the k-th function from the end of the corpus's
// first file with a declaration of probe, so a replica's source shows
// whether the change reached it.
func probeChange(cb *scan.Codebase, k int, probe string) api.Change {
	f := cb.Files()[0]
	fn := f.Funcs[len(f.Funcs)-1-k]
	src := minic.FormatFunc(fn)
	brace := strings.Index(src, "{")
	return api.Change{Path: f.Name, Func: fn.Name, Source: src[:brace+1] + "\n\tint " + probe + ";" + src[brace+1:]}
}

// holds reports whether the replica's first file declares probe.
func holds(srv *Server, probe string) bool {
	return strings.Contains(minic.FormatFile(srv.inc.Codebase().Files()[0]), "int "+probe+";")
}

// nudge posts a commit's nudge to ts: /converge?generation=gen with
// body as its pushed entry.
func nudge(t *testing.T, ts *httptest.Server, gen int64, body any) (int, api.ConvergeResponse) {
	t.Helper()
	var cr api.ConvergeResponse
	code := postJSON(t, ts, "/converge?generation="+strconv.FormatInt(gen, 10), body, &cr)
	return code, cr
}

// TestPushedNudgeAppliesWithoutPulling: a nudge whose body carries
// generation N, sent to a peer at N−1, applies that entry and leaves
// the feed unpulled, though the feed has never seen N.
func TestPushedNudgeAppliesWithoutPulling(t *testing.T) {
	_, kc := newKcached(t, CacheConfig{})
	srvs, tss := boot(t, 2, Config{CacheRemote: kc.URL})
	srv := srvs[1]
	pulls := func() int64 { return metricValues(t, getMetrics(t, kc))["kcached_feed_pulls_total"] }
	before := pulls()
	gen := srv.inc.Codebase().Generation() + 1
	entry := api.FeedEntry{Generation: gen, Changes: []api.Change{probeChange(srv.inc.Codebase(), 0, "pushed_probe")}}
	code, cr := nudge(t, tss[1], gen, entry)
	if code != http.StatusOK || cr.Applied != 1 || cr.Generation != gen {
		t.Fatalf("pushed nudge: status %d, %+v; want 200, applied 1, generation %d", code, cr, gen)
	}
	if !holds(srv, "pushed_probe") {
		t.Fatal("the peer's source lacks the pushed change")
	}
	if got := pulls(); got != before {
		t.Fatalf("a peer one generation behind pulled the feed %d times for a pushed entry", got-before)
	}
	if count(srv.shard.converges) != 1 {
		t.Fatalf("converges = %d, want 1", count(srv.shard.converges))
	}
}

// TestPushedNudgeTwoBehindPullsThenApplies: a peer two generations
// behind the pushed entry pulls the feed once for the generation it
// missed, replays it, then applies the pushed entry, which the feed
// does not hold.
func TestPushedNudgeTwoBehindPullsThenApplies(t *testing.T) {
	_, kc := newKcached(t, CacheConfig{})
	srvs, tss := boot(t, 2, Config{CacheRemote: kc.URL})
	srv := srvs[1]
	cb := srv.inc.Codebase()
	pulls := func() int64 { return metricValues(t, getMetrics(t, kc))["kcached_feed_pulls_total"] }
	gen := cb.Generation() + 1
	publishEntry(t, srv.shard, gen, []api.Change{probeChange(cb, 0, "fed_probe")})
	before := pulls()
	entry := api.FeedEntry{Generation: gen + 1, Changes: []api.Change{probeChange(cb, 1, "pushed_probe")}}
	code, cr := nudge(t, tss[1], gen+1, entry)
	if code != http.StatusOK || cr.Applied != 2 || cr.Generation != gen+1 {
		t.Fatalf("pushed nudge two ahead: status %d, %+v; want 200, applied 2, generation %d", code, cr, gen+1)
	}
	if !holds(srv, "fed_probe") || !holds(srv, "pushed_probe") {
		t.Fatalf("after the replay: fed change %v, pushed change %v; want both",
			holds(srv, "fed_probe"), holds(srv, "pushed_probe"))
	}
	if got := pulls(); got != before+1 {
		t.Fatalf("a peer two generations behind pulled %d times, want 1", got-before)
	}
}

// TestPushedNudgeAtOrBelowIsNoOp: a pushed entry for a generation the
// peer has reached applies nothing and pulls nothing, whatever its
// changes, and a malformed push is a 400 that applies nothing.
func TestPushedNudgeAtOrBelowIsNoOp(t *testing.T) {
	_, kc := newKcached(t, CacheConfig{})
	srvs, tss := boot(t, 2, Config{CacheRemote: kc.URL})
	srv := srvs[1]
	cb := srv.inc.Codebase()
	for _, probe := range []string{"first_probe", "second_probe"} {
		if _, err := srv.inc.ApplyChangeset(toScanChanges([]api.Change{probeChange(cb, 0, probe)})); err != nil {
			t.Fatal(err)
		}
	}
	pulls := func() int64 { return metricValues(t, getMetrics(t, kc))["kcached_feed_pulls_total"] }
	before := pulls()
	gen := cb.Generation()
	stale := []api.Change{probeChange(cb, 0, "stale_probe")}
	for _, g := range []int64{gen, gen - 1} {
		code, cr := nudge(t, tss[1], g, api.FeedEntry{Generation: g, Changes: stale})
		if code != http.StatusOK || cr.Applied != 0 || cr.Generation != gen {
			t.Fatalf("pushed generation %d at generation %d: status %d, %+v; want 200, applied 0", g, gen, code, cr)
		}
	}
	for name, body := range map[string]any{
		"a body that is not an entry":     "not an entry",
		"an entry without changes":        api.FeedEntry{Generation: gen + 1},
		"an entry for another generation": api.FeedEntry{Generation: gen + 2, Changes: stale},
	} {
		if code, _ := nudge(t, tss[1], gen+1, body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	if cb.Generation() != gen || holds(srv, "stale_probe") || !holds(srv, "second_probe") {
		t.Fatalf("generation %d (want %d), stale change applied %v", cb.Generation(), gen, holds(srv, "stale_probe"))
	}
	if got := pulls(); got != before {
		t.Fatalf("no-op pushes pulled the feed %d times", got-before)
	}
}

// TestCommitConvergesWithFeedPublishDown: with kcached answering every
// POST /feed 500, each commit still reaches the peer through its nudge,
// so the read-your-write scatter right after it, whose sub-batch's lazy
// converge races the nudge's replay for writeMu, degrades no
// partition.
func TestCommitConvergesWithFeedPublishDown(t *testing.T) {
	c, err := NewCache(CacheConfig{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var refused atomic.Int64
	kcached := c.Handler()
	kc := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/feed" {
			refused.Add(1)
			io.Copy(io.Discard, r.Body)
			http.Error(w, "feed down", http.StatusInternalServerError)
			return
		}
		kcached.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		kc.Close()
		c.Close()
	})
	srvs, tss := boot(t, 2, Config{CacheRemote: kc.URL})
	cb := srvs[0].inc.Codebase()
	for i := 0; i < 4; i++ {
		probe := fmt.Sprintf("push_probe_%d", i)
		var cr api.ChangesetResponse
		if code := postJSON(t, tss[0], "/changeset", api.ChangesetRequest{Changes: []api.Change{probeChange(cb, i, probe)}}, &cr); code != 200 {
			t.Fatalf("/changeset %d = %d", i, code)
		}
		resp := postScan(t, tss[0], api.ScanRequest{Checker: testChecker, Query: api.Query{MinGeneration: cr.Generation}})
		if resp.Generation != cr.Generation {
			t.Fatalf("scan after commit %d at generation %d, want %d", i, resp.Generation, cr.Generation)
		}
		if !holds(srvs[1], probe) {
			t.Fatalf("commit %d: the peer lacks the committed change", i)
		}
	}
	if st := getStats(t, tss[0]).Shards; st.Scatters != 4 || st.Degraded != 0 {
		t.Fatalf("scatters with the feed refusing publishes: %+v, want 4 scatters, degraded_scatters == 0", st)
	}
	if refused.Load() == 0 {
		t.Fatal("no publish reached the failing feed")
	}
}
