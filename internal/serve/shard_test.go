package serve

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"knighter/internal/api"
	"knighter/internal/minic"
	"knighter/internal/obs"
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
// scatter/gathered scan — whole corpus, explicit file subset, and
// MaxReports-truncated — returns byte-identical reports to a single-host
// scan, from any coordinator.
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
// coordinator rejects consumes no generation and never reaches the
// feed, so the next commit lands right after the last one, the peer
// replays it without a gap, and the scatter that follows degrades no
// partition to the coordinator's local snapshot.
func TestRejectedChangesetDoesNotWedgeConvergence(t *testing.T) {
	_, kc := newKcached(t, CacheConfig{})
	srvs, tss := boot(t, 2, Config{CacheRemote: kc.URL})
	f0 := srvs[0].inc.Codebase().Files()[0]
	base := srvs[0].inc.Codebase().Generation()

	if code := postJSON(t, tss[0], "/changeset", api.ChangesetRequest{
		Changes: []api.Change{{Path: f0.Name, Source: "int broken("}},
	}, nil); code != 422 {
		t.Fatalf("broken /changeset = %d, want 422", code)
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

	peer := srvs[1].inc.Codebase()
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

// TestCostWeightedAdmission: the cost charge (checkers x files) sheds an
// oversized concurrent request with 429, always admits when idle, and is
// visible in /stats and /metrics.
func TestCostWeightedAdmission(t *testing.T) {
	a := newAdmission(obs.NewRegistry("t"), "admission", 4, 4, 0, 10, func() int64 { return 0 })

	rec := httptest.NewRecorder()
	release, ok := a.admitCost(rec, 8)
	if !ok {
		t.Fatal("first request shed by an empty gate")
	}
	rec2 := httptest.NewRecorder()
	if _, ok := a.admitCost(rec2, 8); ok {
		t.Fatal("over-budget concurrent request admitted")
	}
	if rec2.Code != 429 {
		t.Fatalf("cost shed status = %d, want 429", rec2.Code)
	}
	if rec2.Header().Get("Retry-After") == "" {
		t.Fatal("cost shed carries no Retry-After")
	}
	if !strings.Contains(rec2.Body.String(), api.ErrOverloaded) {
		t.Fatalf("cost shed body = %s", rec2.Body.String())
	}
	if count(a.costShed) != 1 {
		t.Fatalf("costShed = %d, want 1", count(a.costShed))
	}
	release()
	release() // release is idempotent: a double call must not go negative

	// Idle admits ANY cost: a request bigger than the whole budget must
	// still be servable, just never concurrently with other work.
	rec3 := httptest.NewRecorder()
	bigRelease, ok := a.admitCost(rec3, 1000)
	if !ok {
		t.Fatal("idle gate shed an oversized request")
	}
	bigRelease()
	if got := a.costOutstanding.Load(); got != 0 {
		t.Fatalf("outstanding cost = %d after all releases, want 0", got)
	}
	snap := a.snapshot()
	if snap.MaxCost != 10 || snap.CostShed != 1 || snap.CostWeight != 0 {
		t.Fatalf("snapshot cost fields = %+v", snap)
	}

	// Service-level exposure: /stats carries the admission cost fields
	// and /metrics the admission_cost_weight gauge.
	_, ts := bootOne(t, Config{MaxInflight: 2, MaxQueued: 8, MaxCost: 1 << 30})
	postScan(t, ts, api.ScanRequest{Checker: testChecker})
	st := getStats(t, ts)
	if st.Admission == nil || st.Admission.MaxCost != 1<<30 {
		t.Fatalf("/stats admission = %+v", st.Admission)
	}
	metrics := getMetrics(t, ts)
	for _, name := range []string{"kserve_admission_cost_weight", "kserve_admission_cost_shed_total"} {
		if !strings.Contains(metrics, name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}
}

// TestRequestCost: empty file list means the whole corpus.
func TestRequestCost(t *testing.T) {
	srv, _ := bootOne(t, Config{})
	n := len(srv.inc.Codebase().Files())
	if got := srv.requestCost(1, nil); got != int64(n) {
		t.Fatalf("requestCost(1, nil) = %d, want corpus size %d", got, n)
	}
	if got := srv.requestCost(5, nil); got != int64(5*n) {
		t.Fatalf("requestCost(5, nil) = %d, want %d", got, 5*n)
	}
	if got := srv.requestCost(2, []string{"a.c", "b.c", "c.c"}); got != 6 {
		t.Fatalf("requestCost(2, 3 files) = %d, want 6", got)
	}
	if got := srv.requestCost(0, []string{"a.c"}); got != 1 {
		t.Fatalf("requestCost(0, 1 file) = %d, want 1 (floor)", got)
	}
}
