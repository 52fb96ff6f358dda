package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"knighter/internal/api"
	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/minic"
	"knighter/internal/scan"
)

func reportsJSON(t *testing.T, resp *api.ScanResponse) string {
	t.Helper()
	data, err := json.Marshal(resp.Reports)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// quietResults reads a replica's kserve_scan_quiet_results_total: the
// misses its scans answered quietly, unexplored.
func quietResults(t *testing.T, ts *httptest.Server) int64 {
	t.Helper()
	return metricValues(t, getMetrics(t, ts))["kserve_scan_quiet_results_total"]
}

// kcachedEntryRequests reads kcached's entry requests so far: get and
// put requests, and the entries the puts carried.
func kcachedEntryRequests(t *testing.T, kc *httptest.Server) (gets, puts, putEntries int64) {
	t.Helper()
	m := metricValues(t, getMetrics(t, kc))
	for name, v := range m {
		if strings.HasPrefix(name, `kcached_entry_requests_total{op="put"`) {
			putEntries += v
		}
	}
	return m[`kcached_request_duration_seconds_count{op="get"}`], m[`kcached_request_duration_seconds_count{op="put"}`], putEntries
}

// TestFleetSecondReplicaScansWarm is the fleet cache's acceptance
// criterion: replica A's cold scan publishes exactly the results it
// explored (its misses less its quiet answers), in at most one put
// request per 64-function range, and replica B's FIRST scan of the same
// corpus explores nothing — its remote hits are A's explored results and
// its misses its own quiet answers — with byte-identical reports and
// zero remote errors.
func TestFleetSecondReplicaScansWarm(t *testing.T) {
	_, kc := newKcached(t, CacheConfig{})
	srvA, tsA := bootOne(t, Config{CacheRemote: kc.URL})
	srvB, tsB := bootOne(t, Config{CacheRemote: kc.URL})

	a := postScan(t, tsA, api.ScanRequest{Checker: testChecker})
	if a.Cache.Hits != 0 {
		t.Fatalf("replica A's cold scan hit %d times", a.Cache.Hits)
	}
	explored := int64(a.Cache.Misses) - quietResults(t, tsA)
	_, puts, entries := kcachedEntryRequests(t, kc)
	if rs := srvA.remote.RemoteStats(); explored == 0 || rs.Puts != explored || entries != explored || puts > int64((a.Cache.Misses+63)/64) {
		t.Fatalf("replica A explored %d of %d functions and published %d (kcached took %d in %d put requests)",
			explored, a.Cache.Misses, rs.Puts, entries, puts)
	}

	b := postScan(t, tsB, api.ScanRequest{Checker: testChecker})
	if int64(b.Cache.Hits) != explored || int64(b.Cache.Misses) != quietResults(t, tsB) {
		t.Fatalf("replica B's first scan: hits=%d misses=%d quiet=%d, want %d hits and only quiet misses",
			b.Cache.Hits, b.Cache.Misses, quietResults(t, tsB), explored)
	}
	if got, want := reportsJSON(t, b), reportsJSON(t, a); got != want {
		t.Fatalf("replica B's warm scan differs from replica A's cold scan:\nA: %s\nB: %s", want, got)
	}
	rs := srvB.remote.RemoteStats()
	if rs.Hits != explored || rs.Errors != 0 {
		t.Fatalf("replica B remote stats = %+v, want %d hits and no errors", rs, explored)
	}

	// B's hits were promoted into its memory tier, and its quiet answers
	// stored there: a re-scan no longer touches the network.
	before := srvB.remote.RemoteStats().Hits
	again := postScan(t, tsB, api.ScanRequest{Checker: testChecker})
	if again.Cache.Misses != 0 {
		t.Fatalf("replica B's re-scan missed %d times", again.Cache.Misses)
	}
	if after := srvB.remote.RemoteStats().Hits; after != before {
		t.Fatalf("re-scan went to the remote tier (%d -> %d hits)", before, after)
	}
}

// TestFleetKcachedDeathDegradesToLocal: killing the cache daemon
// mid-run must cause zero non-2xx scan responses — replicas degrade to
// their memory tier with misses, and the breaker stops them from paying
// a connection attempt per function.
func TestFleetKcachedDeathDegradesToLocal(t *testing.T) {
	_, kc := newKcached(t, CacheConfig{})
	_, tsA := bootOne(t, Config{CacheRemote: kc.URL})
	_, tsB := bootOne(t, Config{CacheRemote: kc.URL})

	a := postScan(t, tsA, api.ScanRequest{Checker: testChecker})

	kc.Close() // the daemon dies

	// A's entries are in its memory tier; B is completely cold and every
	// remote lookup fails. Both must still answer 200 with full results.
	a2 := postScan(t, tsA, api.ScanRequest{Checker: testChecker})
	if got, want := reportsJSON(t, a2), reportsJSON(t, a); got != want {
		t.Fatal("replica A's post-death scan differs from its pre-death scan")
	}
	b := postScan(t, tsB, api.ScanRequest{Checker: testChecker}) // postScan fails the test on any non-200
	if got, want := reportsJSON(t, b), reportsJSON(t, a); got != want {
		t.Fatal("replica B's local-only scan differs from replica A's")
	}
	if b.Cache.Hits != 0 {
		t.Fatalf("replica B hit %d entries with the daemon dead", b.Cache.Hits)
	}

	// The breaker opened and cut off traffic: B paid a handful of failed
	// round-trips (threshold plus whatever was in flight when it opened),
	// not one per function.
	stats := getStats(t, tsB)
	if stats.Remote == nil {
		t.Fatal("no remote stats on a fleet replica")
	}
	if !stats.Remote.BreakerOpen || stats.Remote.BreakerOpens == 0 {
		t.Fatalf("breaker did not open: %+v", stats.Remote)
	}
	if b.Cache.Misses < 20 {
		t.Fatalf("corpus too small to prove the breaker mattered: %d misses", b.Cache.Misses)
	}
	if stats.Remote.Errors >= int64(b.Cache.Misses)/2 {
		t.Fatalf("%d failed round-trips for %d misses; breaker did not cut off traffic",
			stats.Remote.Errors, b.Cache.Misses)
	}

	// And replica A keeps serving warm scans indefinitely.
	a3 := postScan(t, tsA, api.ScanRequest{Checker: testChecker})
	if a3.Cache.Misses != 0 {
		t.Fatalf("replica A's warm scan missed %d times after daemon death", a3.Cache.Misses)
	}
}

// TestFleetKcachedRestartRecoversWarm: stop the cache daemon, boot a
// successor over the same cache directory, and a FRESH replica's first
// scan must still explore nothing — every result replica A explored
// comes back as a remote hit, and every miss is answered quietly — since
// the segment store's recovery scan rebuilt the index from the log, so
// the fleet's accumulated work survives a daemon roll.
func TestFleetKcachedRestartRecoversWarm(t *testing.T) {
	dir := t.TempDir()
	kcd1, kc1 := newKcached(t, CacheConfig{CacheDir: dir})
	disk1 := kcd1.disk

	srvA, tsA := bootOne(t, Config{CacheRemote: kc1.URL})
	a := postScan(t, tsA, api.ScanRequest{Checker: testChecker})
	explored := int64(a.Cache.Misses) - quietResults(t, tsA)
	if rs := srvA.remote.RemoteStats(); explored == 0 || rs.Puts != explored {
		t.Fatalf("replica A explored %d functions and published %+v", explored, rs)
	}
	entriesBefore := disk1.Stats().Entries
	if int64(entriesBefore) != explored {
		t.Fatalf("kcached holds %d entries after replica A's scan, want the %d it explored", entriesBefore, explored)
	}

	// The daemon dies (graceful: the real daemon syncs on SIGTERM; the
	// crash path — torn tail, unsynced window — is the segment engine's
	// own test territory).
	kc1.Close()
	if err := kcd1.Close(); err != nil {
		t.Fatal(err)
	}

	// A successor boots on the same directory: recovery is one
	// sequential segment scan, and every entry must come back.
	kcd2, kc2 := newKcached(t, CacheConfig{CacheDir: dir})
	if got := kcd2.disk.Stats().Entries; got != entriesBefore {
		t.Fatalf("restart recovered %d entries, want %d", got, entriesBefore)
	}

	// A replica that never scanned before (cold memory)
	// must scan warm off the recovered tier, byte-identical to A.
	srvC, tsC := bootOne(t, Config{CacheRemote: kc2.URL})
	c := postScan(t, tsC, api.ScanRequest{Checker: testChecker})
	if int64(c.Cache.Hits) != explored || int64(c.Cache.Misses) != quietResults(t, tsC) {
		t.Fatalf("post-restart scan: hits=%d misses=%d quiet=%d, want %d hits and only quiet misses",
			c.Cache.Hits, c.Cache.Misses, quietResults(t, tsC), explored)
	}
	if rs := srvC.remote.RemoteStats(); rs.Hits != explored || rs.Errors != 0 {
		t.Fatalf("replica C remote stats = %+v, want %d hits and no errors", rs, explored)
	}
	if got, want := reportsJSON(t, c), reportsJSON(t, a); got != want {
		t.Fatalf("post-restart warm scan differs from the pre-restart cold scan:\nA: %s\nC: %s", want, got)
	}
}

// TestFleetChangesetInvalidatesSharedTier: a /changeset on replica A
// fans its orphaned hashes out to kcached, and a replica that applies
// the same changeset scans correctly afterwards — no stale shared
// results.
func TestFleetChangesetInvalidatesSharedTier(t *testing.T) {
	kcd, kc := newKcached(t, CacheConfig{})
	srvA, tsA := bootOne(t, Config{CacheRemote: kc.URL})
	_, tsB := bootOne(t, Config{CacheRemote: kc.URL})

	postScan(t, tsA, api.ScanRequest{Checker: testChecker}) // warm the shared tier
	disk := kcd.disk
	sharedBefore := disk.Stats().Entries
	if sharedBefore == 0 {
		t.Fatal("shared tier empty after replica A's scan")
	}

	// Patch a function the checker is loud on, whose result kcached
	// holds, on both replicas (the fleet deployment model: an
	// orchestrator applies each commit to every replica).
	f, fn := findFunc(t, srvA.inc.Codebase(), false)
	path := f.Name
	src := minic.FormatFunc(fn)
	brace := strings.Index(src, "{")
	src = src[:brace+1] + "\n\tint fleet_probe;" + src[brace+1:]
	change := api.ChangesetRequest{Changes: []api.Change{{Path: path, Func: fn.Name, Source: src}}}

	var csA api.ChangesetResponse
	if code := postJSON(t, tsA, "/changeset", change, &csA); code != http.StatusOK {
		t.Fatalf("changeset on A: status %d", code)
	}
	if csA.StoreInvalidated == 0 {
		t.Fatal("changeset invalidated nothing despite a warm shared tier")
	}
	// Remote invalidation is fired asynchronously (store.Stack keeps
	// the network round-trip out of the corpus write lock), so poll for
	// it rather than asserting instantly.
	deadline := time.Now().Add(5 * time.Second)
	for disk.Stats().Invalidated == 0 {
		if time.Now().After(deadline) {
			t.Fatal("invalidation did not reach kcached")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := postJSON(t, tsB, "/changeset", change, nil); code != http.StatusOK {
		t.Fatal("changeset on B failed")
	}

	// Ground truth: an isolated replica (no shared tier) built from the
	// same corpus with the same changeset applied.
	_, tsRef := bootOne(t, Config{})
	if code := postJSON(t, tsRef, "/changeset", change, nil); code != http.StatusOK {
		t.Fatal("changeset on reference replica failed")
	}
	want := reportsJSON(t, postScan(t, tsRef, api.ScanRequest{Checker: testChecker}))

	if got := reportsJSON(t, postScan(t, tsB, api.ScanRequest{Checker: testChecker})); got != want {
		t.Fatalf("replica B served stale results after the changeset:\nwant %s\ngot  %s", want, got)
	}
	if got := reportsJSON(t, postScan(t, tsA, api.ScanRequest{Checker: testChecker})); got != want {
		t.Fatal("replica A served stale results after its own changeset")
	}
}

// findFunc returns the first function that ends its file and on which
// the test checker is quiet, or loud, and its file.
func findFunc(t *testing.T, cb *scan.Codebase, quiet bool) (*minic.File, *minic.FuncDecl) {
	t.Helper()
	ck, err := ckdsl.CompileSource(testChecker)
	if err != nil {
		t.Fatal(err)
	}
	var q checker.Quieter = ck
	for _, f := range cb.Files() {
		if len(f.Funcs) == 0 {
			continue
		}
		fn := f.Funcs[len(f.Funcs)-1]
		var fp minic.Footprint
		fp.Reset(fn)
		if q.QuietOn(&fp) == quiet {
			return f, fn
		}
	}
	t.Fatalf("no function on which the test checker is quiet=%v", quiet)
	return nil, nil
}

// TestShardedQuietCommitSendsNoEntryRequest: a 2-shard fleet whose
// replicas hold the checker's results commits a patch the checker is
// quiet on, then reads it back with a min_generation scan. The patched
// function is a memory miss on its owner, answered by the owner's own
// gate: the cycle makes no kcached entry request from either replica,
// and the answer equals an unsharded reference's.
func TestShardedQuietCommitSendsNoEntryRequest(t *testing.T) {
	_, kc := newKcached(t, CacheConfig{})
	srvs, tss := boot(t, 2, Config{CacheRemote: kc.URL})
	// The file goes in as it renders first, so that the patch to its last
	// function moves no other function: the patched one is the one
	// function whose hash changes.
	f, fn := findFunc(t, srvs[0].inc.Codebase(), true)
	canon := api.ChangesetRequest{Changes: []api.Change{{Path: f.Name, Source: minic.FormatFile(f)}}}
	src := minic.FormatFunc(fn)
	brace := strings.Index(src, "{")
	change := api.ChangesetRequest{Changes: []api.Change{{Path: f.Name, Func: fn.Name, Source: src[:brace+1] + "\n\tint quiet_probe;" + src[brace+1:]}}}
	var cs api.ChangesetResponse
	if code := postJSON(t, tss[0], "/changeset", canon, &cs); code != http.StatusOK {
		t.Fatalf("canonical changeset: status %d", code)
	}
	// Each owner scans its partition.
	postScan(t, tss[0], api.ScanRequest{Checker: testChecker, Query: api.Query{MinGeneration: cs.Generation}})

	remoteTraffic := func() (n int64) {
		for _, srv := range srvs {
			rs := srv.remote.RemoteStats()
			n += rs.Hits + rs.Misses + rs.Puts
		}
		return n
	}
	gets, puts, _ := kcachedEntryRequests(t, kc)
	traffic := remoteTraffic()
	quiet := quietResults(t, tss[0]) + quietResults(t, tss[1])

	if code := postJSON(t, tss[0], "/changeset", change, &cs); code != http.StatusOK || cs.ChangedFuncs != 1 {
		t.Fatalf("changeset: status %d, %+v", code, cs)
	}
	got := postScan(t, tss[1], api.ScanRequest{Checker: testChecker, Query: api.Query{MinGeneration: cs.Generation}})
	if got.Generation < cs.Generation || got.Cache.Misses != 1 {
		t.Fatalf("read-back at generation %d: %d misses, want the patched function alone", got.Generation, got.Cache.Misses)
	}
	if n := quietResults(t, tss[0]) + quietResults(t, tss[1]) - quiet; n != 1 {
		t.Fatalf("the fleet answered %d misses quietly, want the patched function", n)
	}
	if g, p, _ := kcachedEntryRequests(t, kc); g != gets || p != puts || remoteTraffic() != traffic {
		t.Fatalf("the quiet cycle sent kcached %d get and %d put requests (%d keys)", g-gets, p-puts, remoteTraffic()-traffic)
	}

	_, tsRef := bootOne(t, Config{})
	for _, c := range []api.ChangesetRequest{canon, change} {
		if code := postJSON(t, tsRef, "/changeset", c, nil); code != http.StatusOK {
			t.Fatal("changeset on the reference failed")
		}
	}
	if want := reportsJSON(t, postScan(t, tsRef, api.ScanRequest{Checker: testChecker})); reportsJSON(t, got) != want {
		t.Fatalf("sharded read-back differs from the unsharded reference:\nwant %s\ngot  %s", want, reportsJSON(t, got))
	}
}

// TestFleetConcurrentColdScansAgree: identical cold scans racing on one
// replica backed by kcached may compute a key twice, but every reply is
// byte-identical to the uncached Codebase.Run, and a duplicate
// computation only overwrites its content-addressed key: the memory
// tier ends with exactly one entry per function.
func TestFleetConcurrentColdScansAgree(t *testing.T) {
	// As many read slots as scans, so they race on any core count.
	const n = 4
	_, kc := newKcached(t, CacheConfig{})
	srv, ts := bootOne(t, Config{CacheRemote: kc.URL, MaxInflight: n})

	// t.Fatal must not run off the test goroutine, so workers record an
	// error and the test goroutine fails after the barrier.
	var wg sync.WaitGroup
	responses := make([]*api.ScanResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out api.ScanResponse
			resp, err := call(http.MethodPost, ts.URL+"/scan", api.ScanRequest{Checker: testChecker}, &out)
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("POST /scan status = %d", resp.StatusCode)
			}
			if err != nil {
				errs[i] = err
				return
			}
			responses[i] = &out
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent scan %d: %v", i, err)
		}
	}
	ck, err := ckdsl.CompileSource(testChecker)
	if err != nil {
		t.Fatal(err)
	}
	cb := srv.inc.Codebase()
	want := reportsJSON(t, api.ScanResult(ck.Name(), cb.RunOne(ck, scan.Options{}), false, false))
	for i, r := range responses {
		if got := reportsJSON(t, r); got != want {
			t.Fatalf("concurrent scan %d differs from Codebase.Run:\n got: %s\nwant: %s", i, got, want)
		}
	}
	if got := srv.inc.Stats().Entries; got != cb.NumFuncs() {
		t.Fatalf("memory tier holds %d entries after %d identical cold scans, want one per function (%d)",
			got, n, cb.NumFuncs())
	}
}

// TestFleetReplicaStatsReportItsOwnEntries: a replica with
// -cache-remote (the shape of every fleet_commit shard) keeps its
// entries in memory, and /stats must say so — the remote tier keeps no
// entry books, so reporting "the back tier" left store.entries and
// store.bytes at zero forever.
func TestFleetReplicaStatsReportItsOwnEntries(t *testing.T) {
	_, kc := newKcached(t, CacheConfig{})
	_, ts := bootOne(t, Config{CacheRemote: kc.URL})
	scan := postScan(t, ts, api.ScanRequest{Checker: testChecker})
	if scan.Cache.Misses == 0 {
		t.Fatal("cold scan missed nothing")
	}
	st := getStats(t, ts).Store
	if st.Entries == 0 || st.Bytes == 0 {
		t.Fatalf("/stats store = %+v after a cold scan cached %d results", st, scan.Cache.Misses)
	}
}
