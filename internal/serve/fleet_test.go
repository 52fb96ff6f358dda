package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"knighter/internal/api"
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

// TestFleetSecondReplicaScansWarm is the tentpole acceptance criterion:
// after replica A's cold scan, replica B's FIRST scan of the same corpus
// is answered almost entirely from the shared tier — byte-identical
// reports, >= 90% hit rate, zero remote errors.
func TestFleetSecondReplicaScansWarm(t *testing.T) {
	_, kc := newKcached(t, CacheConfig{})
	srvA, tsA := bootOne(t, Config{CacheRemote: kc.URL})
	srvB, tsB := bootOne(t, Config{CacheRemote: kc.URL})

	a := postScan(t, tsA, api.ScanRequest{Checker: testChecker})
	if a.Cache.Hits != 0 {
		t.Fatalf("replica A's cold scan hit %d times", a.Cache.Hits)
	}
	if rs := srvA.remote.RemoteStats(); rs.Puts == 0 {
		t.Fatalf("replica A published nothing to the shared tier: %+v", rs)
	}

	b := postScan(t, tsB, api.ScanRequest{Checker: testChecker})
	if b.Cache.HitRate < 0.9 {
		t.Fatalf("replica B's first scan hit rate = %.2f, want >= 0.9 (hits=%d misses=%d)",
			b.Cache.HitRate, b.Cache.Hits, b.Cache.Misses)
	}
	if got, want := reportsJSON(t, b), reportsJSON(t, a); got != want {
		t.Fatalf("replica B's warm scan differs from replica A's cold scan:\nA: %s\nB: %s", want, got)
	}
	rs := srvB.remote.RemoteStats()
	if rs.Hits == 0 || rs.Errors != 0 {
		t.Fatalf("replica B remote stats = %+v, want hits > 0 and no errors", rs)
	}

	// B's hits were promoted into its memory tier: a re-scan no longer
	// touches the network.
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
// scan must still be >= 90% warm — the segment store's recovery scan
// rebuilt the index from the log, so the fleet's accumulated work
// survives a daemon roll.
func TestFleetKcachedRestartRecoversWarm(t *testing.T) {
	dir := t.TempDir()
	kcd1, kc1 := newKcached(t, CacheConfig{CacheDir: dir})
	disk1 := kcd1.disk

	srvA, tsA := bootOne(t, Config{CacheRemote: kc1.URL})
	a := postScan(t, tsA, api.ScanRequest{Checker: testChecker})
	if rs := srvA.remote.RemoteStats(); rs.Puts == 0 {
		t.Fatalf("replica A published nothing: %+v", rs)
	}
	entriesBefore := disk1.Stats().Entries
	if entriesBefore == 0 {
		t.Fatal("kcached disk tier empty after replica A's scan")
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
	if c.Cache.HitRate < 0.9 {
		t.Fatalf("post-restart scan hit rate = %.2f, want >= 0.9 (hits=%d misses=%d)",
			c.Cache.HitRate, c.Cache.Hits, c.Cache.Misses)
	}
	if rs := srvC.remote.RemoteStats(); rs.Hits == 0 || rs.Errors != 0 {
		t.Fatalf("replica C remote stats = %+v, want hits > 0 and no errors", rs)
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

	// Patch the last function of the first file on both replicas (the
	// fleet deployment model: an orchestrator applies each commit to
	// every replica).
	cb := srvA.inc.Codebase()
	path := cb.Files()[0].Name
	fn := cb.Files()[0].Funcs[len(cb.Files()[0].Funcs)-1]
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
