package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"knighter/internal/api"
	"knighter/internal/kernel"
	"knighter/internal/minic"
	"knighter/internal/obs"
	"knighter/internal/scan"
	"knighter/internal/store"
)

const testChecker = `
checker serve_npd {
  bugtype "Null-Pointer-Dereference"
  track aliases
  source { call "devm_kzalloc" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
}
`

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	return newTestServerWithAdmission(t, nil)
}

// newTestServerWithAdmission builds the server with the read admission
// gate installed BEFORE the routes are wired: routes() captures the
// gates when wrapping handlers, so a gate set afterwards would never see
// traffic. Writes stay ungated.
func newTestServerWithAdmission(t *testing.T, adm *admission) (*server, *httptest.Server) {
	t.Helper()
	return newTestServerWithGates(t, adm, nil)
}

// openStore builds a store through the daemons' own constructor, so
// every test server and test kcached runs the composition main() runs.
// cacheDir and remoteURL select the shape exactly as the flags do.
func openStore(t *testing.T, reg *obs.Registry, cacheDir, remoteURL string, rcfg store.RemoteConfig) *store.Stack {
	t.Helper()
	st, err := store.Open(reg, 0, cacheDir, 0, remoteURL, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if disk := st.Disk(); disk != nil {
		t.Cleanup(func() { disk.Close() })
	}
	return st
}

// newTestServerWithGates installs both the read gate (/scan, /batch) and
// the write gate (/patch, /changeset).
func newTestServerWithGates(t *testing.T, read, write *admission) (*server, *httptest.Server) {
	t.Helper()
	corpus := kernel.Generate(kernel.Config{Seed: 1, Scale: 0.1})
	cb, err := scan.NewCodebase(corpus)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(cb, openStore(t, nil, "", "", store.RemoteConfig{}))
	srv.setGates(read, write)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postScan(t *testing.T, ts *httptest.Server, body any) *api.ScanResponse {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/scan", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /scan status = %d", resp.StatusCode)
	}
	var out api.ScanResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func getStats(t *testing.T, ts *httptest.Server) *api.StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// getDrainedStats is getStats once every answered request has left its
// admission gate: a gate releases its slot after the handler returns,
// which can be after the client has read the response. It gives up
// after a bounded wait and returns what it saw, for the caller to fail
// on.
func getDrainedStats(t *testing.T, ts *httptest.Server) *api.StatsResponse {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := getStats(t, ts)
		busy := (st.Admission != nil && st.Admission.Inflight != 0) ||
			(st.WriteAdmission != nil && st.WriteAdmission.Inflight != 0)
		if !busy || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz status = %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["ok"] != true {
		t.Fatalf("healthz = %v", out)
	}
}

// TestRepeatScanServedFromCache is the service-level acceptance
// criterion: the second POST /scan for the same checker must be served
// >= 90% from cache, observable both in the response and in GET /stats.
func TestRepeatScanServedFromCache(t *testing.T) {
	_, ts := newTestServer(t)
	req := api.ScanRequest{Checker: testChecker}

	first := postScan(t, ts, req)
	if first.Cache.Hits != 0 {
		t.Fatalf("cold scan had %d cache hits, want 0", first.Cache.Hits)
	}
	if len(first.Reports) == 0 {
		t.Fatal("cold scan found no reports; corpus seeds devm_kzalloc NPD bugs")
	}
	before := getStats(t, ts)

	second := postScan(t, ts, req)
	if second.Cache.HitRate < 0.9 {
		t.Fatalf("second scan hit rate = %.3f, want >= 0.9", second.Cache.HitRate)
	}
	a, _ := json.Marshal(first.Reports)
	b, _ := json.Marshal(second.Reports)
	if !bytes.Equal(a, b) {
		t.Fatal("cached scan reports differ from cold scan reports")
	}

	after := getStats(t, ts)
	dHits := after.Store.Hits - before.Store.Hits
	dMisses := after.Store.Misses - before.Store.Misses
	if dHits+dMisses == 0 {
		t.Fatal("stats did not move between scans")
	}
	if rate := float64(dHits) / float64(dHits+dMisses); rate < 0.9 {
		t.Fatalf("store-level hit rate for second scan = %.3f, want >= 0.9", rate)
	}
	if after.Scans != 2 {
		t.Fatalf("scans counter = %d, want 2", after.Scans)
	}
}

// TestScanFileSubset exercises the files filter and per-file caching:
// scanning one file warms only that file's functions.
func TestScanFileSubset(t *testing.T) {
	srv, ts := newTestServer(t)
	path := srv.inc.Codebase().Files()[0].Name
	one := postScan(t, ts, api.ScanRequest{Checker: testChecker, Files: []string{path}})
	if one.FilesScanned != 1 {
		t.Fatalf("files scanned = %d, want 1", one.FilesScanned)
	}
	again := postScan(t, ts, api.ScanRequest{Checker: testChecker, Files: []string{path}})
	if again.Cache.Misses != 0 {
		t.Fatalf("re-scan of one file missed %d times, want 0", again.Cache.Misses)
	}
}

func TestScanRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		body string
		code int
	}{
		{"bad JSON", "{", http.StatusBadRequest},
		{"missing checker", "{}", http.StatusBadRequest},
		{"broken DSL", `{"checker": "checker x {"}`, http.StatusUnprocessableEntity},
		{"unknown file", fmt.Sprintf(`{"checker": %q, "files": ["no/such.c"]}`, testChecker), http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/scan", "application/json", bytes.NewBufferString(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.code)
			}
		})
	}
	if stats := getStats(t, ts); stats.ScanErrors != 4 {
		t.Fatalf("scan_errors = %d, want 4", stats.ScanErrors)
	}
}

const testCheckerB = `
checker serve_npd_b {
  bugtype "Null-Pointer-Dereference"
  track aliases
  source { call "kzalloc" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
}
`

func postJSON(t *testing.T, ts *httptest.Server, path string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestPatchEndpointConfinesMisses is the service-level acceptance
// criterion for corpus mutation: after POST /patch of one function, the
// next scan misses only on the functions the patch changed.
func TestPatchEndpointConfinesMisses(t *testing.T) {
	srv, ts := newTestServer(t)
	cb := srv.inc.Codebase()
	path := cb.Files()[0].Name

	// Canonicalize the target file (whole-file replace), then warm.
	var rep api.PatchResponse
	if code := postJSON(t, ts, "/patch", api.PatchRequest{
		Path: path, Source: minic.FormatFile(cb.Files()[0]),
	}, &rep); code != http.StatusOK {
		t.Fatalf("replace status = %d", code)
	}
	if rep.Mode != "replace" || rep.Generation != 1 {
		t.Fatalf("replace response = %+v", rep)
	}
	postScan(t, ts, api.ScanRequest{Checker: testChecker})
	warm := postScan(t, ts, api.ScanRequest{Checker: testChecker})
	if warm.Cache.Misses != 0 {
		t.Fatalf("warm-up left %d misses", warm.Cache.Misses)
	}

	// Patch the last function of the file.
	j := len(cb.Files()[0].Funcs) - 1
	fn := cb.Files()[0].Funcs[j]
	src := minic.FormatFunc(fn)
	brace := strings.Index(src, "{")
	src = src[:brace+1] + "\n\tint patched_probe;" + src[brace+1:]
	if code := postJSON(t, ts, "/patch", api.PatchRequest{
		Path: path, Func: fn.Name, Source: src,
	}, &rep); code != http.StatusOK {
		t.Fatalf("patch status = %d", code)
	}
	if rep.Mode != "patch" || rep.ChangedFuncs != 1 || rep.Generation != 2 {
		t.Fatalf("patch response = %+v", rep)
	}

	after := postScan(t, ts, api.ScanRequest{Checker: testChecker})
	if after.Cache.Misses != 1 {
		t.Fatalf("post-patch scan missed %d times, want 1", after.Cache.Misses)
	}
	if after.Cache.Hits != warm.Cache.Hits-1 {
		t.Fatalf("post-patch hits = %d, want %d", after.Cache.Hits, warm.Cache.Hits-1)
	}

	stats := getStats(t, ts)
	if stats.Patches != 2 || stats.Generation != 2 {
		t.Fatalf("stats after two mutations: %+v", stats)
	}
}

func TestPatchEndpointRejectsBadRequests(t *testing.T) {
	srv, ts := newTestServer(t)
	path := srv.inc.Codebase().Files()[0].Name
	cases := []struct {
		name string
		req  api.PatchRequest
		code int
	}{
		{"missing path", api.PatchRequest{Source: "int f(void)\n{\n\treturn 0;\n}"}, http.StatusBadRequest},
		{"missing source", api.PatchRequest{Path: path}, http.StatusBadRequest},
		{"unknown file", api.PatchRequest{Path: "no/such.c", Source: "int x;"}, http.StatusUnprocessableEntity},
		{"parse error", api.PatchRequest{Path: path, Source: "int broken("}, http.StatusUnprocessableEntity},
		{"unknown func", api.PatchRequest{Path: path, Func: "nope", Source: "int f(void)\n{\n\treturn 0;\n}"}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code := postJSON(t, ts, "/patch", tc.req, nil); code != tc.code {
				t.Fatalf("status = %d, want %d", code, tc.code)
			}
		})
	}
}

// TestBatchServedFromWarmStore is the batch acceptance criterion: after
// one checker warms the store, a batch containing that checker serves it
// ~100% from cache while cold checkers scan and broken ones error — all
// in one request.
func TestBatchServedFromWarmStore(t *testing.T) {
	_, ts := newTestServer(t)
	postScan(t, ts, api.ScanRequest{Checker: testChecker}) // warm checker A

	var out api.BatchResponse
	if code := postJSON(t, ts, "/batch", api.BatchRequest{
		Checkers: []string{testChecker, testCheckerB, "checker broken {"},
	}, &out); code != http.StatusOK {
		t.Fatalf("batch status = %d", code)
	}
	if out.CheckersRun != 2 || out.CheckerErrors != 1 {
		t.Fatalf("run=%d errors=%d, want 2/1", out.CheckersRun, out.CheckerErrors)
	}
	a, b, bad := out.Results[0], out.Results[1], out.Results[2]
	if a.Cache.Misses != 0 || a.Cache.Hits == 0 {
		t.Fatalf("warm checker not cache-served: %+v", a.Cache)
	}
	if b.Cache.Hits != 0 || b.Cache.Misses == 0 {
		t.Fatalf("cold checker unexpectedly warm: %+v", b.Cache)
	}
	if bad.Error == "" {
		t.Fatal("broken checker entry has no error")
	}
	if out.Cache.Hits != a.Cache.Hits || out.Cache.Misses != b.Cache.Misses {
		t.Fatalf("aggregate cache %+v does not sum per-checker outcomes", out.Cache)
	}

	// Per-checker batch results equal standalone scans.
	solo := postScan(t, ts, api.ScanRequest{Checker: testChecker})
	ja, _ := json.Marshal(a.Reports)
	js, _ := json.Marshal(solo.Reports)
	if !bytes.Equal(ja, js) {
		t.Fatal("batch entry reports differ from a standalone scan")
	}

	stats := getStats(t, ts)
	if stats.Batches != 1 {
		t.Fatalf("batches counter = %d, want 1", stats.Batches)
	}
}

// TestChangesetEndpointConfinesMisses is the service-level tentpole
// acceptance criterion: a K-file POST /changeset drains once, bumps the
// generation once, and the next scan misses only on the functions the
// changeset changed in the K touched files.
func TestChangesetEndpointConfinesMisses(t *testing.T) {
	srv, ts := newTestServer(t)
	cb := srv.inc.Codebase()
	if len(cb.Files()) < 3 {
		t.Fatalf("corpus too small: %d files", len(cb.Files()))
	}
	files := []int{0, 1, 2}

	// Canonicalize the three target files in ONE changeset, then warm.
	var canon []api.Change
	for _, i := range files {
		canon = append(canon, api.Change{Path: cb.Files()[i].Name, Source: minic.FormatFile(cb.Files()[i])})
	}
	var rep api.ChangesetResponse
	if code := postJSON(t, ts, "/changeset", api.ChangesetRequest{Changes: canon}, &rep); code != http.StatusOK {
		t.Fatalf("canonicalizing changeset status = %d", code)
	}
	if rep.Ops != 3 || len(rep.Files) != 3 || rep.Generation != 1 {
		t.Fatalf("changeset response = %+v, want 3 ops / 3 files / generation 1", rep)
	}
	postScan(t, ts, api.ScanRequest{Checker: testChecker})
	warm := postScan(t, ts, api.ScanRequest{Checker: testChecker})
	if warm.Cache.Misses != 0 {
		t.Fatalf("warm-up left %d misses", warm.Cache.Misses)
	}

	// Patch the last function of each of the three files in one commit.
	var changes []api.Change
	for _, i := range files {
		fn := cb.Files()[i].Funcs[len(cb.Files()[i].Funcs)-1]
		src := minic.FormatFunc(fn)
		brace := strings.Index(src, "{")
		changes = append(changes, api.Change{
			Path: cb.Files()[i].Name, Func: fn.Name,
			Source: src[:brace+1] + "\n\tint changeset_probe;" + src[brace+1:],
		})
	}
	if code := postJSON(t, ts, "/changeset", api.ChangesetRequest{Changes: changes}, &rep); code != http.StatusOK {
		t.Fatalf("changeset status = %d", code)
	}
	if rep.ChangedFuncs != 3 || rep.StaleHashes != 3 || rep.Generation != 2 {
		t.Fatalf("changeset response = %+v, want 3 changed funcs / 3 stale hashes / generation 2", rep)
	}
	if rep.StoreInvalidated != 3 {
		t.Fatalf("store invalidated %d entries, want 3", rep.StoreInvalidated)
	}

	after := postScan(t, ts, api.ScanRequest{Checker: testChecker})
	if after.Cache.Misses != 3 {
		t.Fatalf("post-changeset scan missed %d times, want 3", after.Cache.Misses)
	}
	if after.Cache.Hits != warm.Cache.Hits-3 {
		t.Fatalf("post-changeset hits = %d, want %d", after.Cache.Hits, warm.Cache.Hits-3)
	}
	stats := getStats(t, ts)
	if stats.Changesets != 2 || stats.Generation != 2 {
		t.Fatalf("stats after two changesets: changesets=%d generation=%d", stats.Changesets, stats.Generation)
	}
}

func TestChangesetEndpointRejectsBadRequests(t *testing.T) {
	srv, ts := newTestServer(t)
	cb := srv.inc.Codebase()
	path := cb.Files()[0].Name
	genBefore := getStats(t, ts).Generation
	ok := api.Change{Path: path, Source: minic.FormatFile(cb.Files()[0])}
	cases := []struct {
		name string
		req  api.ChangesetRequest
		code int
	}{
		{"no changes", api.ChangesetRequest{}, http.StatusBadRequest},
		{"missing path", api.ChangesetRequest{Changes: []api.Change{{Source: "int x;"}}}, http.StatusBadRequest},
		{"missing source", api.ChangesetRequest{Changes: []api.Change{{Path: path}}}, http.StatusBadRequest},
		{"unknown file poisons the set", api.ChangesetRequest{Changes: []api.Change{ok, {Path: "no/such.c", Source: "int x;"}}}, http.StatusUnprocessableEntity},
		{"parse error poisons the set", api.ChangesetRequest{Changes: []api.Change{ok, {Path: path, Source: "int broken("}}}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code := postJSON(t, ts, "/changeset", tc.req, nil); code != tc.code {
				t.Fatalf("status = %d, want %d", code, tc.code)
			}
		})
	}
	// Atomicity is observable over the wire: no rejected set moved the
	// generation, even the ones whose first change was valid.
	if g := getStats(t, ts).Generation; g != genBefore {
		t.Fatalf("rejected changesets bumped generation %d -> %d", genBefore, g)
	}
}

// TestAdmissionShedsExcessLoad saturates a 1-inflight/1-queued gate with
// a slow scan and verifies the contract: excess concurrent requests get
// 429 with a Retry-After hint, admitted requests complete normally, and
// the shed/admitted counters land in /stats.
func TestAdmissionShedsExcessLoad(t *testing.T) {
	srv, ts := newTestServerWithAdmission(t, newAdmission(1, 1, 0))

	release := make(chan struct{})
	var inflight sync.WaitGroup
	inflight.Add(1)
	go func() {
		defer inflight.Done()
		// Occupy the single inflight slot directly (the gate is the unit
		// under test; no need for a genuinely slow scan).
		srv.adm.tokens <- struct{}{}
		<-release
		<-srv.adm.tokens
	}()
	for len(srv.adm.tokens) == 0 {
		time.Sleep(time.Millisecond) // until the occupier holds the slot
	}

	// Fill the one queue slot with a request that will block.
	queuedDone := make(chan *http.Response, 1)
	go func() {
		data, _ := json.Marshal(api.ScanRequest{Checker: testChecker})
		resp, err := http.Post(ts.URL+"/scan", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Error(err)
			queuedDone <- nil
			return
		}
		queuedDone <- resp
	}()
	for srv.adm.snapshot().Queued == 0 {
		time.Sleep(time.Millisecond) // until the second request is queued
	}

	// The third concurrent request must shed.
	data, _ := json.Marshal(api.ScanRequest{Checker: testChecker})
	resp, err := http.Post(ts.URL+"/scan", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", ra)
	}

	// Release the slot: the queued request is admitted and completes.
	close(release)
	inflight.Wait()
	if qr := <-queuedDone; qr == nil {
		t.Fatal("queued request failed outright")
	} else {
		defer qr.Body.Close()
		if qr.StatusCode != http.StatusOK {
			t.Fatalf("queued request status = %d after drain, want 200", qr.StatusCode)
		}
	}

	stats := getDrainedStats(t, ts)
	if stats.Admission == nil {
		t.Fatal("admission stats missing from /stats")
	}
	if stats.Admission.Shed != 1 || stats.Admission.Admitted != 1 {
		t.Fatalf("admission counters = %+v, want 1 shed / 1 admitted", stats.Admission)
	}
	if stats.Admission.Queued != 0 || stats.Admission.Inflight != 0 {
		t.Fatalf("gate not drained: %+v", stats.Admission)
	}
}

// TestConcurrentBatchesAndPatches hammers /batch and /patch from many
// goroutines; under -race this is the concurrency-control acceptance
// test (a patch must wait for in-flight scans and batches to drain).
func TestConcurrentBatchesAndPatches(t *testing.T) {
	srv, ts := newTestServer(t)
	cb := srv.inc.Codebase()
	path := cb.Files()[0].Name
	canonical := minic.FormatFile(cb.Files()[0])

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if g%2 == 0 {
					var out api.BatchResponse
					if code := postJSON(t, ts, "/batch", api.BatchRequest{
						Checkers:    []string{testChecker, testCheckerB},
						Concurrency: 2,
					}, &out); code != http.StatusOK {
						errs <- fmt.Sprintf("batch status %d", code)
					}
				} else {
					var out api.PatchResponse
					if code := postJSON(t, ts, "/patch", api.PatchRequest{
						Path: path, Source: canonical,
					}, &out); code != http.StatusOK {
						errs <- fmt.Sprintf("patch status %d", code)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if stats := getStats(t, ts); stats.Patches != 6 || stats.Batches != 6 {
		t.Fatalf("counters after hammering: %+v", stats)
	}
}
