package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"knighter/internal/api"
	"knighter/internal/minic"
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

// boot builds n replicas of the test corpus through New — the only way
// any test gets a server — and serves each Handler over httptest. cfg
// carries everything else exactly as cmd/kserve's flags would. n == 1
// is a single host; n > 1 a sharded fleet in which replica i owns shard
// i and every replica can coordinate, over a kcached of its own unless
// cfg names one.
func boot(t *testing.T, n int, cfg Config) ([]*Server, []*httptest.Server) {
	t.Helper()
	return bootWith(t, n, cfg, nil)
}

// bootWith is boot with a hook that sees each listener before it starts.
func bootWith(t *testing.T, n int, cfg Config, hook func(i int, ts *httptest.Server)) ([]*Server, []*httptest.Server) {
	t.Helper()
	return bootEach(t, n, cfg, nil, hook)
}

// bootEach is bootWith with each replica's Config passed through
// configure (when not nil) before New builds it.
func bootEach(t *testing.T, n int, cfg Config, configure func(i int, cfg *Config), hook func(i int, ts *httptest.Server)) ([]*Server, []*httptest.Server) {
	t.Helper()
	cfg.Seed, cfg.Scale = 1, 0.1
	// Listeners first: each replica's Config names every peer's URL.
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range tss {
		tss[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + tss[i].Listener.Addr().String()
	}
	if n > 1 {
		cfg.ShardCount, cfg.Peers = n, strings.Join(urls, ",")
		if cfg.CacheRemote == "" { // a fleet's commits travel through kcached's feed
			_, kc := newKcached(t, CacheConfig{})
			cfg.CacheRemote = kc.URL
		}
	}
	srvs := make([]*Server, n)
	for i, ts := range tss {
		cfg.ShardIndex = i
		ci := cfg
		if configure != nil {
			configure(i, &ci)
		}
		srv, err := New(ci)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		ts.Config.Handler = srv.Handler()
		if hook != nil {
			hook(i, ts)
		}
		ts.Start()
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
	}
	return srvs, tss
}

// bootOne is boot for a single host.
func bootOne(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srvs, tss := boot(t, 1, cfg)
	return srvs[0], tss[0]
}

// newKcached boots an in-process kcached through NewCache, as
// cmd/kcached does, in a fresh directory unless cfg names one.
func newKcached(t *testing.T, cfg CacheConfig) (*Cache, *httptest.Server) {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	c, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kc := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		kc.Close()
		c.Close()
	})
	return c, kc
}

// call is the core of every HTTP helper: it sends method and url (with
// body as JSON unless nil, and header's key/value pairs), decodes a
// JSON reply into out unless nil, and returns the response with its
// body consumed. It takes no *testing.T, so storm goroutines use it too.
func call(method, url string, body, out any, header ...string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if out != nil {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, resp.Body)
	return resp, err
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any, out any) int {
	t.Helper()
	resp, err := call(http.MethodPost, ts.URL+path, body, out)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, wantCode int, out any) {
	t.Helper()
	resp, err := call(http.MethodGet, url, nil, out)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantCode)
	}
}

func postScan(t *testing.T, ts *httptest.Server, body any) *api.ScanResponse {
	t.Helper()
	var out api.ScanResponse
	if code := postJSON(t, ts, "/scan", body, &out); code != http.StatusOK {
		t.Fatalf("POST /scan status = %d", code)
	}
	return &out
}

func getStats(t *testing.T, ts *httptest.Server) *api.StatsResponse {
	t.Helper()
	var out api.StatsResponse
	getJSON(t, ts.URL+"/stats", http.StatusOK, &out)
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
		busy := st.Admission.Inflight != 0 || st.WriteAdmission.Inflight != 0
		if !busy || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := bootOne(t, Config{})
	var out api.HealthzResponse
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &out)
	if !out.OK || out.Files == 0 {
		t.Fatalf("healthz = %+v", out)
	}
}

// TestRepeatScanServedFromCache is the service-level acceptance
// criterion: the second POST /scan for the same checker must be served
// >= 90% from cache, observable both in the response and in GET /stats.
func TestRepeatScanServedFromCache(t *testing.T) {
	_, ts := bootOne(t, Config{})
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
	if reportsJSON(t, first) != reportsJSON(t, second) {
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
	srv, ts := bootOne(t, Config{})
	path := srv.inc.Codebase().Files()[0].Name
	one := postScan(t, ts, api.ScanRequest{Checker: testChecker, Query: api.Query{Files: []string{path}}})
	if one.FilesScanned != 1 {
		t.Fatalf("files scanned = %d, want 1", one.FilesScanned)
	}
	again := postScan(t, ts, api.ScanRequest{Checker: testChecker, Query: api.Query{Files: []string{path}}})
	if again.Cache.Misses != 0 {
		t.Fatalf("re-scan of one file missed %d times, want 0", again.Cache.Misses)
	}
}

// TestWarmScanCountsEveryFunction pins the per-key counting the
// benchmark's invariants rest on: however the scheduler batches its
// probes, one warm /scan is one hit per function in the reply, in
// /stats, and in the memory and stack series of store_hits_total.
func TestWarmScanCountsEveryFunction(t *testing.T) {
	srv, ts := bootOne(t, Config{})
	req := api.ScanRequest{Checker: testChecker}
	postScan(t, ts, req) // cold: stores every function
	hits := func() map[string]int64 {
		m := metricValues(t, getMetrics(t, ts))
		return map[string]int64{
			"/stats store.hits": getStats(t, ts).Store.Hits,
			"memory":            m[`kserve_store_hits_total{tier="memory"}`],
			"stack":             m[`kserve_store_hits_total{tier="stack"}`],
		}
	}
	before := hits()
	warm := postScan(t, ts, req)
	after := hits()
	funcs := srv.inc.Codebase().NumFuncs()
	if warm.Cache.Hits != funcs || warm.Cache.Misses != 0 {
		t.Fatalf("warm scan: %d hits %d misses, want %d/0", warm.Cache.Hits, warm.Cache.Misses, funcs)
	}
	for name, n := range after {
		if d := n - before[name]; d != int64(funcs) {
			t.Errorf("%s moved by %d over one warm scan, want %d", name, d, funcs)
		}
	}
}

// TestQuietResultsCountOnMetricsOnly: the misses a pass answers
// quietly, unexplored, move
// kserve_scan_quiet_results_total — on a cold /scan and on each entry
// of a cold /batch, by some but not all of the NPD checker's misses — a
// warm scan moves it by nothing, and no reply carries the count.
func TestQuietResultsCountOnMetricsOnly(t *testing.T) {
	_, ts := bootOne(t, Config{})
	quiet := func() int64 { return metricValues(t, getMetrics(t, ts))["kserve_scan_quiet_results_total"] }
	post := func(path string, body any) []byte {
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
		reply, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %v", path, resp.StatusCode, err)
		}
		if bytes.Contains(reply, []byte("quiet")) {
			t.Fatalf("POST %s reply carries the quiet count: %s", path, reply)
		}
		return reply
	}
	var cold api.ScanResponse
	if err := json.Unmarshal(post("/scan", api.ScanRequest{Checker: testChecker}), &cold); err != nil {
		t.Fatal(err)
	}
	n := quiet()
	if n <= 0 || n >= int64(cold.Cache.Misses) {
		t.Fatalf("a cold scan of %d misses counted %d quiet results, want some but not all", cold.Cache.Misses, n)
	}
	post("/scan", api.ScanRequest{Checker: testChecker})
	if got := quiet(); got != n {
		t.Fatalf("a warm scan moved the quiet count from %d to %d", n, got)
	}
	revs := []string{
		strings.Replace(testChecker, "serve_npd", "serve_npd_a", 1),
		strings.Replace(testChecker, "serve_npd", "serve_npd_b", 1),
	}
	post("/batch", api.BatchRequest{Checkers: revs})
	if got := quiet(); got != 3*n {
		t.Fatalf("a cold batch of 2 revisions moved the quiet count from %d to %d, want %d", n, got, 3*n)
	}
}

func TestScanRejectsBadRequests(t *testing.T) {
	_, ts := bootOne(t, Config{})
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

// TestPostBodiesAreBounded: a body over api.MaxBodyBytes gets the
// bad_request envelope on /scan and on /changeset — the decode stops at
// the limit instead of buffering the rest — and counts in scan_errors.
func TestPostBodiesAreBounded(t *testing.T) {
	srv, ts := bootOne(t, Config{})
	body := `{"checker": "` + strings.Repeat("x", api.MaxBodyBytes+1) + `"}`
	for _, path := range []string{"/scan", "/changeset"} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		var out api.ErrorResponse
		if err := json.NewDecoder(rec.Body).Decode(&out); err != nil || out.Err == nil {
			t.Fatalf("POST %s: no error envelope (%v)", path, err)
		}
		if rec.Code != http.StatusBadRequest || out.Err.Code != api.ErrBadRequest {
			t.Fatalf("POST %s of %d bytes = %d %q, want %d %q", path, len(body), rec.Code, out.Err.Code, http.StatusBadRequest, api.ErrBadRequest)
		}
	}
	if stats := getStats(t, ts); stats.ScanErrors != 2 {
		t.Fatalf("scan_errors = %d, want 2", stats.ScanErrors)
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

// TestOneChangeChangesetConfinesMisses is the service-level acceptance
// criterion for a single-file edit: after a one-change POST /changeset
// patching one function, the next scan misses only on the functions the
// patch changed.
func TestOneChangeChangesetConfinesMisses(t *testing.T) {
	srv, ts := bootOne(t, Config{})
	cb := srv.inc.Codebase()
	path := cb.Files()[0].Name
	one := func(c api.Change) api.ChangesetRequest {
		return api.ChangesetRequest{Changes: []api.Change{c}}
	}

	// Canonicalize the target file (whole-file replace), then warm.
	var rep api.ChangesetResponse
	if code := postJSON(t, ts, "/changeset", one(api.Change{
		Path: path, Source: minic.FormatFile(cb.Files()[0]),
	}), &rep); code != http.StatusOK {
		t.Fatalf("replace status = %d", code)
	}
	if rep.Ops != 1 || len(rep.Files) != 1 || rep.Files[0] != path || rep.Generation != 1 {
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
	if code := postJSON(t, ts, "/changeset", one(api.Change{
		Path: path, Func: fn.Name, Source: src,
	}), &rep); code != http.StatusOK {
		t.Fatalf("patch status = %d", code)
	}
	if rep.ChangedFuncs != 1 || rep.Generation != 2 {
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
	if stats.Changesets != 2 || stats.Generation != 2 {
		t.Fatalf("stats after two mutations: %+v", stats)
	}
}

// TestBatchServedFromWarmStore is the batch acceptance criterion: after
// one checker warms the store, a batch containing that checker serves it
// ~100% from cache while cold checkers scan and broken ones error — all
// in one request.
func TestBatchServedFromWarmStore(t *testing.T) {
	_, ts := bootOne(t, Config{})
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
	if reportsJSON(t, a) != reportsJSON(t, solo) {
		t.Fatal("batch entry reports differ from a standalone scan")
	}

	stats := getStats(t, ts)
	if stats.Batches != 1 {
		t.Fatalf("batches counter = %d, want 1", stats.Batches)
	}

	// An unknown field is ignored, not rejected: a body that still
	// carries the retired "concurrency", "func_timeout_ms" and
	// "workers" gets the same entries, and so does a /scan.
	if got := postScan(t, ts, map[string]any{"checker": testChecker, "workers": 100000}); reportsJSON(t, got) != reportsJSON(t, solo) {
		t.Fatal(`scan with the retired "workers" differs from one without it`)
	}
	var again api.BatchResponse
	if code := postJSON(t, ts, "/batch", map[string]any{
		"checkers":        []string{testChecker, testCheckerB, "checker broken {"},
		"concurrency":     4,
		"func_timeout_ms": 1,
		"workers":         100000,
	}, &again); code != http.StatusOK {
		t.Fatalf(`batch with retired fields: status = %d`, code)
	}
	if len(again.Results) != len(out.Results) || again.CheckersRun != 2 || again.CheckerErrors != 1 {
		t.Fatalf(`batch with retired fields: %d entries, run=%d errors=%d`, len(again.Results), again.CheckersRun, again.CheckerErrors)
	}
	for i, r := range out.Results {
		if got := again.Results[i]; reportsJSON(t, got) != reportsJSON(t, r) || got.Error != r.Error {
			t.Fatalf(`batch with retired fields: entry %d differs from the batch without them`, i)
		}
	}
}

// TestChangesetEndpointConfinesMisses is the service-level tentpole
// acceptance criterion: a K-file POST /changeset drains once, bumps the
// generation once, and the next scan misses only on the functions the
// changeset changed in the K touched files.
func TestChangesetEndpointConfinesMisses(t *testing.T) {
	srv, ts := bootOne(t, Config{})
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
	srv, ts := bootOne(t, Config{})
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
		{"unknown file", api.ChangesetRequest{Changes: []api.Change{{Path: "no/such.c", Source: "int x;"}}}, http.StatusUnprocessableEntity},
		{"parse error", api.ChangesetRequest{Changes: []api.Change{{Path: path, Source: "int broken("}}}, http.StatusUnprocessableEntity},
		{"unknown func", api.ChangesetRequest{Changes: []api.Change{{Path: path, Func: "nope", Source: "int f(void)\n{\n\treturn 0;\n}"}}}, http.StatusUnprocessableEntity},
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
// 429 with a Retry-After hint and an overloaded error envelope whose
// retry_after_ms matches the header, admitted requests complete
// normally, and the shed/admitted counters land in /stats.
func TestAdmissionShedsExcessLoad(t *testing.T) {
	srv, ts := bootOne(t, Config{MaxInflight: 1, MaxQueued: 1})

	// The occupier lets go of its slot on every exit, so a failed check
	// cannot leave the queued request blocking the server's Close.
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseSlot := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseSlot()
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
		resp, err := call(http.MethodPost, ts.URL+"/scan", api.ScanRequest{Checker: testChecker}, nil)
		if err != nil {
			t.Error(err)
		}
		queuedDone <- resp
	}()
	for srv.adm.snapshot().Queued == 0 {
		time.Sleep(time.Millisecond) // until the second request is queued
	}

	// The third concurrent request must shed, in the error envelope.
	var body json.RawMessage
	resp, err := call(http.MethodPost, ts.URL+"/scan", api.ScanRequest{Checker: testChecker}, &body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request status = %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
	}
	var shed api.ErrorResponse
	var fields map[string]json.RawMessage
	if json.Unmarshal(body, &shed) != nil || json.Unmarshal(body, &fields) != nil || shed.Err == nil {
		t.Fatalf("429 body is not an error envelope: %s", body)
	}
	if shed.Err.Code != api.ErrOverloaded {
		t.Fatalf("429 error code = %q, want %q", shed.Err.Code, api.ErrOverloaded)
	}
	if shed.Err.RetryAfterMS != int64(secs)*1000 {
		t.Fatalf("retry_after_ms = %d, want Retry-After %ds x 1000", shed.Err.RetryAfterMS, secs)
	}
	if _, ok := fields["generation"]; !ok || shed.Generation != srv.inc.Codebase().Generation() {
		t.Fatalf("429 body generation = %s, want %d", fields["generation"], srv.inc.Codebase().Generation())
	}

	// Release the slot: the queued request is admitted and completes.
	releaseSlot()
	inflight.Wait()
	if qr := <-queuedDone; qr == nil {
		t.Fatal("queued request failed outright")
	} else if qr.StatusCode != http.StatusOK {
		t.Fatalf("queued request status = %d after drain, want 200", qr.StatusCode)
	}

	stats := getDrainedStats(t, ts)
	if stats.Admission.Shed != 1 || stats.Admission.Admitted != 1 {
		t.Fatalf("admission counters = %+v, want 1 shed / 1 admitted", stats.Admission)
	}
	if stats.Admission.Queued != 0 || stats.Admission.Inflight != 0 {
		t.Fatalf("gate not drained: %+v", stats.Admission)
	}
}

// TestConcurrentBatchesAndChangesets hammers /batch and one-change
// /changeset from many goroutines; under -race this is the
// concurrency-control acceptance test. Batches get a read slot each, so
// they race on any core count; changesets pass the write gate one at a
// time, as deployed, while batches run.
func TestConcurrentBatchesAndChangesets(t *testing.T) {
	srv, ts := bootOne(t, Config{MaxInflight: 4})
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
						Checkers: []string{testChecker, testCheckerB},
					}, &out); code != http.StatusOK {
						errs <- fmt.Sprintf("batch status %d", code)
					}
				} else {
					var out api.ChangesetResponse
					if code := postJSON(t, ts, "/changeset", api.ChangesetRequest{
						Changes: []api.Change{{Path: path, Source: canonical}},
					}, &out); code != http.StatusOK {
						errs <- fmt.Sprintf("changeset status %d", code)
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
	if stats := getStats(t, ts); stats.Changesets != 6 || stats.Batches != 6 {
		t.Fatalf("counters after hammering: %+v", stats)
	}
}
