package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knighter/internal/api"
	"knighter/internal/minic"
)

// awaitSettled polls /changeset/status until the async changeset at gen
// is no longer pending.
func awaitSettled(t *testing.T, ts *httptest.Server, gen int64) api.ChangesetStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st api.ChangesetStatus
		getJSON(t, ts.URL+"/changeset/status?generation="+strconv.FormatInt(gen, 10), http.StatusOK, &st)
		if st.Status != api.StatusPending {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("async changeset still pending after 5s: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAsyncChangesetEndpoint: POST /changeset {"async": true} answers
// 202 with a generation token before the commit lands; the token is
// pollable on /changeset/status through pending → committed, and a
// min_generation scan on the token reads the writer's own write.
func TestAsyncChangesetEndpoint(t *testing.T) {
	srv, ts := bootOne(t, Config{})
	cb := srv.inc.Codebase()
	path := cb.Files()[0].Name
	canonical := minic.FormatFile(cb.Files()[0])

	var acc api.ChangesetResponse
	code := postJSON(t, ts, "/changeset", api.ChangesetRequest{
		Changes: []api.Change{{Path: path, Source: canonical}},
		Async:   true,
	}, &acc)
	if code != http.StatusAccepted {
		t.Fatalf("async changeset status = %d, want 202", code)
	}
	if !acc.Async || acc.Status != api.StatusPending {
		t.Fatalf("async accept = %+v, want async pending", acc)
	}
	if acc.Generation != cb.Generation()+1 && acc.Generation != cb.Generation() {
		t.Fatalf("token %d is not the next generation (live %d)", acc.Generation, cb.Generation())
	}

	// Read-your-writes: a scan at the token's generation serves at or
	// after it (kserve waits, bounded by minGenWait).
	scanned := postScan(t, ts, api.ScanRequest{Checker: testChecker, MinGeneration: acc.Generation})
	if scanned.Generation < acc.Generation {
		t.Fatalf("min_generation scan served generation %d, want >= %d", scanned.Generation, acc.Generation)
	}

	// The ledger converges to committed with the commit's accounting.
	st := awaitSettled(t, ts, acc.Generation)
	if st.Status != api.StatusCommitted || st.Generation != acc.Generation || st.Ops != 1 {
		t.Fatalf("settled status = %+v, want committed generation %d with 1 op", st, acc.Generation)
	}

	// A failed async changeset burns its token: status reports failed,
	// and the generation still resolves for min_generation waiters.
	code = postJSON(t, ts, "/changeset", api.ChangesetRequest{
		Changes: []api.Change{{Path: path, Source: "int broken("}},
		Async:   true,
	}, &acc)
	if code != http.StatusAccepted {
		t.Fatalf("async bad changeset status = %d, want 202 (failure is deferred)", code)
	}
	st = awaitSettled(t, ts, acc.Generation)
	if st.Status != api.StatusFailed || st.Error == "" {
		t.Fatalf("settled status = %+v, want failed with an error", st)
	}
	if got := postScan(t, ts, api.ScanRequest{Checker: testChecker, MinGeneration: acc.Generation}); got.Generation < acc.Generation {
		t.Fatalf("burned generation %d never became visible (scan saw %d)", acc.Generation, got.Generation)
	}

	// Unknown tokens 404 with the error envelope.
	var envelope api.ErrorResponse
	var keys map[string]json.RawMessage
	getJSON(t, ts.URL+"/changeset/status?generation=99999", http.StatusNotFound, &envelope)
	getJSON(t, ts.URL+"/changeset/status?generation=99999", http.StatusNotFound, &keys)
	if envelope.Err == nil || envelope.Err.Code != api.ErrNotFound || envelope.Err.Message == "" {
		t.Fatalf("unknown token envelope = %+v, want code %q with a message", envelope, api.ErrNotFound)
	}
	if _, ok := keys["error_legacy"]; ok {
		t.Fatalf("error envelope still carries the removed error_legacy key: %v", keys)
	}
}

// TestMinGenerationUnsatisfiable: a min_generation the corpus cannot
// reach within the bounded wait (minGenWait) answers 409 with the envelope's
// generation_unavailable code, a retry hint, and the current generation
// in the X-KN-Generation header.
func TestMinGenerationUnsatisfiable(t *testing.T) {
	srv, ts := bootOne(t, Config{})

	var envelope api.ErrorResponse
	resp, err := call(http.MethodPost, ts.URL+"/scan", api.ScanRequest{
		Checker: testChecker, MinGeneration: srv.inc.Codebase().Generation() + 100,
	}, &envelope)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unsatisfiable min_generation = %d, want 409", resp.StatusCode)
	}
	if envelope.Err == nil || envelope.Err.Code != api.ErrGenerationUnavailable {
		t.Fatalf("envelope = %+v, want code %q", envelope, api.ErrGenerationUnavailable)
	}
	if envelope.Err.RetryAfterMS <= 0 {
		t.Fatalf("409 carries no retry hint: %+v", envelope.Err)
	}
	gotGen, err := strconv.ParseInt(resp.Header.Get(api.GenerationHeader), 10, 64)
	if err != nil || gotGen != srv.inc.Codebase().Generation() {
		t.Fatalf("%s header = %q, want live generation %d",
			api.GenerationHeader, resp.Header.Get(api.GenerationHeader), srv.inc.Codebase().Generation())
	}
}

// TestGenerationHeaderOnResponses: every response class carries the
// generation it was served against in X-KN-Generation.
func TestGenerationHeaderOnResponses(t *testing.T) {
	_, ts := bootOne(t, Config{})
	for _, req := range []struct {
		method, path string
		body         any
	}{
		{http.MethodGet, "/stats", nil},
		{http.MethodGet, "/healthz", nil},
		{http.MethodPost, "/scan", api.ScanRequest{Checker: testChecker}},
	} {
		resp, err := call(req.method, ts.URL+req.path, req.body, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.Get(api.GenerationHeader) == "" {
			t.Fatalf("%s %s response has no %s header", req.method, req.path, api.GenerationHeader)
		}
	}
}

// TestStressScanDuringChangesetStorm is the split-gate acceptance
// criterion: with writes gated to one inflight slot and a changeset
// storm saturating it, reads NEVER shed — every /scan admitted during
// the storm completes with 200 against some pinned generation. Run
// under -race in CI.
func TestStressScanDuringChangesetStorm(t *testing.T) {
	srv, ts := bootOne(t, Config{MaxInflight: 4, MaxQueued: 64, MaxInflightWrites: 1, MaxQueuedWrites: 4})
	cb := srv.inc.Codebase()
	path := cb.Files()[0].Name
	canonical := minic.FormatFile(cb.Files()[0])

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := call(http.MethodPost, ts.URL+"/changeset", api.ChangesetRequest{
					Changes: []api.Change{{Path: path, Source: canonical}},
					Async:   true,
				}, nil); err != nil {
					return
				}
			}
		}()
	}

	const clients = 4
	const iters = 8
	var shed429 atomic.Int64
	var readErrs atomic.Int64
	var readers sync.WaitGroup
	for g := 0; g < clients; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < iters; i++ {
				resp, err := call(http.MethodPost, ts.URL+"/scan", api.ScanRequest{Checker: testChecker}, nil)
				switch {
				case err != nil:
					readErrs.Add(1)
				case resp.StatusCode == http.StatusTooManyRequests:
					shed429.Add(1)
				case resp.StatusCode != http.StatusOK:
					readErrs.Add(1)
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()

	if n := shed429.Load(); n != 0 {
		t.Fatalf("%d reads shed 429 during the write storm; writes must not gate reads", n)
	}
	if n := readErrs.Load(); n != 0 {
		t.Fatalf("%d reads failed during the write storm", n)
	}
	stats := getStats(t, ts)
	if stats.Admission.Shed != 0 {
		t.Fatalf("read gate shed %d requests during a write-only storm", stats.Admission.Shed)
	}
}
