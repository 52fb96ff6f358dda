package serve

import (
	"encoding/json"
	"net/http"
	"path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"knighter/internal/api"
	"knighter/internal/minic"
)

// TestAsyncFieldIsIgnored pins what a client of the removed async write
// path sees: {"async": true} decodes with the field ignored and answers
// 200 "committed" at a generation that is already live, the status
// route is gone (404), and /stats carries no async counter.
func TestAsyncFieldIsIgnored(t *testing.T) {
	srv, ts := bootOne(t, Config{})
	cb := srv.inc.Codebase()
	f := cb.Files()[0]
	base := cb.Generation()

	var cs api.ChangesetResponse
	code := postJSON(t, ts, "/changeset", map[string]any{
		"async":   true,
		"changes": []api.Change{{Path: f.Name, Source: minic.FormatFile(f)}},
	}, &cs)
	if code != http.StatusOK || cs.Status != api.StatusCommitted || cs.Generation != base+1 || cs.Ops != 1 {
		t.Fatalf("async changeset = %d %+v, want 200 committed at generation %d with 1 op", code, cs, base+1)
	}
	if live := cb.Generation(); live != cs.Generation {
		t.Fatalf("reply generation %d is not live (live %d)", cs.Generation, live)
	}

	resp, err := call(http.MethodGet, ts.URL+path.Join("/changeset", "status")+"?generation="+strconv.FormatInt(cs.Generation, 10), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET changeset status = %d, want 404", resp.StatusCode)
	}
	var keys map[string]json.RawMessage
	getJSON(t, ts.URL+"/stats", http.StatusOK, &keys)
	for k := range keys {
		if strings.Contains(k, "async") {
			t.Errorf("/stats still carries %q", k)
		}
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
		Checker: testChecker, Query: api.Query{MinGeneration: srv.inc.Codebase().Generation() + 100},
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
	srv, ts := bootOne(t, Config{MaxInflight: 4, MaxQueued: 64, MaxQueuedWrites: 4})
	cb := srv.inc.Codebase()
	file := cb.Files()[0].Name
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
					Changes: []api.Change{{Path: file, Source: canonical}},
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
