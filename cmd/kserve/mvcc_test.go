package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knighter/internal/api"
	"knighter/internal/minic"
)

// TestAsyncChangesetEndpoint: POST /changeset {"async": true} answers
// 202 with a generation token before the commit lands; the token is
// pollable on /changeset/status through pending → committed, and a
// min_generation scan on the token reads the writer's own write.
func TestAsyncChangesetEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
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
	// after it (kserve waits, bounded by -min-gen-wait).
	scanned := postScan(t, ts, api.ScanRequest{Checker: testChecker, MinGeneration: acc.Generation})
	if scanned.Generation < acc.Generation {
		t.Fatalf("min_generation scan served generation %d, want >= %d", scanned.Generation, acc.Generation)
	}

	// The ledger converges to committed with the commit's accounting.
	var st api.ChangesetStatus
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/changeset/status?generation=" + strconv.FormatInt(acc.Generation, 10))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/changeset/status = %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Status != api.StatusPending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("async changeset still pending after 5s: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
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
	for {
		resp, err := http.Get(ts.URL + "/changeset/status?generation=" + strconv.FormatInt(acc.Generation, 10))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Status != api.StatusPending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failed async changeset still pending: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Status != api.StatusFailed || st.Error == "" {
		t.Fatalf("settled status = %+v, want failed with an error", st)
	}
	if got := postScan(t, ts, api.ScanRequest{Checker: testChecker, MinGeneration: acc.Generation}); got.Generation < acc.Generation {
		t.Fatalf("burned generation %d never became visible (scan saw %d)", acc.Generation, got.Generation)
	}

	// Unknown tokens 404 with the error envelope.
	resp, err := http.Get(ts.URL + "/changeset/status?generation=99999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown token status = %d, want 404", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var envelope api.ErrorResponse
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatal(err)
	}
	if envelope.Err == nil || envelope.Err.Code != api.ErrNotFound || envelope.Err.Message == "" {
		t.Fatalf("unknown token envelope = %+v, want code %q with a message", envelope, api.ErrNotFound)
	}
	if _, ok := keys["error_legacy"]; ok {
		t.Fatalf("error envelope still carries the removed error_legacy key: %s", body)
	}
}

// TestMinGenerationUnsatisfiable: a min_generation the corpus cannot
// reach within -min-gen-wait answers 409 with the envelope's
// generation_unavailable code, a retry hint, and the current generation
// in the X-KN-Generation header.
func TestMinGenerationUnsatisfiable(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.minGenWait = 50 * time.Millisecond

	data, _ := json.Marshal(api.ScanRequest{
		Checker: testChecker, MinGeneration: srv.inc.Codebase().Generation() + 100,
	})
	resp, err := http.Post(ts.URL+"/scan", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unsatisfiable min_generation = %d, want 409", resp.StatusCode)
	}
	var envelope api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
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
	_, ts := newTestServer(t)
	for _, path := range []string{"/stats", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Header.Get(api.GenerationHeader) == "" {
			t.Fatalf("GET %s response has no %s header", path, api.GenerationHeader)
		}
	}
	data, _ := json.Marshal(api.ScanRequest{Checker: testChecker})
	resp, err := http.Post(ts.URL+"/scan", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(api.GenerationHeader) == "" {
		t.Fatalf("POST /scan response has no %s header", api.GenerationHeader)
	}
}

// TestStressScanDuringChangesetStorm is the split-gate acceptance
// criterion: with writes gated to one inflight slot and a changeset
// storm saturating it, reads NEVER shed — every /scan admitted during
// the storm completes with 200 against some pinned generation. Run
// under -race in CI.
func TestStressScanDuringChangesetStorm(t *testing.T) {
	srv, ts := newTestServerWithGates(t, newAdmission(4, 64, 0), newAdmission(1, 4, 0))
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
				data, _ := json.Marshal(api.ChangesetRequest{
					Changes: []api.Change{{Path: path, Source: canonical}},
					Async:   true,
				})
				resp, err := http.Post(ts.URL+"/changeset", "application/json", bytes.NewReader(data))
				if err != nil {
					return
				}
				resp.Body.Close()
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
				data, _ := json.Marshal(api.ScanRequest{Checker: testChecker})
				resp, err := http.Post(ts.URL+"/scan", "application/json", bytes.NewReader(data))
				if err != nil {
					readErrs.Add(1)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusTooManyRequests:
					shed429.Add(1)
				default:
					readErrs.Add(1)
				}
				resp.Body.Close()
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
