package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"testing"

	"knighter/internal/api"
	"knighter/internal/ckdsl"
	"knighter/internal/minic"
	"knighter/internal/scan"
)

// TestStressScansChangesetsAndSaturation is the concurrency-and-
// backpressure acceptance test, meant to run under -race: many clients
// hammer /scan, /batch, and /changeset against tight read and write
// admission gates at once. It must terminate (no deadlock between the
// admission queues, the snapshot pin registry, and the writer ticket
// queue), every shed response must carry Retry-After, and once the storm
// drains a quiesced scan must be byte-identical to a cold scan of
// whatever corpus state the interleaved changesets produced.
func TestStressScansChangesetsAndSaturation(t *testing.T) {
	srv, ts := bootOne(t, Config{MaxInflight: 2, MaxQueued: 2, MaxQueuedWrites: 2})
	cb := srv.inc.Codebase()
	path := cb.Files()[0].Name
	canonical := minic.FormatFile(cb.Files()[0])
	altPath := cb.Files()[1].Name
	altCanonical := minic.FormatFile(cb.Files()[1])

	post := func(endpoint string, body any) (*http.Response, error) {
		return call(http.MethodPost, ts.URL+endpoint, body, nil)
	}

	const clients = 8
	const iters = 4
	var wg sync.WaitGroup
	errs := make(chan string, clients*iters)
	var mu sync.Mutex
	statuses := map[int]int{}
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var resp *http.Response
				var err error
				switch (g + i) % 3 {
				case 0:
					resp, err = post("/scan", api.ScanRequest{Checker: testChecker})
				case 1:
					resp, err = post("/batch", api.BatchRequest{
						Checkers: []string{testChecker, testCheckerB},
					})
				case 2:
					resp, err = post("/changeset", api.ChangesetRequest{Changes: []api.Change{
						{Path: path, Source: canonical},
						{Path: altPath, Source: altCanonical},
					}})
				}
				if err != nil {
					errs <- err.Error()
					continue
				}
				mu.Lock()
				statuses[resp.StatusCode]++
				mu.Unlock()
				switch resp.StatusCode {
				case http.StatusOK:
					// fine
				case http.StatusTooManyRequests:
					if ra := resp.Header.Get("Retry-After"); ra == "" {
						errs <- "429 without Retry-After"
					} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
						errs <- fmt.Sprintf("bad Retry-After %q", ra)
					}
				default:
					errs <- fmt.Sprintf("unexpected status %d", resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// The books must balance exactly across BOTH gates: every request
	// either completed or was shed, and both gates are fully drained.
	stats := getDrainedStats(t, ts)
	total := stats.Admission.Admitted + stats.Admission.Shed +
		stats.WriteAdmission.Admitted + stats.WriteAdmission.Shed
	if total != clients*iters {
		t.Fatalf("read admitted %d + shed %d + write admitted %d + shed %d = %d, want %d",
			stats.Admission.Admitted, stats.Admission.Shed,
			stats.WriteAdmission.Admitted, stats.WriteAdmission.Shed, total, clients*iters)
	}
	if stats.Admission.Inflight != 0 || stats.Admission.Queued != 0 {
		t.Fatalf("read gate not drained after storm: %+v", stats.Admission)
	}
	if stats.WriteAdmission.Inflight != 0 || stats.WriteAdmission.Queued != 0 {
		t.Fatalf("write gate not drained after storm: %+v", stats.WriteAdmission)
	}
	if statuses[http.StatusOK] == 0 {
		t.Fatal("no request was admitted during the storm")
	}

	// Post-drain equivalence: a quiesced request must serve exactly what
	// a cold scan of the final corpus state produces, whatever order the
	// changesets landed in.
	quiesced := postScan(t, ts, api.ScanRequest{Checker: testChecker})
	cold, err := scan.NewCodebase(cb.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := ckdsl.CompileSource(testChecker)
	if err != nil {
		t.Fatal(err)
	}
	want := cold.RunOne(ck, scan.Options{Workers: 1})
	if len(quiesced.Reports) != len(want.Reports) {
		t.Fatalf("post-drain scan has %d reports, cold scan of final corpus has %d",
			len(quiesced.Reports), len(want.Reports))
	}
	for i, rep := range want.Reports {
		got := quiesced.Reports[i]
		if got.File != rep.File || got.Func != rep.Func || got.Line != rep.Pos.Line ||
			got.Col != rep.Pos.Col || got.Message != rep.Message {
			t.Fatalf("post-drain report %d = %+v, cold report = %+v", i, got, rep)
		}
	}
	if quiesced.FuncsScanned != want.FuncsScanned {
		t.Fatalf("post-drain scanned %d funcs, cold scan %d", quiesced.FuncsScanned, want.FuncsScanned)
	}
}

// TestStressHealthzDuringSaturation: liveness and stats must answer even
// while the gate is saturated — they are deliberately outside admission
// control.
func TestStressHealthzDuringSaturation(t *testing.T) {
	srv, ts := bootOne(t, Config{MaxInflight: 1, MaxQueued: 1})
	// Saturate: occupy the inflight slot and fill the queue.
	srv.adm.tokens <- struct{}{}
	defer func() { <-srv.adm.tokens }()
	srv.adm.queued.Store(srv.adm.maxQueued)
	defer srv.adm.queued.Store(0)

	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)
	if stats := getStats(t, ts); stats.Admission.Queued != srv.adm.maxQueued {
		t.Fatalf("stats under saturation = %+v", stats.Admission)
	}
	// And a scan-shaped request sheds instead of hanging.
	if code := postJSON(t, ts, "/scan", api.ScanRequest{Checker: testChecker}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("scan under saturation = %d, want 429", code)
	}
}
