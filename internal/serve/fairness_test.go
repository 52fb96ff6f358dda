package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"knighter/internal/obs"
)

// testGate is a standalone gate on a registry of its own.
func testGate(maxInflight, maxQueued, maxQueuedPerClient int) *admission {
	return newAdmission(obs.NewRegistry("test"), "admission", maxInflight, maxQueued, maxQueuedPerClient,
		func() int64 { return 0 })
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdmissionPerClientFairness pins the fairness contract: a chatty
// client saturates its own per-client queue allowance and gets shed,
// while another client still queues into the same (non-full) global
// queue.
func TestAdmissionPerClientFairness(t *testing.T) {
	adm := testGate(1, 8, 2)
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	h := adm.wrap(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	do := func(client string) int {
		req, err := http.NewRequest(http.MethodPost, ts.URL, nil)
		if err != nil {
			return -1
		}
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return -1
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Error("shed response missing Retry-After")
		}
		return resp.StatusCode
	}

	// Occupy the single inflight slot so everything else queues.
	occupier := make(chan int, 1)
	go func() { occupier <- do("occupier") }()
	<-started

	// Chatty client fires 5 concurrent requests: 2 fill its per-client
	// allowance and queue, 3 are shed by the fairness bound.
	var wg sync.WaitGroup
	codes := make(chan int, 5)
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- do("chatty")
		}()
	}
	waitFor(t, "chatty's overflow to shed", func() bool {
		s := adm.snapshot()
		return s.FairnessShed == 3 && s.Queued == 2
	})

	// A polite client is unaffected: the global queue (8) has room.
	polite := make(chan int, 1)
	go func() { polite <- do("polite") }()
	waitFor(t, "polite client to queue", func() bool {
		return adm.snapshot().Queued == 3
	})
	if s := adm.snapshot(); s.QueuedClients != 2 {
		t.Fatalf("queued clients = %d, want 2 (chatty + polite)", s.QueuedClients)
	}

	// Drain: everyone queued completes; only the fairness overflow saw
	// 429s.
	close(release)
	wg.Wait()
	shed, ok := 0, 0
	for i := 0; i < 5; i++ {
		switch <-codes {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatal("unexpected status")
		}
	}
	if ok != 2 || shed != 3 {
		t.Fatalf("chatty: %d ok / %d shed, want 2/3", ok, shed)
	}
	if code := <-polite; code != http.StatusOK {
		t.Fatalf("polite client got %d", code)
	}
	if code := <-occupier; code != http.StatusOK {
		t.Fatalf("occupier got %d", code)
	}
	s := adm.snapshot()
	if s.Shed != 3 || s.FairnessShed != 3 || s.Admitted != 4 || s.Queued != 0 || s.QueuedClients != 0 {
		t.Fatalf("final snapshot = %+v", s)
	}
}
