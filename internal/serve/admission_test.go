package serve

import (
	"net/http"
	"sync"
	"testing"
	"time"

	"knighter/internal/api"
)

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

// TestAdmissionOneClientFillsTheQueue: a gate's queue has one bound,
// its own. With the one read slot held, 30 concurrent scans from one
// host, none naming a client, all queue behind the default 64-slot
// queue and none is shed; each is served once the slot frees.
func TestAdmissionOneClientFillsTheQueue(t *testing.T) {
	const n = 30
	srv, ts := bootOne(t, Config{MaxInflight: 1})

	// Hold the one read slot; it is let go on every exit, so a failed
	// check cannot leave the queued requests blocking the server's Close.
	srv.adm.tokens <- struct{}{}
	var once sync.Once
	releaseSlot := func() { once.Do(func() { <-srv.adm.tokens }) }
	defer releaseSlot()

	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := call(http.MethodPost, ts.URL+"/scan", api.ScanRequest{Checker: testChecker}, nil)
			if err != nil {
				t.Error(err)
				codes <- 0
				return
			}
			codes <- resp.StatusCode
		}()
	}
	waitFor(t, "every request to queue or shed", func() bool {
		s := srv.adm.snapshot()
		return s.Queued+s.Shed == n
	})
	if s := srv.adm.snapshot(); s.Queued != n || s.Shed != 0 {
		t.Errorf("one client: %d queued, %d shed with %d queue slots; want %d queued, 0 shed", s.Queued, s.Shed, s.MaxQueued, n)
	}
	releaseSlot()
	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("queued scan answered %d, want 200", code)
		}
	}
	if st := getDrainedStats(t, ts); st.Admission.Admitted != n || st.Admission.Shed != 0 {
		t.Errorf("read gate admitted %d and shed %d, want %d and 0", st.Admission.Admitted, st.Admission.Shed, n)
	}
}
