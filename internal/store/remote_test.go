package store

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"knighter/internal/engine"
)

// newCacheTS serves a store over the kcached protocol for client tests.
func newCacheTS(t *testing.T, st Store) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewCacheServer(st).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func newRemote(t *testing.T, url string, cfg RemoteConfig) *Remote {
	t.Helper()
	r, err := NewRemote(url, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRemoteRoundTrip(t *testing.T) {
	back := NewMemory(0)
	ts := newCacheTS(t, back)
	r := newRemote(t, ts.URL, RemoteConfig{})

	if _, ok := r.Get(bg, key(1)); ok {
		t.Fatal("empty remote hit")
	}
	r.Put(bg, key(1), result("one"))
	got, ok := r.Get(bg, key(1))
	if !ok {
		t.Fatal("miss after put")
	}
	want, _ := json.Marshal(result("one"))
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		t.Fatalf("round trip altered the result:\nwant %s\nhave %s", want, have)
	}
	// The result must be served from the backing store, not a client
	// cache: a second client sees it too.
	r2 := newRemote(t, ts.URL, RemoteConfig{})
	if _, ok := r2.Get(bg, key(1)); !ok {
		t.Fatal("second client missed an entry the first stored")
	}
	rs := r.RemoteStats()
	if rs.Hits != 1 || rs.Misses != 1 || rs.Puts != 1 || rs.Errors != 0 {
		t.Fatalf("stats = %+v", rs)
	}
}

func TestRemoteInvalidate(t *testing.T) {
	back := NewMemory(0)
	ts := newCacheTS(t, back)
	r := newRemote(t, ts.URL, RemoteConfig{})

	r.Put(bg, fkey("fA", "ck1"), result("a1"))
	r.Put(bg, fkey("fA", "ck2"), result("a2"))
	r.Put(bg, fkey("fB", "ck1"), result("b1"))
	if n := r.InvalidateFuncs([]string{"fA"}); n != 2 {
		t.Fatalf("invalidated %d entries, want 2", n)
	}
	if _, ok := r.Get(bg, fkey("fA", "ck1")); ok {
		t.Fatal("fA/ck1 survived invalidation")
	}
	if _, ok := r.Get(bg, fkey("fB", "ck1")); !ok {
		t.Fatal("fB/ck1 dropped by unrelated invalidation")
	}
}

// TestRemoteServerValidatesAddress pins the anti-poisoning check: a PUT
// or GET whose key components do not hash to the path's content address
// is rejected, so a buggy client cannot publish an entry under a key
// other replicas would trust.
func TestRemoteServerValidatesAddress(t *testing.T) {
	back := NewMemory(0)
	ts := newCacheTS(t, back)

	data, _ := json.Marshal(result("evil"))
	// Claim the ID of one key while sending another key's components.
	req, _ := http.NewRequest(http.MethodPut,
		ts.URL+"/entry/"+fkey("fX", "ck").ID()+"?fh=fY&ck=ck&eng=eng",
		strings.NewReader(string(data)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched key accepted: status %d", resp.StatusCode)
	}
	if back.Stats().Puts != 0 {
		t.Fatal("mismatched key reached the backing store")
	}
}

// TestRemoteServerRejectsCorruptPut: bytes that do not decode as an
// engine.Result never enter the shared store.
func TestRemoteServerRejectsCorruptPut(t *testing.T) {
	back := NewMemory(0)
	ts := newCacheTS(t, back)
	k := fkey("fX", "ck")
	req, _ := http.NewRequest(http.MethodPut,
		ts.URL+"/entry/"+k.ID()+"?fh="+k.FuncHash+"&ck="+k.CheckerFP+"&eng="+k.EngineFP,
		strings.NewReader(`{"Reports": "not-a-list"`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt body accepted: status %d", resp.StatusCode)
	}
	if back.Stats().Puts != 0 {
		t.Fatal("corrupt body reached the backing store")
	}
}

// TestRemoteServerRejectsUncacheablePut: the engine-wide invariant that
// timed-out and canceled results are never cached holds at the shared
// tier too — a single non-conforming client must not be able to poison
// every replica's warm hits with truncated results.
func TestRemoteServerRejectsUncacheablePut(t *testing.T) {
	back := NewMemory(0)
	ts := newCacheTS(t, back)
	for name, res := range map[string]*engine.Result{
		"timed-out": {Truncated: true, TimedOut: true},
		"canceled":  {Truncated: true, Canceled: true},
	} {
		k := fkey("fX", "ck")
		data, _ := json.Marshal(res)
		req, _ := http.NewRequest(http.MethodPut,
			ts.URL+"/entry/"+k.ID()+"?fh="+k.FuncHash+"&ck="+k.CheckerFP+"&eng="+k.EngineFP,
			strings.NewReader(string(data)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s result accepted: status %d", name, resp.StatusCode)
		}
	}
	if back.Stats().Puts != 0 {
		t.Fatal("uncacheable result reached the backing store")
	}
	// The client side never even sends one.
	r := newRemote(t, ts.URL, RemoteConfig{})
	r.Put(bg, fkey("fX", "ck"), &engine.Result{Truncated: true, TimedOut: true})
	if rs := r.RemoteStats(); rs.Puts != 0 || rs.Errors != 0 {
		t.Fatalf("client sent an uncacheable result: %+v", rs)
	}
}

// TestRemoteFlaggedEntryIsMiss: an old or foreign daemon that serves a
// timed-out/canceled entry anyway is treated as a healthy miss — the
// truncation must not propagate, but the daemon did answer, so the
// breaker stays closed.
func TestRemoteFlaggedEntryIsMiss(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&engine.Result{Truncated: true, TimedOut: true})
	}))
	t.Cleanup(ts.Close)
	r := newRemote(t, ts.URL, RemoteConfig{})
	if _, ok := r.Get(bg, key(1)); ok {
		t.Fatal("flagged entry served as a hit")
	}
	rs := r.RemoteStats()
	if rs.Misses != 1 || rs.Errors != 0 || rs.BreakerOpen {
		t.Fatalf("flagged entry mis-accounted: %+v", rs)
	}
}

// TestRemoteDownIsMissNotError: with nothing listening, every operation
// degrades to a miss/no-op and the client never panics or blocks.
func TestRemoteDownIsMissNotError(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close() // nothing listening at url now

	r := newRemote(t, url, RemoteConfig{Timeout: 200 * time.Millisecond})
	if _, ok := r.Get(bg, key(1)); ok {
		t.Fatal("dead daemon produced a hit")
	}
	r.Put(bg, key(1), result("one")) // must not panic
	if n := r.InvalidateFuncs([]string{"fA"}); n != 0 {
		t.Fatalf("dead daemon invalidated %d entries", n)
	}
	rs := r.RemoteStats()
	if rs.Errors == 0 {
		t.Fatal("failed round-trips not counted")
	}
}

// TestRemoteCorruptPayloadIsMiss: a daemon answering 200 with garbage is
// a miss on the client, and counts toward the breaker.
func TestRemoteCorruptPayloadIsMiss(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"Reports": "garbage`))
	}))
	t.Cleanup(ts.Close)
	r := newRemote(t, ts.URL, RemoteConfig{})
	if _, ok := r.Get(bg, key(1)); ok {
		t.Fatal("corrupt payload produced a hit")
	}
	if rs := r.RemoteStats(); rs.Errors != 1 {
		t.Fatalf("corrupt payload counted %d errors, want 1", rs.Errors)
	}
}

// TestRemoteTimeoutIsMiss: a daemon slower than the request budget is a
// miss, bounded by the timeout.
func TestRemoteTimeoutIsMiss(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	t.Cleanup(func() { close(release); ts.Close() })
	r := newRemote(t, ts.URL, RemoteConfig{Timeout: 50 * time.Millisecond})
	start := time.Now()
	if _, ok := r.Get(bg, key(1)); ok {
		t.Fatal("stalled daemon produced a hit")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timed-out Get took %s", elapsed)
	}
	if rs := r.RemoteStats(); rs.Errors != 1 {
		t.Fatalf("timeout counted %d errors, want 1", rs.Errors)
	}
}

// TestRemoteBreakerOpensAndRecloses drives the full circuit: consecutive
// failures open it (stopping traffic to the daemon), the cooldown lets a
// probe through, and a healthy daemon closes it again.
func TestRemoteBreakerOpensAndRecloses(t *testing.T) {
	var healthy atomic.Bool
	var requests atomic.Int64
	back := NewMemory(0)
	inner := NewCacheServer(back).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	r := newRemote(t, ts.URL, RemoteConfig{
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
	})

	// Trip the breaker.
	for i := 0; i < 3; i++ {
		if _, ok := r.Get(bg, key(1)); ok {
			t.Fatal("unhealthy daemon produced a hit")
		}
	}
	rs := r.RemoteStats()
	if !rs.BreakerOpen || rs.BreakerOpens != 1 {
		t.Fatalf("breaker after 3 failures: %+v", rs)
	}

	// While open (within cooldown), requests short-circuit locally.
	before := requests.Load()
	for i := 0; i < 10; i++ {
		r.Get(bg, key(1))
	}
	if got := requests.Load(); got != before {
		t.Fatalf("open breaker let %d requests through", got-before)
	}

	// Past the cooldown with the daemon still down: one probe goes out,
	// fails, and re-opens the circuit.
	time.Sleep(60 * time.Millisecond)
	before = requests.Load()
	r.Get(bg, key(1))
	r.Get(bg, key(1))
	if got := requests.Load() - before; got != 1 {
		t.Fatalf("half-open breaker sent %d requests, want 1 probe", got)
	}

	// Heal the daemon, wait out the cooldown: the probe succeeds (a 404
	// miss is a healthy answer) and the breaker closes for good.
	healthy.Store(true)
	time.Sleep(60 * time.Millisecond)
	if _, ok := r.Get(bg, key(1)); ok {
		t.Fatal("hit on an entry never stored")
	}
	if rs := r.RemoteStats(); rs.BreakerOpen {
		t.Fatalf("breaker still open after healthy probe: %+v", rs)
	}
	r.Put(bg, key(1), result("one"))
	if _, ok := r.Get(bg, key(1)); !ok {
		t.Fatal("recovered daemon missed a stored entry")
	}
}

// TestRemoteBadURL: constructor rejects what can never work.
func TestRemoteBadURL(t *testing.T) {
	if _, err := NewRemote("not-a-url", RemoteConfig{}); err == nil {
		t.Fatal("scheme-less URL accepted")
	}
	if _, err := NewRemote("ftp://host", RemoteConfig{}); err == nil {
		t.Fatal("non-http scheme accepted")
	}
}
