package store

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
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

// postEntries sends a raw body to an entry route and returns the status.
func postEntries(t *testing.T, url, route string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url+route, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// putFrame is one entry of a POST /entries/put body.
func putFrame(k Key, res *engine.Result) []byte {
	return appendFrame(appendKey(nil, k), encodeResult(res))
}

// TestRemoteServerValidatesAddress pins the anti-poisoning rule: a
// client sends key components, never an address, and the server derives
// the address from them — so an entry lands exactly where a reader of
// those components looks, and nowhere else. A key without a function
// hash is rejected.
func TestRemoteServerValidatesAddress(t *testing.T) {
	back := NewMemory(0)
	ts := newCacheTS(t, back)
	if code := postEntries(t, ts.URL, "/entries/put", putFrame(fkey("fY", "ck"), result("y"))); code != http.StatusNoContent {
		t.Fatalf("put = %d", code)
	}
	got := make([]*engine.Result, 2)
	back.GetMany(bg, nil, []Digest{fkey("fY", "ck").Digest(), fkey("fX", "ck").Digest()}, got)
	if got[0] == nil || got[1] != nil || back.Stats().Entries != 1 {
		t.Fatalf("entry not stored at the address its components hash to: %v", got)
	}
	for route, body := range map[string][]byte{
		"/entries/put": putFrame(Key{CheckerFP: "ck", EngineFP: "eng"}, result("evil")),
		"/entries/get": appendKey(nil, Key{CheckerFP: "ck", EngineFP: "eng"}),
	} {
		if code := postEntries(t, ts.URL, route, body); code != http.StatusBadRequest {
			t.Fatalf("%s without a function hash = %d, want 400", route, code)
		}
	}
	if back.Stats().Puts != 1 {
		t.Fatal("a key without a function hash reached the backing store")
	}
}

// TestRemoteServerRejectsCorruptPut: a put body is stored whole or not
// at all — a body with any frame that is not a key and a strictly
// decodable record is a 400, and not even its valid entries enter the
// shared store.
func TestRemoteServerRejectsCorruptPut(t *testing.T) {
	back := NewMemory(0)
	ts := newCacheTS(t, back)
	good := putFrame(fkey("fX", "ck"), result("x"))
	for name, body := range map[string][]byte{
		"empty":              nil,
		"truncated":          good[:len(good)-1],
		"trailing byte":      append(slices.Clone(good), 0),
		"record not codec":   append(slices.Clone(good), appendFrame(appendKey(nil, fkey("fY", "ck")), []byte(`{"Reports": "not-a-list"`))...),
		"key without record": append(slices.Clone(good), appendKey(nil, fkey("fY", "ck"))...),
	} {
		if code := postEntries(t, ts.URL, "/entries/put", body); code != http.StatusBadRequest {
			t.Fatalf("%s body accepted: status %d", name, code)
		}
	}
	if back.Stats().Puts != 0 {
		t.Fatal("a corrupt body reached the backing store")
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
		// Alone, and behind a valid entry: the body is refused whole.
		body := putFrame(fkey("fX", "ck"), res)
		for _, b := range [][]byte{body, append(putFrame(fkey("fY", "ck"), result("y")), body...)} {
			if code := postEntries(t, ts.URL, "/entries/put", b); code != http.StatusBadRequest {
				t.Fatalf("%s result accepted: status %d", name, code)
			}
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
		w.Write(appendFrame(nil, encodeResult(&engine.Result{Truncated: true, TimedOut: true})))
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

// TestRemoteCorruptPayloadIsMiss: a daemon answering 200 with anything
// but one frame per key — garbage, a frame short or over, a record that
// fails the strict decode — or with a reply over the bound, is a miss
// for every key of the round trip, and one error toward the breaker.
func TestRemoteCorruptPayloadIsMiss(t *testing.T) {
	withMaxEntryBytes(t, 1<<10)
	rec := encodeResult(result("one"))
	for name, reply := range map[string][]byte{
		"garbage":        []byte(`{"Reports": "garbage`),
		"frame short":    appendFrame(nil, rec),
		"frame over":     appendFrame(appendFrame(appendFrame(nil, rec), nil), nil),
		"corrupt record": appendFrame(appendFrame(nil, rec[:len(rec)-1]), nil),
		"oversized":      appendFrame(appendFrame(nil, rec), make([]byte, 1<<10)),
	} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write(reply)
			}))
			t.Cleanup(ts.Close)
			r := newRemote(t, ts.URL, RemoteConfig{})
			out := make([]*engine.Result, 2)
			r.GetMany(bg, []Key{key(1), key(2)}, nil, out)
			if out[0] != nil || out[1] != nil {
				t.Fatal("corrupt reply produced a hit")
			}
			if rs := r.RemoteStats(); rs.Errors != 1 || rs.Misses != 2 {
				t.Fatalf("corrupt reply counted %+v, want 1 error and 2 misses", rs)
			}
		})
	}
}

// withMaxEntryBytes lowers the entry routes' body bound for one test.
// Register it before the test's servers, so they close first.
func withMaxEntryBytes(t *testing.T, n int) {
	old := maxEntryBytes
	maxEntryBytes = n
	t.Cleanup(func() { maxEntryBytes = old })
}

// TestRemoteBatchesPerRoundTrip: a range of keys is one POST
// /entries/get and its results one POST /entries/put, counted per key on
// both sides; a put list over the body bound is split into bodies within
// it, and an entry that alone exceeds it is dropped, not sent.
func TestRemoteBatchesPerRoundTrip(t *testing.T) {
	withMaxEntryBytes(t, 4<<10)
	back := NewMemory(0)
	cs := NewCacheServer(back)
	inner := cs.Handler()
	var gets, puts atomic.Int64
	var biggest atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/entries/get":
			gets.Add(1)
		case "/entries/put":
			puts.Add(1)
			if r.ContentLength > biggest.Load() {
				biggest.Store(r.ContentLength)
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	r := newRemote(t, ts.URL, RemoteConfig{})

	var keys []Key
	var rs []*engine.Result
	for i := byte(0); i < 40; i++ {
		keys = append(keys, key(i))
		rs = append(rs, result(strings.Repeat("m", 300)))
	}
	// An entry over the bound on its own, mid-list.
	keys = append(keys, key(99))
	rs = append(rs, result(strings.Repeat("x", 8<<10)))
	keys = append(keys, key(40))
	rs = append(rs, result("last"))
	r.PutMany(bg, keys, nil, rs)
	if n := puts.Load(); n < 3 || biggest.Load() > 4<<10 {
		t.Fatalf("41 entries of ~330 B sent in %d bodies, the biggest %d B; want several, each <= 4 KiB", n, biggest.Load())
	}
	if rs := r.RemoteStats(); rs.Puts != 41 || rs.Errors != 0 {
		t.Fatalf("client books after the split put: %+v", rs)
	}
	if st := cs.puts.Load(); st != 41 || back.Stats().Entries != 41 {
		t.Fatalf("server counted %d puts and holds %d entries, want 41", st, back.Stats().Entries)
	}

	out := make([]*engine.Result, 3)
	r.GetMany(bg, []Key{key(0), key(99), key(40)}, nil, out)
	if gets.Load() != 1 || out[0] == nil || out[1] != nil || out[2] == nil || out[2].Reports[0].Message != "last" {
		t.Fatalf("%d get requests, results %v", gets.Load(), out)
	}
	if rs := r.RemoteStats(); rs.Hits != 2 || rs.Misses != 1 {
		t.Fatalf("client books after the get: %+v", rs)
	}
	if cs.gets.Load() != 3 {
		t.Fatalf("server counted %d gets, want 3", cs.gets.Load())
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
