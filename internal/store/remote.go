package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"knighter/internal/engine"
	"knighter/internal/obs"
)

// Remote is the network cache tier: an HTTP client for a kcached daemon,
// letting a fleet of kserve replicas share one content-addressed result
// store. It implements Store over the same key space the disk tier uses,
// so the daemon is nothing more than a store with a socket in front. A
// range's keys go out as one POST /entries/get and its results as one
// POST /entries/put, framing the payloads the other tiers store as they
// are; Get and Put are the one-key case, through the codec.
//
// The tier is strictly best-effort, like the disk tier: every failure
// mode — the daemon down, a request timing out, a non-2xx status, a
// corrupt or oversized reply, the circuit breaker open — degrades to a
// cache miss, never to a request error, so a replica whose kcached
// disappears keeps serving from its memory tier, computing what that
// misses, with zero failed scans.
// A circuit breaker bounds the cost of a dead or slow daemon: after
// breakerThreshold consecutive failures the tier stops issuing requests
// for breakerCooldown, then lets a single probe through to test
// recovery. It gets one verdict per round trip, however many keys the
// round trip carried.
type Remote struct {
	base   string
	client *http.Client

	mu sync.Mutex
	// breaker state and counters, guarded by mu.
	consecFails  int
	openUntil    time.Time
	probing      bool
	stats        Stats
	errors       int64
	breakerOpens int64
}

// The breaker opens after breakerThreshold consecutive failures and
// lets a probe through breakerCooldown later (a variable only so tests
// can wait it out in milliseconds). remoteMaxConns bounds the pool of
// connections to the daemon, so a miss storm cannot exhaust file
// descriptors.
const breakerThreshold, remoteMaxConns = 5, 16

var breakerCooldown = 5 * time.Second

// RemoteConfig tunes the client; zero values select the defaults.
type RemoteConfig struct {
	// Timeout bounds one round-trip (default 2s). A slow kcached must
	// cost less than recomputing the result it would have returned.
	Timeout time.Duration
}

// NewRemote returns a remote tier talking to the kcached daemon at
// baseURL (e.g. "http://cache-host:8322").
func NewRemote(baseURL string, cfg RemoteConfig) (*Remote, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("store: remote URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("store: remote URL %q: scheme must be http or https", baseURL)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	return &Remote{
		base: strings.TrimRight(baseURL, "/"),
		client: &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     remoteMaxConns,
				MaxIdleConnsPerHost: remoteMaxConns,
				IdleConnTimeout:     30 * time.Second,
			},
		},
	}, nil
}

// allow reports whether the breaker permits a request right now.
func (r *Remote) allow() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.consecFails < breakerThreshold {
		return true
	}
	// Open. Past the cooldown, let exactly one probe through at a time.
	if time.Now().After(r.openUntil) && !r.probing {
		r.probing = true
		return true
	}
	return false
}

// success records a healthy round-trip (misses included — the daemon
// answered), closing the breaker.
func (r *Remote) success() {
	r.mu.Lock()
	r.consecFails = 0
	r.probing = false
	r.mu.Unlock()
}

// abandon releases a request slot without judging the daemon: the
// caller's context was canceled mid-flight, which says nothing about
// kcached's health, so neither the consecutive-failure count nor the
// probe state should move toward (or away from) opening the breaker.
func (r *Remote) abandon() {
	r.mu.Lock()
	r.probing = false
	r.mu.Unlock()
}

// failure records a failed round-trip, opening the breaker at the
// threshold (and immediately re-opening it when a probe fails).
func (r *Remote) failure() {
	r.mu.Lock()
	r.errors++
	r.consecFails++
	r.probing = false
	if r.consecFails >= breakerThreshold {
		if r.consecFails == breakerThreshold || time.Now().After(r.openUntil) {
			r.breakerOpens++
		}
		r.openUntil = time.Now().Add(breakerCooldown)
	}
	r.mu.Unlock()
}

// post sends one body to a kcached route and returns the reply, or
// ok=false. A failed round trip gets its breaker verdict here: a caller
// that canceled mid-flight only releases its slot (kcached did nothing
// wrong), anything else counts as a failure. A delivered reply gets its
// verdict from the caller, who alone can tell a corrupt one. The
// request carries the caller's trace id and parent span id, so
// kcached's access log and trace fragment join the originating kserve
// request's span tree.
func (r *Remote) post(ctx context.Context, path, contentType string, body []byte) ([]byte, bool) {
	if !r.allow() {
		return nil, false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, bytes.NewReader(body))
	if err != nil {
		r.abandon()
		return nil, false
	}
	obs.InjectHeaders(ctx, req.Header)
	req.Header.Set("Content-Type", contentType)
	resp, err := r.client.Do(req)
	var reply []byte
	if err == nil {
		reply, err = io.ReadAll(io.LimitReader(resp.Body, int64(maxEntryBytes)+1))
		resp.Body.Close()
	}
	switch {
	case err == nil && resp.StatusCode/100 == 2 && len(reply) <= maxEntryBytes:
		return reply, true
	case ctx.Err() != nil:
		r.abandon()
	default:
		r.failure()
	}
	return nil, false
}

// Get is the one-key GetMany, decoded (getOne).
func (r *Remote) Get(ctx context.Context, k Key) (*engine.Result, bool) {
	return getOne(ctx, r, k)
}

// GetMany implements Store: one POST /entries/get carries the
// whole range, and any failure leaves every key a miss. The digests are
// not sent — kcached derives every address from the key components. The
// caller's context both propagates the trace id and aborts the network
// wait when the caller is gone; an aborted round trip is a miss that
// does NOT count against the breaker.
func (r *Remote) GetMany(ctx context.Context, keys []Key, _ []Digest, out [][]byte) {
	clear(out)
	if len(keys) == 0 {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var body []byte
	for _, k := range keys {
		body = appendKey(body, k)
	}
	hits := 0
	if reply, ok := r.post(ctx, "/entries/get", "application/octet-stream", body); ok {
		if hits, ok = decodeEntries(reply, out); ok {
			r.success()
		} else {
			// A 200 carrying garbage is a daemon fault, not a miss on its
			// part: count it against the breaker, so a corrupting proxy or
			// a half-dead daemon gets cut off like a dead one.
			clear(out)
			r.failure()
		}
	}
	r.count(func(s *Stats) {
		s.Hits += int64(hits)
		s.Misses += int64(len(keys) - hits)
	})
}

// decodeEntries parses a POST /entries/get reply into out: one frame per
// key, empty for a miss, else a record. A record under another format
// tag is a miss too, as in every tier — a kcached not yet restarted onto
// this codec still holds old ones — and any other must pass the strict
// decode. Each hit is a private copy of its record, so an entry the
// caller keeps never pins the reply. ok is false if the reply is not
// exactly that.
func decodeEntries(reply []byte, out [][]byte) (hits int, ok bool) {
	d := &codecReader{buf: reply}
	var scratch engine.Result
	for i := range out {
		rec := d.frame()
		if d.err != nil {
			return 0, false
		}
		if len(rec) == 0 || rec[0] != resultCodec {
			continue
		}
		if DecodeInto(&scratch, rec) != nil {
			return 0, false
		}
		out[i] = bytes.Clone(rec)
		hits++
	}
	if len(d.buf) != 0 {
		return 0, false
	}
	return hits, true
}

// Put is the one-key PutMany, encoding res. A result Encode writes no
// payload for is not sent.
func (r *Remote) Put(ctx context.Context, k Key, res *engine.Result) {
	r.PutMany(ctx, []Key{k}, nil, [][]byte{Encode(res)})
}

// PutMany implements Store: the range's payloads go to kcached as given,
// framed into POST /entries/put bodies of at most maxEntryBytes — one
// for any real range. Best-effort: failures are dropped silently
// (beyond breaker accounting). kcached rejects a body holding a record
// that fails its strict decode with a 400 that counts against the
// breaker. The publish deliberately detaches from the caller's
// cancellation (keeping its trace id): the computed bytes are valid for
// the whole fleet even if this caller just disconnected, and an aborted
// publish would read as a daemon failure to the breaker. An empty
// payload is skipped.
func (r *Remote) PutMany(ctx context.Context, keys []Key, _ []Digest, payloads [][]byte) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx = context.WithoutCancel(ctx)
	var body []byte
	n := 0 // entries in body
	for i, p := range payloads {
		if len(p) == 0 {
			continue
		}
		mark := len(body)
		body = appendFrame(appendKey(body, keys[i]), p)
		if len(body) > maxEntryBytes && n > 0 {
			// Past the cap: send the entries before this one, and start
			// the next body with it.
			r.putBody(ctx, body[:mark], n)
			body, n = body[:copy(body, body[mark:])], 0
		}
		if len(body) > maxEntryBytes { // one entry alone can never be sent
			body = body[:0]
			continue
		}
		n++
	}
	if n > 0 {
		r.putBody(ctx, body, n)
	}
}

// putBody sends one POST /entries/put body of n entries.
func (r *Remote) putBody(ctx context.Context, body []byte, n int) {
	if _, ok := r.post(ctx, "/entries/put", "application/octet-stream", body); ok {
		r.success()
		r.count(func(s *Stats) { s.Puts += int64(n) })
	}
}

// invalidateRequest is the POST /invalidate wire format.
type invalidateRequest struct {
	FuncHashes []string `json:"func_hashes"`
}

// invalidateResponse is its reply.
type invalidateResponse struct {
	Invalidated int `json:"invalidated"`
}

// InvalidateFuncs implements Store: one POST carries the whole
// orphan set. Best-effort like everything else here — if the daemon is
// unreachable the entries stay as garbage under unreachable keys (content
// addressing means they can never be served stale) until its GC ages
// them out.
func (r *Remote) InvalidateFuncs(funcHashes []string) int {
	if len(funcHashes) == 0 {
		return 0
	}
	data, err := json.Marshal(invalidateRequest{FuncHashes: funcHashes})
	if err != nil {
		return 0
	}
	reply, ok := r.post(context.Background(), "/invalidate", "application/json", data)
	if !ok {
		return 0
	}
	var out invalidateResponse
	if err := json.Unmarshal(reply, &out); err != nil {
		r.failure()
		return 0
	}
	r.success()
	r.count(func(s *Stats) { s.Invalidated += int64(out.Invalidated) })
	return out.Invalidated
}

// Stats implements Store. Entries/Bytes are always zero — the daemon
// owns them; RemoteStats carries the client-side health counters.
func (r *Remote) Stats() Stats {
	r.mu.Lock()
	s := r.stats
	r.mu.Unlock()
	return s
}

// RemoteStats is the client-side view of the network tier's health.
type RemoteStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	Invalidated int64 `json:"invalidated"`
	// Errors counts failed round-trips of any kind (connection refused,
	// timeout, non-2xx, corrupt payload). Every one surfaced as a miss.
	Errors int64 `json:"errors"`
	// BreakerOpens counts closed→open transitions; BreakerOpen is the
	// instantaneous state.
	BreakerOpens int64 `json:"breaker_opens"`
	BreakerOpen  bool  `json:"breaker_open"`
}

// RemoteStats snapshots the health counters.
func (r *Remote) RemoteStats() RemoteStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RemoteStats{
		Hits:         r.stats.Hits,
		Misses:       r.stats.Misses,
		Puts:         r.stats.Puts,
		Invalidated:  r.stats.Invalidated,
		Errors:       r.errors,
		BreakerOpens: r.breakerOpens,
		BreakerOpen:  r.consecFails >= breakerThreshold && !(time.Now().After(r.openUntil) && !r.probing),
	}
}

func (r *Remote) count(f func(*Stats)) {
	r.mu.Lock()
	f(&r.stats)
	r.mu.Unlock()
}
