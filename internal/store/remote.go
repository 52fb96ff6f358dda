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
// so the daemon is nothing more than a store with a socket in front. It
// is a batch tier: a range's keys go out as one POST /entries/get and
// its results as one POST /entries/put, in the binary codec the other
// tiers store; Get and Put are the one-key case.
//
// The tier is strictly best-effort, like the disk tier: every failure
// mode — the daemon down, a request timing out, a non-2xx status, a
// corrupt or oversized reply, the circuit breaker open — degrades to a
// cache miss, never to a request error, so a replica whose kcached
// disappears keeps serving from its local tiers with zero failed scans.
// A circuit breaker bounds the cost of a dead or slow daemon: after
// BreakerThreshold consecutive failures the tier stops issuing requests
// for BreakerCooldown, then lets a single probe through to test
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

	threshold int
	cooldown  time.Duration
}

// RemoteConfig tunes the client; zero values select the defaults.
type RemoteConfig struct {
	// Timeout bounds one round-trip (default 2s). A slow kcached must
	// cost less than recomputing the result it would have returned.
	Timeout time.Duration
	// MaxConns bounds the connection pool to the daemon (default 16), so
	// a wide scan's miss storm cannot exhaust file descriptors.
	MaxConns int
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long the circuit stays open before a probe
	// is allowed through (default 5s).
	BreakerCooldown time.Duration
}

func (c RemoteConfig) withDefaults() RemoteConfig {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 16
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return c
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
	cfg = cfg.withDefaults()
	return &Remote{
		base: strings.TrimRight(baseURL, "/"),
		client: &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     cfg.MaxConns,
				MaxIdleConnsPerHost: cfg.MaxConns,
				IdleConnTimeout:     30 * time.Second,
			},
		},
		threshold: cfg.BreakerThreshold,
		cooldown:  cfg.BreakerCooldown,
	}, nil
}

// allow reports whether the breaker permits a request right now.
func (r *Remote) allow() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.consecFails < r.threshold {
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
	if r.consecFails >= r.threshold {
		if r.consecFails == r.threshold || time.Now().After(r.openUntil) {
			r.breakerOpens++
		}
		r.openUntil = time.Now().Add(r.cooldown)
	}
	r.mu.Unlock()
}

// post sends one entry-route body and returns the reply, or ok=false.
// A failed round trip gets its breaker verdict here: a caller that
// canceled mid-flight only releases its slot (kcached did nothing
// wrong), anything else counts as a failure. A delivered reply gets its
// verdict from the caller, who alone can tell a corrupt one. The
// request carries the caller's trace id and parent span id, so
// kcached's access log and trace fragment join the originating kserve
// request's span tree.
func (r *Remote) post(ctx context.Context, path string, body []byte) ([]byte, bool) {
	if !r.allow() {
		return nil, false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, bytes.NewReader(body))
	if err != nil {
		r.abandon()
		return nil, false
	}
	obs.InjectHeaders(ctx, req.Header)
	req.Header.Set("Content-Type", "application/octet-stream")
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

// Get implements Store: the one-key GetMany.
func (r *Remote) Get(ctx context.Context, k Key) (*engine.Result, bool) {
	var out [1]*engine.Result
	r.GetMany(ctx, []Key{k}, nil, out[:])
	return out[0], out[0] != nil
}

// GetMany implements BatchGetter: one POST /entries/get carries the
// whole range, and any failure leaves every key a miss. The digests are
// not sent — kcached derives every address from the key components. The
// caller's context both propagates the trace id and aborts the network
// wait when the caller is gone; an aborted round trip is a miss that
// does NOT count against the breaker.
func (r *Remote) GetMany(ctx context.Context, keys []Key, _ []Digest, out []*engine.Result) {
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
	if reply, ok := r.post(ctx, "/entries/get", body); ok {
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
// key, empty for a miss, else a record. ok is false if the reply is not
// exactly that.
func decodeEntries(reply []byte, out []*engine.Result) (hits int, ok bool) {
	d := &codecReader{buf: reply}
	for i := range out {
		rec := d.frame()
		if d.err != nil {
			return 0, false
		}
		if len(rec) == 0 {
			continue
		}
		res, err := decodeResult(rec)
		if err != nil {
			return 0, false
		}
		if res.TimedOut || res.Canceled {
			// kcached rejects these at put, but an old or foreign daemon
			// might not: a truncated result is uncacheable by the
			// engine-wide invariant, so serving it as a hit would
			// propagate one caller's timeout to every replica. The daemon
			// did answer; the entry is just unusable.
			continue
		}
		out[i] = res
		hits++
	}
	if len(d.buf) != 0 {
		return 0, false
	}
	return hits, true
}

// Put implements Store: the one-key PutMany.
func (r *Remote) Put(ctx context.Context, k Key, res *engine.Result) {
	r.PutMany(ctx, []Key{k}, nil, []*engine.Result{res})
}

// PutMany implements BatchPutter: the range's results go to kcached as
// POST /entries/put bodies of at most maxEntryBytes — one for any real
// range. Best-effort: failures are dropped silently (beyond breaker
// accounting). Timed-out and canceled results are never sent — the
// daemon would reject the whole body with a 400 that counts against our
// breaker. The publish deliberately detaches from the caller's
// cancellation (keeping its trace id): the computed bytes are valid for
// the whole fleet even if this caller just disconnected, and an aborted
// publish would read as a daemon failure to the breaker.
func (r *Remote) PutMany(ctx context.Context, keys []Key, _ []Digest, rs []*engine.Result) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx = context.WithoutCancel(ctx)
	var body []byte
	n := 0 // entries in body
	for i, res := range rs {
		if res == nil || res.TimedOut || res.Canceled {
			continue
		}
		mark := len(body)
		body = appendFrame(appendKey(body, keys[i]), encodeResult(res))
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
	if _, ok := r.post(ctx, "/entries/put", body); ok {
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
	if len(funcHashes) == 0 || !r.allow() {
		return 0
	}
	data, err := json.Marshal(invalidateRequest{FuncHashes: funcHashes})
	if err != nil {
		return 0
	}
	resp, err := r.client.Post(r.base+"/invalidate", "application/json", bytes.NewReader(data))
	if err != nil {
		r.failure()
		return 0
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		r.failure()
		return 0
	}
	var out invalidateResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out); err != nil {
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
		BreakerOpen:  r.consecFails >= r.threshold && !(time.Now().After(r.openUntil) && !r.probing),
	}
}

func (r *Remote) count(f func(*Stats)) {
	r.mu.Lock()
	f(&r.stats)
	r.mu.Unlock()
}
