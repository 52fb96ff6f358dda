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
// so the daemon is nothing more than a store with a socket in front.
//
// The tier is strictly best-effort, like the disk tier: every failure mode — the
// daemon down, a request timing out, a corrupt payload, the circuit
// breaker open — degrades to a cache miss, never to a request error, so
// a replica whose kcached disappears keeps serving from its local tiers
// with zero failed scans. A circuit breaker bounds the cost of a dead or
// slow daemon: after BreakerThreshold consecutive failures the tier
// stops issuing requests for BreakerCooldown, then lets a single probe
// through to test recovery.
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

// entryURL addresses one entry: the content address is the path, and the
// key components ride as query parameters so the daemon can (a) verify
// the address and (b) shard storage by function hash exactly like the
// local disk tier.
func (r *Remote) entryURL(k Key) string {
	q := url.Values{}
	q.Set("fh", k.FuncHash)
	q.Set("ck", k.CheckerFP)
	q.Set("eng", k.EngineFP)
	return r.base + "/entry/" + k.ID() + "?" + q.Encode()
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

// success records a healthy round-trip (including a 404 miss — the
// daemon answered), closing the breaker.
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

// newRequest builds one round-trip's request, carrying the caller's
// trace id and parent span id (if any) so the kcached access log — and
// its trace-store fragment — can be stitched under the originating
// kserve request's span tree.
func (r *Remote) newRequest(ctx context.Context, method, url string, body io.Reader) (*http.Request, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	obs.InjectHeaders(ctx, req.Header)
	return req, nil
}

// Get implements Store. Any failure is a miss. The caller's context
// both propagates the trace id and aborts the network wait when the
// caller is gone — a cancellation-aborted Get is a miss that does NOT
// count against the breaker (the daemon did nothing wrong; the client
// hung up).
func (r *Remote) Get(ctx context.Context, k Key) (*engine.Result, bool) {
	if !r.allow() {
		r.count(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	req, err := r.newRequest(ctx, http.MethodGet, r.entryURL(k), nil)
	if err != nil {
		r.abandon()
		r.count(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		if req.Context().Err() != nil {
			// Aborted by the caller, not failed by the daemon: release the
			// probe slot without moving the breaker either way.
			r.abandon()
		} else {
			r.failure()
		}
		r.count(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		r.success()
		r.count(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		r.failure()
		r.count(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	var res engine.Result
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxEntryBytes)).Decode(&res); err != nil {
		// A 200 carrying garbage is a daemon fault, not a miss on its
		// part — count it against the breaker so a corrupting proxy or
		// half-dead daemon gets cut off like a dead one.
		r.failure()
		r.count(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	if res.TimedOut || res.Canceled {
		// The daemon rejects these at Put, but an old or foreign daemon
		// might not: a truncated result is uncacheable by the engine-wide
		// invariant, so serving it as a hit would propagate one caller's
		// timeout to every replica. The daemon did answer — a healthy
		// round-trip, just an unusable entry.
		r.success()
		r.count(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	r.success()
	r.count(func(s *Stats) { s.Hits++ })
	return &res, true
}

// Put implements Store. Best-effort: failures are dropped silently
// (beyond breaker accounting). Timed-out and canceled results are never
// sent — the daemon would reject them with a 400 that counts against
// our breaker. The publish deliberately detaches from the caller's
// cancellation (keeping its trace id): the computed bytes are valid for
// the whole fleet even if this caller just disconnected, and an aborted
// publish would read as a daemon failure to the breaker.
func (r *Remote) Put(ctx context.Context, k Key, res *engine.Result) {
	if res == nil || res.TimedOut || res.Canceled || !r.allow() {
		return
	}
	data, err := json.Marshal(res)
	if err != nil {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := r.newRequest(context.WithoutCancel(ctx), http.MethodPut, r.entryURL(k), bytes.NewReader(data))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		r.failure()
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		r.failure()
		return
	}
	r.success()
	r.count(func(s *Stats) { s.Puts++ })
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
