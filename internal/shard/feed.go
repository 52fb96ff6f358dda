package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"knighter/internal/api"
	"knighter/internal/obs"
)

// DefaultFeedCap bounds the generation feed's retained entries. A
// shard that falls further behind than the retention window cannot
// converge from the feed alone and keeps 409ing sub-scans — the
// operator signal to reseed it.
const DefaultFeedCap = 1024

// Feed is the fleet's generation feed: an ordered, bounded ledger of
// committed changesets, served by kcached so a sharded fleet has one
// place to publish commits and one place to pull missed ones from. It
// is not a consensus log — coordinators apply locally first and
// publish after — but with writes routed through coordinators it gives
// every shard the same generation history in the same order.
type Feed struct {
	mu      sync.Mutex
	entries []api.FeedEntry // ascending, contiguous-by-arrival
	latest  int64
	cap     int
	// published/served count feed traffic for /metrics.
	published int64
	served    int64
}

// NewFeed returns a feed retaining up to capN entries (<= 0 uses
// DefaultFeedCap).
func NewFeed(capN int) *Feed {
	if capN <= 0 {
		capN = DefaultFeedCap
	}
	return &Feed{cap: capN}
}

// Publish appends one committed changeset. Publishing a generation the
// feed already has is idempotent (first writer wins); out-of-order
// generations are accepted and kept sorted by insertion point being the
// tail in practice — coordinators publish immediately after committing.
// An entry without changes is refused: every generation is a commit, and
// a peer replaying an empty one would fail it on every later converge.
func (f *Feed) Publish(e api.FeedEntry) error {
	if e.Generation <= 0 {
		return fmt.Errorf("feed: generation must be > 0, got %d", e.Generation)
	}
	if len(e.Changes) == 0 {
		return fmt.Errorf("feed: generation %d has no changes", e.Generation)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, have := range f.entries {
		if have.Generation == e.Generation {
			return nil
		}
	}
	i := len(f.entries)
	for i > 0 && f.entries[i-1].Generation > e.Generation {
		i--
	}
	f.entries = append(f.entries, api.FeedEntry{})
	copy(f.entries[i+1:], f.entries[i:])
	f.entries[i] = e
	if n := len(f.entries) - f.cap; n > 0 {
		f.entries = append([]api.FeedEntry(nil), f.entries[n:]...)
	}
	if e.Generation > f.latest {
		f.latest = e.Generation
	}
	f.published++
	return nil
}

// Since returns the retained entries with generation > from, ascending.
func (f *Feed) Since(from int64) api.FeedPage {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.served++
	page := api.FeedPage{Latest: f.latest}
	for _, e := range f.entries {
		if e.Generation > from {
			page.Entries = append(page.Entries, e)
		}
	}
	return page
}

// Register publishes the feed's counters on reg (kcached's /metrics).
func (f *Feed) Register(reg *obs.Registry) {
	reg.CounterFunc("feed_publishes_total",
		"Changeset commits published to the generation feed.",
		func() float64 { f.mu.Lock(); defer f.mu.Unlock(); return float64(f.published) })
	reg.CounterFunc("feed_pulls_total",
		"Generation-feed pulls served to converging shards.",
		func() float64 { f.mu.Lock(); defer f.mu.Unlock(); return float64(f.served) })
	reg.GaugeFunc("feed_latest_generation",
		"Highest generation published to the feed.",
		func() float64 { f.mu.Lock(); defer f.mu.Unlock(); return float64(f.latest) })
}

// Handler serves the feed over HTTP:
//
//	POST /feed    {"generation": N, "changes": [...]}  -> 204
//	GET  /feed?from=N                                  -> FeedPage
func (f *Feed) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /feed", func(w http.ResponseWriter, r *http.Request) {
		var e api.FeedEntry
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes)).Decode(&e); err != nil {
			http.Error(w, "feed: bad body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := f.Publish(e); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /feed", func(w http.ResponseWriter, r *http.Request) {
		from, _ := strconv.ParseInt(r.URL.Query().Get("from"), 10, 64)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(f.Since(from))
	})
	return mux
}

// FeedClient talks to a remote feed (the kcached daemon's /feed).
type FeedClient struct {
	base   string
	client *http.Client
}

// NewFeedClient returns a client for the feed at base (e.g. the
// -cache-remote URL). Calls are bounded by timeout (default 5s).
func NewFeedClient(base string, timeout time.Duration) *FeedClient {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &FeedClient{base: base, client: &http.Client{Timeout: timeout}}
}

// Publish posts one committed changeset to the feed.
func (c *FeedClient) Publish(ctx context.Context, e api.FeedEntry) error {
	buf, err := json.Marshal(e)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/feed", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	obs.InjectHeaders(ctx, req.Header)
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("feed publish: %s", resp.Status)
	}
	return nil
}

// Since pulls the entries with generation > from.
func (c *FeedClient) Since(ctx context.Context, from int64) (api.FeedPage, error) {
	var page api.FeedPage
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/feed?from=%d", c.base, from), nil)
	if err != nil {
		return page, err
	}
	obs.InjectHeaders(ctx, req.Header)
	resp, err := c.client.Do(req)
	if err != nil {
		return page, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return page, fmt.Errorf("feed pull: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&page)
	return page, err
}
