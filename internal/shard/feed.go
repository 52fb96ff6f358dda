package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
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
	entries []api.FeedEntry // ascending by generation
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

// errFeedConflict is Publish's answer to an entry whose generation the
// feed holds with other changes: two coordinators committed the same
// generation, and the fleet has diverged.
var errFeedConflict = errors.New("feed: conflicting entry")

// Publish inserts one committed changeset in generation order. Publishing
// a generation the feed already has is idempotent when the changes are
// the same and refused when they differ: a peer follows whichever of
// the two reaches it first, so the feed keeps the first and reports the
// second. An entry without changes is refused: every generation is a
// commit, and a peer replaying an empty one would fail it on every
// later converge. Once the feed holds cap entries, each insert drops the
// oldest in place.
func (f *Feed) Publish(e api.FeedEntry) error {
	if e.Generation <= 0 {
		return fmt.Errorf("feed: generation must be > 0, got %d", e.Generation)
	}
	if len(e.Changes) == 0 {
		return fmt.Errorf("feed: generation %d has no changes", e.Generation)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.search(e.Generation)
	if i < len(f.entries) && f.entries[i].Generation == e.Generation {
		if !slices.Equal(f.entries[i].Changes, e.Changes) {
			return fmt.Errorf("%w: generation %d is already published with other changes", errFeedConflict, e.Generation)
		}
		return nil
	}
	f.entries = slices.Insert(f.entries, i, e)
	if n := len(f.entries) - f.cap; n > 0 {
		kept := copy(f.entries, f.entries[n:])
		clear(f.entries[kept:])
		f.entries = f.entries[:kept]
	}
	if e.Generation > f.latest {
		f.latest = e.Generation
	}
	f.published++
	return nil
}

// search returns the index of the first retained entry with generation
// >= gen.
func (f *Feed) search(gen int64) int {
	return sort.Search(len(f.entries), func(i int) bool { return f.entries[i].Generation >= gen })
}

// Since returns the retained entries with generation > from, ascending.
func (f *Feed) Since(from int64) api.FeedPage {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.served++
	page := api.FeedPage{Latest: f.latest}
	if rest := f.entries[f.search(from+1):]; len(rest) > 0 {
		page.Entries = slices.Clone(rest)
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
//	POST /feed    {"generation": N, "changes": [...]}  -> 204 (409: N held with other changes)
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
			code := http.StatusBadRequest
			if errors.Is(err, errFeedConflict) {
				code = http.StatusConflict
			}
			http.Error(w, err.Error(), code)
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
// -cache-remote URL), trailing slashes trimmed. Each call is bounded by
// 5s.
func NewFeedClient(base string) *FeedClient {
	return &FeedClient{base: strings.TrimRight(base, "/"), client: &http.Client{Timeout: 5 * time.Second}}
}

// Publish posts one committed changeset, entry, an api.FeedEntry
// already encoded as JSON (a committing coordinator encodes it once, for
// the feed and for every nudge). Only the feed's own 204 counts as
// published: any other answer — a redirect the client followed as a GET,
// a 409 for a conflicting entry — is an error.
func (c *FeedClient) Publish(ctx context.Context, entry []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/feed", bytes.NewReader(entry))
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
	if resp.StatusCode != http.StatusNoContent {
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
