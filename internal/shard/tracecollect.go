package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"knighter/internal/obs"
)

// TraceCollector gathers a trace's fragments from the rest of the fleet
// — the scatter side of GET /trace/{id}. It reuses the shard fan-out
// shape (concurrent sub-requests, per-peer timeout) but is deliberately
// best-effort everywhere: a peer that is down, answers slowly, or
// sampled the trace out simply contributes nothing, and the assembled
// tree reports the gap as an orphaned subtree instead of failing the
// request.
type TraceCollector struct {
	targets []string
	client  *http.Client
}

// perPeerTimeout bounds each fragment fetch.
const perPeerTimeout = 2 * time.Second

// NewTraceCollector returns a collector over the given base URLs
// (typically every peer except self, plus the kcached -cache-remote).
// Each fetch is bounded by perPeerTimeout. Returns nil when there is
// nothing to collect from; Collect on a nil collector returns nothing.
func NewTraceCollector(targets []string) *TraceCollector {
	if len(targets) == 0 {
		return nil
	}
	return &TraceCollector{
		targets: append([]string(nil), targets...),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        16,
			MaxIdleConnsPerHost: 4,
			IdleConnTimeout:     90 * time.Second,
		}},
	}
}

// Collect fetches id's fragment from every target concurrently via
// GET {base}/trace/{id}?local=1 (the loop-guarded local-only form) and
// returns whatever arrived, in target order. Failures and 404s are
// skipped.
func (tc *TraceCollector) Collect(ctx context.Context, id string) []*obs.StoredTrace {
	if tc == nil || id == "" {
		return nil
	}
	frags := make([]*obs.StoredTrace, len(tc.targets))
	var wg sync.WaitGroup
	for i, base := range tc.targets {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			frags[i] = tc.fetch(ctx, base, id)
		}(i, base)
	}
	wg.Wait()
	out := make([]*obs.StoredTrace, 0, len(frags))
	for _, f := range frags {
		if f != nil {
			out = append(out, f)
		}
	}
	return out
}

func (tc *TraceCollector) fetch(ctx context.Context, base, id string) *obs.StoredTrace {
	pctx, cancel := context.WithTimeout(ctx, perPeerTimeout)
	defer cancel()
	u := fmt.Sprintf("%s/trace/%s?local=1", base, url.PathEscape(id))
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, u, nil)
	if err != nil {
		return nil
	}
	resp, err := tc.client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil
	}
	var st obs.StoredTrace
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&st); err != nil {
		return nil
	}
	if st.TraceID != id {
		return nil
	}
	return &st
}
