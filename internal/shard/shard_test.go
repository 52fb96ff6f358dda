package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"knighter/internal/api"
)

// synthPartial fabricates the sub-scan reply a shard owner would return
// for files: one report per file (named after it), a runtime error for
// files carrying the "!" marker, and the per-file cuts the merge needs.
func synthPartial(files []string) *api.ScanResponse {
	p := &api.ScanResponse{FilesScanned: len(files), FuncsScanned: 2 * len(files), Generation: 7}
	for _, f := range files {
		cut := api.FileCut{Reports: 1}
		p.Reports = append(p.Reports, api.Report{Checker: "synth", File: f, Message: "r:" + f})
		if strings.Contains(f, "!") {
			p.RuntimeErrs = append(p.RuntimeErrs, "err:"+f)
			cut.RuntimeErrs = 1
		}
		p.FileCuts = append(p.FileCuts, cut)
	}
	return p
}

func synthLocal(ctx context.Context, files []string) ([]*api.ScanResponse, error) {
	return []*api.ScanResponse{synthPartial(files)}, nil
}

func TestRingPartitionPreservesOrder(t *testing.T) {
	ring := Ring{Count: 3}
	paths := make([]string, 40)
	for i := range paths {
		paths[i] = fmt.Sprintf("drivers/f%02d.c", i)
	}
	parts := ring.Partition(paths)
	if len(parts) != 3 {
		t.Fatalf("partitions = %d, want 3", len(parts))
	}
	total := 0
	for s, part := range parts {
		total += len(part)
		last := -1
		for _, p := range part {
			if ring.Owner(p) != s {
				t.Fatalf("%s landed in partition %d but Owner says %d", p, s, ring.Owner(p))
			}
			// Input order must be preserved within the partition.
			var idx int
			fmt.Sscanf(p, "drivers/f%02d.c", &idx)
			if idx <= last {
				t.Fatalf("partition %d out of input order: %v", s, part)
			}
			last = idx
		}
	}
	if total != len(paths) {
		t.Fatalf("partitions cover %d paths, want %d", total, len(paths))
	}
	// A single-shard ring owns everything.
	if (Ring{Count: 1}).Owner("anything.c") != 0 {
		t.Fatal("single-shard ring must own every path")
	}
}

func TestMergeScanReassemblesGlobalOrder(t *testing.T) {
	ring := Ring{Count: 3}
	paths := []string{"a.c", "b!.c", "c.c", "d.c", "e!.c", "f.c", "g.c"}
	partitions := ring.Partition(paths)
	parts := make([]*api.ScanResponse, 3)
	for s, files := range partitions {
		if len(files) > 0 {
			parts[s] = synthPartial(files)
		}
	}
	merged, err := MergeScan("synth", paths, ring, parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Reports) != len(paths) {
		t.Fatalf("merged %d reports, want %d", len(merged.Reports), len(paths))
	}
	for i, rep := range merged.Reports {
		if rep.File != paths[i] {
			t.Fatalf("report %d is for %s, want %s (global order broken)", i, rep.File, paths[i])
		}
	}
	wantErrs := []string{"err:b!.c", "err:e!.c"}
	if fmt.Sprint(merged.RuntimeErrs) != fmt.Sprint(wantErrs) {
		t.Fatalf("runtime errs = %v, want %v", merged.RuntimeErrs, wantErrs)
	}
	if merged.FilesScanned != len(paths) || merged.FuncsScanned != 2*len(paths) {
		t.Fatalf("counters: files=%d funcs=%d", merged.FilesScanned, merged.FuncsScanned)
	}
	if merged.Generation != 7 {
		t.Fatalf("generation = %d, want the partials' max 7", merged.Generation)
	}

	// MaxReports truncates during the global walk, exactly like the
	// single-host merge loop.
	capped, err := MergeScan("synth", paths, ring, parts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Reports) != 4 || !capped.Truncated {
		t.Fatalf("capped merge: %d reports truncated=%v, want 4/true", len(capped.Reports), capped.Truncated)
	}
	for i, rep := range capped.Reports {
		if rep.File != paths[i] {
			t.Fatalf("capped report %d is for %s, want %s", i, rep.File, paths[i])
		}
	}
}

func TestMergeScanRejectsMalformedPartials(t *testing.T) {
	ring := Ring{Count: 2}
	paths := []string{"a.c", "b.c", "c.c", "d.c"}
	partitions := ring.Partition(paths)

	// A missing partial for a non-empty partition is an error, not a
	// silent hole in the results.
	parts := make([]*api.ScanResponse, 2)
	for s, files := range partitions {
		if len(files) > 0 {
			parts[s] = synthPartial(files)
		}
	}
	for s, files := range partitions {
		if len(files) == 0 {
			continue
		}
		broken := make([]*api.ScanResponse, 2)
		copy(broken, parts)
		broken[s] = nil
		if _, err := MergeScan("synth", paths, ring, broken, 0); err == nil {
			t.Fatal("missing partial not rejected")
		}
		// Wrong cut count means the shard scanned a different file list.
		short := *parts[s]
		short.FileCuts = short.FileCuts[:len(short.FileCuts)-1]
		broken[s] = &short
		if _, err := MergeScan("synth", paths, ring, broken, 0); err == nil {
			t.Fatal("cut-count mismatch not rejected")
		}
		// Cuts overrunning the payload mean the reply was truncated.
		lying := *parts[s]
		lying.Reports = lying.Reports[:len(lying.Reports)-1]
		broken[s] = &lying
		if _, err := MergeScan("synth", paths, ring, broken, 0); err == nil {
			t.Fatal("cut overrun not rejected")
		}
		break
	}
}

// newSynthPeer serves /scan like a shard owner would, via handle; it
// answers with synthPartial over the requested files unless handle
// overrides.
func newSynthPeer(t *testing.T, handle http.HandlerFunc) *httptest.Server {
	t.Helper()
	if handle == nil {
		handle = func(w http.ResponseWriter, r *http.Request) {
			var req api.ScanRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if !req.ShardLocal {
				http.Error(w, "sub-scan missing shard_local", http.StatusBadRequest)
				return
			}
			json.NewEncoder(w).Encode(synthPartial(req.Files))
		}
	}
	ts := httptest.NewServer(handle)
	t.Cleanup(ts.Close)
	return ts
}

func scatterPaths() []string {
	paths := make([]string, 24)
	for i := range paths {
		paths[i] = fmt.Sprintf("net/s%02d.c", i)
	}
	return paths
}

func TestScatterScanMergesRemoteAndLocal(t *testing.T) {
	peer := newSynthPeer(t, nil)
	sc := NewScatter(Config{
		Ring:  Ring{Count: 2},
		Self:  0,
		Peers: []string{"", peer.URL},
	}, Hooks{})
	paths := scatterPaths()
	merged, info, err := sc.Scan(context.Background(), ScanJob{
		Req: api.ScanRequest{Checker: "synth"}, Name: "synth", Paths: paths, Local: synthLocal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != 2 || info.Degraded != 0 {
		t.Fatalf("info = %+v, want 2 healthy shards", info)
	}
	for i, rep := range merged.Reports {
		if rep.File != paths[i] {
			t.Fatalf("report %d is for %s, want %s", i, rep.File, paths[i])
		}
	}
	if h := sc.PeerHealth(); !h[0] || !h[1] {
		t.Fatalf("peer health = %v, want all healthy", h)
	}
}

func TestScatterShardFailureFallsBackLocal(t *testing.T) {
	for name, handle := range map[string]http.HandlerFunc{
		"error reply": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "shard on fire", http.StatusInternalServerError)
		},
		// A straggler, not a corpse: it would answer, but only long after
		// the sub-request timeout. Draining the body first lets the server
		// see the client's disconnect and cancel r.Context().
		"straggler past the timeout": func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			select {
			case <-time.After(5 * time.Second):
			case <-r.Context().Done():
			}
			http.Error(w, "too late", http.StatusInternalServerError)
		},
	} {
		t.Run(name, func(t *testing.T) {
			peer := newSynthPeer(t, handle)
			var degraded, healthFalse int
			sc := NewScatter(Config{
				Ring:    Ring{Count: 2},
				Self:    0,
				Peers:   []string{"", peer.URL},
				Timeout: 50 * time.Millisecond,
			}, Hooks{
				Degraded: func(s int) { degraded++ },
				PeerHealth: func(s int, healthy bool) {
					if !healthy {
						healthFalse++
					}
				},
			})
			paths := scatterPaths()
			merged, info, err := sc.Scan(context.Background(), ScanJob{
				Req: api.ScanRequest{Checker: "synth"}, Name: "synth", Paths: paths, Local: synthLocal,
			})
			if err != nil {
				t.Fatal(err)
			}
			if info.Degraded != 1 || degraded != 1 {
				t.Fatalf("degraded = %d (hook %d), want 1", info.Degraded, degraded)
			}
			if healthFalse == 0 {
				t.Fatal("PeerHealth hook never reported the failure")
			}
			if h := sc.PeerHealth(); h[1] {
				t.Fatal("failed peer still marked healthy")
			}
			// Degraded, never wrong: the merged result is still complete
			// and in global order.
			if len(merged.Reports) != len(paths) {
				t.Fatalf("degraded merge has %d reports, want %d", len(merged.Reports), len(paths))
			}
			for i, rep := range merged.Reports {
				if rep.File != paths[i] {
					t.Fatalf("degraded report %d is for %s, want %s", i, rep.File, paths[i])
				}
			}
		})
	}
}

// feedEntry is generation g as one change to path.
func feedEntry(g int64, path string) api.FeedEntry {
	return api.FeedEntry{Generation: g, Changes: []api.Change{{Path: path, Source: "int x;"}}}
}

// encodeEntry is feedEntry as FeedClient.Publish takes it.
func encodeEntry(t *testing.T, g int64, path string) []byte {
	t.Helper()
	buf, err := json.Marshal(feedEntry(g, path))
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestFeedPublishSinceAndRetention(t *testing.T) {
	f := NewFeed(3)
	if err := f.Publish(api.FeedEntry{Generation: 0}); err == nil {
		t.Fatal("generation 0 accepted")
	}
	for _, g := range []int64{2, 3, 2, 4} { // duplicate 2 is idempotent
		if err := f.Publish(api.FeedEntry{Generation: g, Changes: []api.Change{{Path: fmt.Sprintf("g%d.c", g), Source: "int x;"}}}); err != nil {
			t.Fatal(err)
		}
	}
	page := f.Since(2)
	if len(page.Entries) != 2 || page.Entries[0].Generation != 3 || page.Entries[1].Generation != 4 {
		t.Fatalf("Since(2) = %+v", page.Entries)
	}
	if page.Latest != 4 {
		t.Fatalf("latest = %d, want 4", page.Latest)
	}
	// Retention: cap 3, publishing 5 evicts the oldest (2).
	if err := f.Publish(api.FeedEntry{Generation: 5, Changes: []api.Change{{Path: "g5.c", Source: "int x;"}}}); err != nil {
		t.Fatal(err)
	}
	if page := f.Since(0); len(page.Entries) != 3 || page.Entries[0].Generation != 3 {
		t.Fatalf("after eviction Since(0) = %+v, want generations 3..5", page.Entries)
	}
}

func TestFeedHTTPRoundTrip(t *testing.T) {
	f := NewFeed(0)
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	c := NewFeedClient(ts.URL)
	ctx := context.Background()
	for g := int64(2); g <= 4; g++ {
		if err := c.Publish(ctx, encodeEntry(t, g, "a.c")); err != nil {
			t.Fatal(err)
		}
	}
	page, err := c.Since(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 2 || page.Entries[0].Generation != 3 || page.Latest != 4 {
		t.Fatalf("Since(2) over HTTP = %+v latest=%d", page.Entries, page.Latest)
	}
	if len(page.Entries[0].Changes) != 1 || page.Entries[0].Changes[0].Path != "a.c" {
		t.Fatalf("changes did not survive the round trip: %+v", page.Entries[0].Changes)
	}
}

// TestFeedClientTrimsTrailingSlash: a feed base with a trailing slash,
// as an operator may write -cache-remote, still publishes to POST /feed.
// Posted to //feed instead, the mux redirects, the client re-sends a GET
// and the page it answers is a 200: Publish must not count that as
// published, and here the entry must reach the feed.
func TestFeedClientTrimsTrailingSlash(t *testing.T) {
	f := NewFeed(0)
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	c := NewFeedClient(ts.URL + "/")
	ctx := context.Background()
	if err := c.Publish(ctx, encodeEntry(t, 2, "a.c")); err != nil {
		t.Fatal(err)
	}
	page, err := c.Since(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 1 || page.Entries[0].Generation != 2 || page.Latest != 2 {
		t.Fatalf("published generation 2 through a trailing-slash base; Since(0) = %+v latest=%d", page.Entries, page.Latest)
	}
}

// TestFeedPublishWantsTheFeeds204: an answer other than the feed's own
// 204, even a 2xx, is a failed publish.
func TestFeedPublishWantsTheFeeds204(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	t.Cleanup(ts.Close)
	err := NewFeedClient(ts.URL).Publish(context.Background(), encodeEntry(t, 2, "a.c"))
	if err == nil {
		t.Fatal("a 200 that is not the feed's answer counted as published")
	}
}

// TestFeedRejectsOversizedAndEmptyEntries: POST /feed reads at most
// api.MaxBodyBytes and refuses an entry without changes, both with 400,
// and neither reaches the feed.
func TestFeedRejectsOversizedAndEmptyEntries(t *testing.T) {
	f := NewFeed(0)
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	for name, e := range map[string]api.FeedEntry{
		"over-limit body": {Generation: 1, Changes: []api.Change{{Path: "a.c", Source: strings.Repeat("x", api.MaxBodyBytes)}}},
		"no changes":      {Generation: 1},
	} {
		body, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/feed", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST /feed = %d, want 400", name, resp.StatusCode)
		}
	}
	if page := f.Since(0); len(page.Entries) != 0 || page.Latest != 0 {
		t.Fatalf("rejected entries reached the feed: %+v latest=%d", page.Entries, page.Latest)
	}
}

// TestFeedRefusesAConflictingEntry: a second entry for a generation the
// feed holds, with other changes, is refused and the first stays; the
// same entry again is still accepted.
func TestFeedRefusesAConflictingEntry(t *testing.T) {
	f := NewFeed(0)
	for _, g := range []int64{1, 2, 3} {
		if err := f.Publish(feedEntry(g, "first.c")); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Publish(feedEntry(2, "second.c")); err == nil {
		t.Fatal("a second, different entry for generation 2 was accepted")
	}
	if err := f.Publish(feedEntry(2, "first.c")); err != nil {
		t.Fatalf("re-publishing the held entry: %v", err)
	}
	page := f.Since(1)
	if len(page.Entries) != 2 || page.Entries[0].Changes[0].Path != "first.c" {
		t.Fatalf("Since(1) = %+v, want generation 2 as first published", page.Entries)
	}
}

// TestFeedHTTPConflictIs409: POST /feed answers a conflicting entry 409
// and FeedClient.Publish reports it; an identical re-publish stays 204.
func TestFeedHTTPConflictIs409(t *testing.T) {
	f := NewFeed(0)
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	c := NewFeedClient(ts.URL)
	ctx := context.Background()
	if err := c.Publish(ctx, encodeEntry(t, 2, "first.c")); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(ctx, encodeEntry(t, 2, "first.c")); err != nil {
		t.Fatalf("identical re-publish: %v", err)
	}
	resp, err := http.Post(ts.URL+"/feed", "application/json", bytes.NewReader(encodeEntry(t, 2, "second.c")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting POST /feed = %d, want 409", resp.StatusCode)
	}
	if err := c.Publish(ctx, encodeEntry(t, 2, "second.c")); err == nil {
		t.Fatal("FeedClient.Publish of a conflicting entry returned nil")
	}
	if page := f.Since(0); len(page.Entries) != 1 || page.Entries[0].Changes[0].Path != "first.c" {
		t.Fatalf("Since(0) = %+v, want the first entry only", page.Entries)
	}
}

// TestFeedPublishToAFullFeedAllocatesNothing: once the feed is full, a
// publish drops the oldest entry in place; it neither reallocates the
// retained entries nor allocates at all.
func TestFeedPublishToAFullFeedAllocatesNothing(t *testing.T) {
	const capN, runs = 8, 100
	f := NewFeed(capN)
	entries := make([]api.FeedEntry, capN+runs+1)
	for i := range entries {
		entries[i] = feedEntry(int64(i+1), "a.c")
	}
	for _, e := range entries[:capN] {
		if err := f.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	next := capN
	allocs := testing.AllocsPerRun(runs, func() {
		if err := f.Publish(entries[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("a publish to a full feed allocates %.1f times, want 0", allocs)
	}
	page := f.Since(0)
	if len(page.Entries) != capN || page.Entries[0].Generation != int64(next-capN+1) || page.Latest != int64(next) {
		t.Fatalf("after %d publishes, Since(0) holds %d entries from %d, latest %d",
			next, len(page.Entries), page.Entries[0].Generation, page.Latest)
	}
}
