package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"knighter/internal/api"
	"knighter/internal/minic"
	"knighter/internal/obs"
)

// TestNewDerivesTheReplicaFromConfig covers what only main() did before
// New existed: contradictory shard settings are an error (not an exit),
// the trace collector asks every peer but this replica, plus kcached,
// and the store is memory over kcached or memory alone — never a disk
// of its own — as the store_* tiers on /metrics show.
func TestNewDerivesTheReplicaFromConfig(t *testing.T) {
	const peers = "http://a:8321, http://b:8321/ ,http://c:8321"
	local, fleet := []string{"memory", "stack"}, []string{"memory", "remote", "stack"}
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
		targets []string
		service string
		tiers   []string
	}{
		{name: "single host", cfg: Config{}, service: "kserve", tiers: local},
		{name: "single host with kcached", cfg: Config{CacheRemote: "http://kc:8322/"},
			targets: []string{"http://kc:8322"}, service: "kserve", tiers: fleet},
		{name: "peers ignored without -shard-count", cfg: Config{Peers: peers}, service: "kserve", tiers: local},
		{name: "shard member", cfg: Config{ShardIndex: 1, ShardCount: 3, Peers: peers, CacheRemote: "http://kc:8322"},
			targets: []string{"http://a:8321", "http://c:8321", "http://kc:8322"}, service: "kserve-1", tiers: fleet},
		{name: "shard member without a feed", cfg: Config{ShardIndex: 2, ShardCount: 3, Peers: peers},
			wantErr: "serve: -shard-count 3 needs -cache-remote"},
		{name: "too few peers", cfg: Config{ShardCount: 3, Peers: "http://a:8321,http://b:8321"},
			wantErr: "-shard-count 3 needs exactly that many -peers entries, got 2"},
		{name: "no peers", cfg: Config{ShardCount: 2}, wantErr: "got 0"},
		{name: "index past the fleet", cfg: Config{ShardIndex: 3, ShardCount: 3, Peers: peers},
			wantErr: "-shard-index 3 out of range [0,3)"},
		{name: "negative index", cfg: Config{ShardIndex: -1, ShardCount: 3, Peers: peers},
			wantErr: "-shard-index -1 out of range"},
		{name: "bad kcached URL", cfg: Config{CacheRemote: "ftp://kc"}, wantErr: "scheme must be http or https"},
		{name: "negative read gate", cfg: Config{MaxInflight: -1}, wantErr: "serve: -max-inflight -1 is negative"},
		{name: "negative trace store", cfg: Config{TraceRetain: -1}, wantErr: "serve: -trace-retain -1 is negative"},
		{name: "negative slow threshold", cfg: Config{SlowScan: -time.Second}, wantErr: "serve: -slow-scan -1s is negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Seed, tc.cfg.Scale = 1, 0.02
			srv, err := New(tc.cfg)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("New = %v, want an error mentioning %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if got := traceTargets(srv.shard, tc.cfg.CacheRemote); !reflect.DeepEqual(got, tc.targets) {
				t.Errorf("trace collector targets = %v, want %v", got, tc.targets)
			}
			if (srv.traceColl != nil) != (len(tc.targets) > 0) {
				t.Errorf("trace collector present = %v with targets %v", srv.traceColl != nil, tc.targets)
			}
			if srv.ro.Service != tc.service {
				t.Errorf("service name = %q, want %q", srv.ro.Service, tc.service)
			}
			if (srv.shard != nil) != (tc.cfg.ShardCount > 1) {
				t.Errorf("shard layer present = %v with -shard-count %d", srv.shard != nil, tc.cfg.ShardCount)
			}
			if got := storeTiers(t, srv.Handler(), "kserve"); !reflect.DeepEqual(got, tc.tiers) {
				t.Errorf("store tiers on /metrics = %v, want %v", got, tc.tiers)
			}
		})
	}
}

// TestZeroConfigIsTheDeployedDaemon: the zero Config and the zero
// CacheConfig (but for its directory) build what kserve and kcached
// run with no flags — both admission gates and the trace store on
// kserve, the trace store on kcached — as their /stats report. The
// tests boot through New and NewCache, so they cover what deploys.
func TestZeroConfigIsTheDeployedDaemon(t *testing.T) {
	type gate struct {
		MaxInflight int `json:"max_inflight"`
		MaxQueued   int `json:"max_queued"`
	}
	type traceStore struct {
		Capacity   int     `json:"capacity"`
		SampleRate float64 `json:"sample_rate"`
	}
	var st struct {
		Admission      *gate       `json:"admission"`
		WriteAdmission *gate       `json:"write_admission"`
		TraceStore     *traceStore `json:"trace_store"`
	}
	_, ks := bootOne(t, Config{})
	getJSON(t, ks.URL+"/stats", http.StatusOK, &st)
	deployed := traceStore{Capacity: 512, SampleRate: 0.05}
	if want := (gate{runtime.GOMAXPROCS(0), 64}); st.Admission == nil || *st.Admission != want {
		t.Errorf("kserve read gate = %+v, want %+v", st.Admission, want)
	}
	if want := (gate{1, 32}); st.WriteAdmission == nil || *st.WriteAdmission != want {
		t.Errorf("kserve write gate = %+v, want %+v", st.WriteAdmission, want)
	}
	if st.TraceStore == nil || *st.TraceStore != deployed {
		t.Errorf("kserve trace store = %+v, want %+v", st.TraceStore, deployed)
	}

	st.TraceStore = nil
	_, kc := newKcached(t, CacheConfig{})
	getJSON(t, kc.URL+"/stats", http.StatusOK, &st)
	if st.TraceStore == nil || *st.TraceStore != deployed {
		t.Errorf("kcached trace store = %+v, want %+v", st.TraceStore, deployed)
	}
	for flag, cfg := range map[string]CacheConfig{
		"-feed-cap -1":    {FeedCap: -1},
		"-trace-slow -1s": {TraceSlow: -time.Second},
	} {
		cfg.CacheDir = t.TempDir()
		if _, err := NewCache(cfg); err == nil || !strings.Contains(err.Error(), "serve: "+flag+" is negative") {
			t.Errorf("NewCache with %s = %v, want an error naming the flag", flag, err)
		}
	}
}

// TestNewCacheServesItsSegmentLog: kcached's store is its segment disk
// alone, with no memory tier in front, as the store_* tiers on /metrics
// show.
func TestNewCacheServesItsSegmentLog(t *testing.T) {
	c, _ := newKcached(t, CacheConfig{})
	if got, want := storeTiers(t, c.Handler(), "kcached"), []string{"disk", "stack"}; !reflect.DeepEqual(got, want) {
		t.Errorf("store tiers on /metrics = %v, want %v", got, want)
	}
}

// storeTiers returns the sorted tier labels of the ns_store_requests_total
// series that h exposes on GET /metrics.
func storeTiers(t *testing.T, h http.Handler, ns string) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	var tiers []string
	for name := range metricValues(t, rec.Body.String()) {
		if tier, ok := strings.CutPrefix(name, ns+`_store_requests_total{tier="`); ok {
			tiers = append(tiers, strings.TrimSuffix(tier, `"}`))
		}
	}
	sort.Strings(tiers)
	return tiers
}

// metricValues parses the series out of a /metrics body, keyed by name
// with labels as exposed (`name{label="value"}`).
func metricValues(t *testing.T, text string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = int64(f)
		}
	}
	return out
}

// TestStatsAndMetricsReadTheSameCounters: every service, admission and
// shard counter is one object, so after real traffic — scans, batches,
// changesets on both coordinators, a rejected request, both roles of a
// scatter, a feed replay — /stats and /metrics report the same value
// for each.
func TestStatsAndMetricsReadTheSameCounters(t *testing.T) {
	_, kc := newKcached(t, CacheConfig{})
	srvs, tss := boot(t, 2, Config{
		CacheRemote: kc.URL,
		MaxInflight: 2, MaxQueued: 8, MaxQueuedWrites: 8,
	})
	f0 := srvs[0].inc.Codebase().Files()[0]
	canon := []api.Change{{Path: f0.Name, Source: minic.FormatFile(f0)}}

	postScan(t, tss[0], api.ScanRequest{Checker: testChecker}) // coordinates
	postScan(t, tss[1], api.ScanRequest{Checker: testChecker}) // makes replica 0 serve a sub-scan
	var batch api.BatchResponse
	postJSON(t, tss[0], "/batch", api.BatchRequest{Checkers: []string{testChecker, "checker broken {"}}, &batch)
	postJSON(t, tss[0], "/scan", "not a scan request", nil)
	var cs api.ChangesetResponse
	postJSON(t, tss[0], "/changeset", api.ChangesetRequest{Changes: canon}, &cs)
	// Replica 1 commits on top of replica 0's generation, and the commit
	// reaches replica 0 as a replay.
	postScan(t, tss[1], api.ScanRequest{Checker: testChecker, Query: api.Query{MinGeneration: cs.Generation}})
	postJSON(t, tss[1], "/changeset", api.ChangesetRequest{Changes: canon}, &cs)
	deadline := time.Now().Add(5 * time.Second)
	for count(srvs[0].shard.converges) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replica 0 at generation %d never replayed generation %d",
				srvs[0].inc.Codebase().Generation(), cs.Generation)
		}
		time.Sleep(5 * time.Millisecond)
	}

	st := getDrainedStats(t, tss[0])
	metrics := metricValues(t, getMetrics(t, tss[0]))
	pairs := map[string]int64{
		"kserve_scans_total":                   st.Scans,
		"kserve_batches_total":                 st.Batches,
		"kserve_corpus_mutations_total":        st.Changesets,
		"kserve_scan_errors_total":             st.ScanErrors,
		"kserve_scans_canceled_total":          st.ScansCanceled,
		"kserve_reports_served_total":          st.ReportsServed,
		"kserve_shard_scatters_total":          st.Shards.Scatters,
		"kserve_shard_sub_scans_total":         st.Shards.SubScansServed,
		"kserve_shard_converges_total":         st.Shards.Converges,
		"kserve_shard_feed_publishes_total":    st.Shards.FeedPublishes,
		"kserve_shard_degraded_scatters_total": st.Shards.Degraded,
	}
	for prefix, gate := range map[string]api.AdmissionStats{
		"kserve_admission": st.Admission, "kserve_write_admission": st.WriteAdmission,
	} {
		pairs[prefix+"_admitted_total"] = gate.Admitted
		pairs[prefix+"_shed_total"] = gate.Shed
	}
	for name, stat := range pairs {
		if got, ok := metrics[name]; !ok || got != stat {
			t.Errorf("%s = %d (exposed: %v), /stats says %d", name, got, ok, stat)
		}
	}
	// The traffic above must have moved what it was built to move, or
	// the comparison is zero against zero.
	for _, name := range []string{
		"kserve_scans_total", "kserve_batches_total", "kserve_corpus_mutations_total",
		"kserve_scan_errors_total", "kserve_reports_served_total",
		"kserve_shard_scatters_total", "kserve_shard_sub_scans_total", "kserve_shard_converges_total",
		"kserve_shard_feed_publishes_total", "kserve_admission_admitted_total", "kserve_write_admission_admitted_total",
	} {
		if pairs[name] == 0 {
			t.Errorf("%s stayed 0 under the test's traffic", name)
		}
	}
}

// TestTraceEndpointsSharedByBothDaemons pins the one definition of
// GET /traces (?limit=N, ?slow=1 and nothing else selects the slow
// class) and of the local GET /trace/{id} against both daemons'
// handlers.
func TestTraceEndpointsSharedByBothDaemons(t *testing.T) {
	srv, ks := bootOne(t, Config{TraceRetain: 16, TraceSample: 1, SlowScan: time.Second})
	kcd, kc := newKcached(t, CacheConfig{TraceRetain: 16, TraceSample: 1, TraceSlow: time.Second})

	for _, d := range []struct {
		daemon string
		store  *obs.TraceStore
		ts     *httptest.Server
	}{{"kserve", srv.traces, ks}, {"kcached", kcd.traces, kc}} {
		t.Run(d.daemon, func(t *testing.T) {
			for _, tr := range []struct {
				id      string
				elapsed time.Duration
			}{{"fast-1", time.Millisecond}, {"slow-1", 2 * time.Second}, {"fast-2", time.Millisecond}} {
				frag := obs.NewTraceFor(d.daemon, tr.id, "")
				frag.CloseRoot("scan", "", tr.elapsed)
				d.store.Add(frag, obs.TraceMeta{Route: "scan", Status: http.StatusOK, Elapsed: tr.elapsed})
			}
			for query, want := range map[string][]string{
				"":            {"fast-2", "slow-1", "fast-1"},
				"?limit=2":    {"fast-2", "slow-1"},
				"?limit=junk": {"fast-2", "slow-1", "fast-1"},
				"?slow=1":     {"slow-1"},
				"?slow=0":     {"fast-2", "slow-1", "fast-1"},
				"?slow=true":  {"fast-2", "slow-1", "fast-1"},
			} {
				var list traceList
				getJSON(t, d.ts.URL+"/traces"+query, http.StatusOK, &list)
				var got []string
				for _, row := range list.Traces {
					got = append(got, row.TraceID)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("GET /traces%s = %v, want %v", query, got, want)
				}
			}
			var frag obs.StoredTrace
			getJSON(t, d.ts.URL+"/trace/slow-1?local=1", http.StatusOK, &frag)
			if frag.TraceID != "slow-1" || frag.Kept != "slow" || frag.Service != d.daemon || len(frag.Spans) != 1 {
				t.Errorf("local fragment = %+v", frag)
			}
			var envelope api.ErrorResponse
			var keys map[string]json.RawMessage
			getJSON(t, d.ts.URL+"/trace/never-seen?local=1", http.StatusNotFound, &envelope)
			getJSON(t, d.ts.URL+"/trace/never-seen?local=1", http.StatusNotFound, &keys)
			if envelope.Err == nil || envelope.Err.Code != api.ErrNotFound || envelope.Err.Message == "" {
				t.Errorf("unknown trace envelope = %+v", envelope)
			}
			if _, ok := keys["error_legacy"]; ok {
				t.Errorf("error envelope still carries the removed error_legacy key: %v", keys)
			}
		})
	}
}
