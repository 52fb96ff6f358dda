package serve

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"knighter/internal/api"
	"knighter/internal/obs"
	"knighter/internal/scan"
)

// logCapture is a log sink tests can read while handlers still write:
// both daemons log a request after its response is on the wire, so the
// client can be back in the test before the line lands.
type logCapture struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logCapture) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logCapture) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// waitForLine polls until one captured line contains every want.
func (l *logCapture) waitForLine(t *testing.T, want ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, line := range strings.Split(l.String(), "\n") {
			all := true
			for _, w := range want {
				all = all && strings.Contains(line, w)
			}
			if all {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no log line mentions all of %q:\n%s", want, l.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// captureLog redirects the process logger — where both daemons' chassis
// write their access and slow-request lines — for the rest of the test.
func captureLog(t *testing.T) *logCapture {
	t.Helper()
	l := &logCapture{}
	log.SetOutput(l)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return l
}

func getMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("GET /metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsExposition: after real traffic, /metrics parses as valid
// Prometheus text format (grammar, no duplicate series) and carries the
// series the dashboards and the CI smoke test grep for.
func TestMetricsExposition(t *testing.T) {
	_, ts := bootOne(t, Config{})
	postScan(t, ts, api.ScanRequest{Checker: testChecker})
	postScan(t, ts, api.ScanRequest{Checker: testChecker}) // warm: memory hits

	text := getMetrics(t, ts)
	ids, err := obs.CheckExposition(text)
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text format: %v", err)
	}
	if len(ids) == 0 {
		t.Fatal("/metrics exposed no series")
	}
	for _, want := range []string{
		`kserve_scan_duration_seconds_bucket{le="+Inf"} 2`,
		`kserve_scan_duration_seconds_count 2`,
		`kserve_store_requests_total{tier="memory"}`,
		`kserve_store_hits_total{tier="memory"}`,
		`kserve_scan_stage_duration_seconds_bucket{stage="parse",le=`,
		`kserve_scan_stage_duration_seconds_bucket{stage="engine_eval",le=`,
		`kserve_http_requests_total{route="scan",code="2xx"} 2`,
		`kserve_scans_total 2`,
		`kserve_engine_timeouts_total`,
		`kserve_build_info{version=`,
		`kserve_uptime_seconds`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsStageObserverOnlyTimesInstrumentedScans: a scan through an
// instrumented daemon lands in every stage histogram exactly once per
// scan.
func TestMetricsStageTimings(t *testing.T) {
	_, ts := bootOne(t, Config{})
	postScan(t, ts, api.ScanRequest{Checker: testChecker})
	text := getMetrics(t, ts)
	for _, stage := range []string{
		scan.StageParse, scan.StageCacheProbe, scan.StageEngineEval, scan.StageSerialize,
	} {
		want := `kserve_scan_stage_duration_seconds_count{stage="` + stage + `"} 1`
		if !strings.Contains(text, want+"\n") {
			t.Errorf("stage %s not observed exactly once; want line %q", stage, want)
		}
	}
}

// TestIncludeTimingReturnsTimeline: include_timing adds the trace id
// and a per-stage span timeline to the /scan reply; omitting it keeps
// the reply unchanged.
func TestIncludeTimingReturnsTimeline(t *testing.T) {
	_, ts := bootOne(t, Config{})

	resp := postScan(t, ts, api.ScanRequest{Checker: testChecker, Query: api.Query{IncludeTiming: true}})
	if resp.TraceID == "" {
		t.Fatal("include_timing reply has no trace_id")
	}
	stages := map[string]bool{}
	for _, sp := range resp.Timing {
		stages[sp.Name] = true
		if sp.DurMS < 0 || sp.OffsetMS < 0 {
			t.Errorf("span %s has negative timing: %+v", sp.Name, sp)
		}
	}
	for _, want := range []string{scan.StageParse, scan.StageCacheProbe, scan.StageEngineEval, scan.StageSerialize} {
		if !stages[want] {
			t.Errorf("timeline missing stage %s; got %+v", want, resp.Timing)
		}
	}

	plain := postScan(t, ts, api.ScanRequest{Checker: testChecker})
	if plain.TraceID != "" || plain.Timing != nil {
		t.Fatalf("timing leaked into a reply that did not ask for it: %+v", plain.Timing)
	}
}

// TestTraceIDStitchesBothDaemonsLogs is the fleet-tracing acceptance
// criterion: a client-supplied X-Trace-Id on a kserve scan shows up in
// kserve's access log AND in kcached's — one grep joins the cross-host
// story — and the same id comes back in the response header.
func TestTraceIDStitchesBothDaemonsLogs(t *testing.T) {
	// Both daemons under the chassis, exactly as their main()s wire it.
	logs := captureLog(t)
	_, kc := newKcached(t, CacheConfig{})
	_, ts := bootOne(t, Config{CacheRemote: kc.URL})

	const traceID = "abc-fleet-trace-1"
	var sr api.ScanResponse
	resp, err := call(http.MethodPost, ts.URL+"/scan",
		api.ScanRequest{Checker: testChecker, Query: api.Query{IncludeTiming: true}}, &sr, obs.TraceHeader, traceID)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /scan = %v, %v", resp, err)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != traceID {
		t.Fatalf("response %s = %q, want %q", obs.TraceHeader, got, traceID)
	}
	if sr.TraceID != traceID {
		t.Fatalf("reply trace_id = %q, want %q", sr.TraceID, traceID)
	}

	// The scan's remote-tier round-trips carry the id to kcached; both
	// daemons' logs now grep to the same trace.
	for _, line := range []string{
		"kserve: POST /scan 200 ",
		"kcached: POST /entries/get ",
		"kcached: POST /entries/put ",
	} {
		logs.waitForLine(t, line, "trace="+traceID)
	}
}

// TestSlowScanLogEmitsTimeline: a request slower than -slow-scan gets
// the structured slow-request line with its trace id and timeline.
func TestSlowScanLogEmitsTimeline(t *testing.T) {
	logBuf := captureLog(t)
	_, ts := bootOne(t, Config{SlowScan: time.Nanosecond}) // everything is slow
	postScan(t, ts, api.ScanRequest{Checker: testChecker})
	logBuf.waitForLine(t, "kserve: slow request: route=scan trace=")
	out := logBuf.String()
	if !strings.Contains(out, "timeline=[") || !strings.Contains(out, scan.StageEngineEval+"=") {
		t.Fatalf("slow-request line has no stage timeline:\n%s", out)
	}
}

// TestKcachedMetricsExposition: the kcached composition (its store
// and cache server on one registry) serves valid exposition with the
// entry-request and store families the smoke test greps for.
func TestKcachedMetricsExposition(t *testing.T) {
	captureLog(t) // the chassis logs every entry round-trip
	_, kc := newKcached(t, CacheConfig{})

	// Drive real traffic through a kserve replica so the counters move.
	_, ts := bootOne(t, Config{CacheRemote: kc.URL})
	postScan(t, ts, api.ScanRequest{Checker: testChecker})

	text := getMetrics(t, kc)
	if _, err := obs.CheckExposition(text); err != nil {
		t.Fatalf("kcached /metrics is not valid Prometheus text format: %v", err)
	}
	for _, want := range []string{
		`kcached_entry_requests_total{op="get",outcome="miss"}`,
		`kcached_entry_requests_total{op="put",outcome="stored"}`,
		`kcached_request_duration_seconds_count{op="get"}`,
		`kcached_store_requests_total{tier="disk"}`,
		`kcached_store_entries`,
		`kcached_build_info{version=`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("kcached /metrics missing %q", want)
		}
	}
}
