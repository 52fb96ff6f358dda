package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"knighter/internal/api"
	"knighter/internal/obs"
)

// newTracedFleet boots a 3-shard kserve fleet sharing one traced
// kcached — the full deployment shape of GET /trace/{id}: every replica
// retains all of its traces (sample=1), fans collection out to its
// peers and kcached, and every replica's remote tier rides through the
// shared cache daemon so kcached fragments exist to collect.
// traceList is the GET /traces reply: the newest retained traces in the
// local store, newest first.
type traceList struct {
	Traces []obs.TraceSummary `json:"traces"`
}

func newTracedFleet(t *testing.T, n int) ([]*Server, []*httptest.Server) {
	t.Helper()
	captureLog(t) // a traced kcached logs every entry round-trip
	_, kc := newKcached(t, CacheConfig{TraceRetain: 256, TraceSample: 1})
	return boot(t, n, Config{CacheRemote: kc.URL, TraceRetain: 256, TraceSample: 1})
}

// postScanTraced posts a /scan and returns the response plus the trace
// id the daemon stamped on X-Trace-Id.
func postScanTraced(t *testing.T, ts *httptest.Server, body api.ScanRequest) (*api.ScanResponse, string) {
	t.Helper()
	var out api.ScanResponse
	resp, err := call(http.MethodPost, ts.URL+"/scan", body, &out)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /scan = %v, %v", resp, err)
	}
	id := resp.Header.Get(obs.TraceHeader)
	if id == "" {
		t.Fatal("scan response missing X-Trace-Id")
	}
	return &out, id
}

func getAssembled(t *testing.T, ts *httptest.Server, id string) (*obs.AssembledTrace, int) {
	t.Helper()
	var asm obs.AssembledTrace
	resp, err := call(http.MethodGet, ts.URL+"/trace/"+id, nil, &asm)
	if err != nil {
		t.Fatal(err)
	}
	return &asm, resp.StatusCode
}

// collectTree flattens an assembled tree (root + orphans) depth-first.
func collectTree(asm *obs.AssembledTrace) []*obs.TraceNode {
	var out []*obs.TraceNode
	var walk func(n *obs.TraceNode)
	walk = func(n *obs.TraceNode) {
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	if asm.Root != nil {
		walk(asm.Root)
	}
	for _, o := range asm.Orphans {
		walk(o)
	}
	return out
}

// TestFleetTraceAssembly is the tentpole acceptance criterion: one
// coordinated scan across a 3-shard fleet with a shared kcached, then
// GET /trace/{id} on the coordinator returns a single rooted span tree
// containing spans from every shard owner AND at least one kcached
// span, with parent/child offsets consistent.
func TestFleetTraceAssembly(t *testing.T) {
	_, tss := newTracedFleet(t, 3)
	_, id := postScanTraced(t, tss[0], api.ScanRequest{Checker: testChecker})

	asm, code := getAssembled(t, tss[0], id)
	if code != http.StatusOK {
		t.Fatalf("GET /trace/%s = %d", id, code)
	}
	if asm.TraceID != id || asm.Root == nil {
		t.Fatalf("assembled trace: id=%q root=%v", asm.TraceID, asm.Root)
	}
	if !asm.Root.Root || asm.Root.Service != "kserve-0" || asm.Root.Name != "scan" {
		t.Fatalf("root span = %+v", asm.Root.Span)
	}
	for _, svc := range []string{"kserve-0", "kserve-1", "kserve-2", "kcached"} {
		found := false
		for _, s := range asm.Services {
			if s == svc {
				found = true
			}
		}
		if !found {
			t.Fatalf("services = %v, missing %s", asm.Services, svc)
		}
	}

	nodes := collectTree(asm)
	if len(nodes) != asm.SpanCount {
		t.Fatalf("tree holds %d nodes, span_count says %d", len(nodes), asm.SpanCount)
	}
	// Every shard owner's sub-scan fragment is IN the root's tree (not
	// an orphan), reached through the coordinator's shard_N span.
	inRoot := map[string]bool{}
	var walk func(n *obs.TraceNode)
	walk = func(n *obs.TraceNode) {
		if n.Root {
			inRoot[n.Service] = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(asm.Root)
	for _, svc := range []string{"kserve-1", "kserve-2", "kcached"} {
		if !inRoot[svc] {
			t.Fatalf("no %s fragment attached under the root tree (orphans: %d)", svc, len(asm.Orphans))
		}
	}
	// Offset consistency: children never start before their parent.
	var check func(n *obs.TraceNode)
	check = func(n *obs.TraceNode) {
		for _, c := range n.Children {
			if c.AbsOffsetMS < n.AbsOffsetMS {
				t.Fatalf("span %s %q starts at %v, before parent %s at %v",
					c.SpanID, c.Name, c.AbsOffsetMS, n.SpanID, n.AbsOffsetMS)
			}
			check(c)
		}
	}
	check(asm.Root)

	// The text form renders the same tree as a waterfall.
	resp, err := http.Get(tss[0].URL + "/trace/" + id + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	wf := b.String()
	for _, frag := range []string{"trace " + id, "kserve-0 scan", "kserve-1", "kcached"} {
		if !strings.Contains(wf, frag) {
			t.Fatalf("waterfall missing %q:\n%s", frag, wf)
		}
	}

	// The coordinator's local index lists the trace.
	var list traceList
	getJSON(t, tss[0].URL+"/traces?limit=10", http.StatusOK, &list)
	found := false
	for _, tr := range list.Traces {
		if tr.TraceID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("/traces does not list %s: %+v", id, list.Traces)
	}
}

// TestFleetTraceDegradedShard: kill one shard, scan, and the assembled
// trace must mark that shard's partition degraded_local_fallback — the
// trace-level twin of the CI fault-injection smoke.
func TestFleetTraceDegradedShard(t *testing.T) {
	srvs, tss := newTracedFleet(t, 3)
	tss[2].Close() // SIGKILL stand-in

	_, id := postScanTraced(t, tss[0], api.ScanRequest{Checker: testChecker})
	if count(srvs[0].shard.degraded) == 0 {
		t.Fatal("dead shard produced no degraded scatter")
	}

	asm, code := getAssembled(t, tss[0], id)
	if code != http.StatusOK {
		t.Fatalf("GET /trace/%s = %d", id, code)
	}
	degraded := 0
	for _, n := range collectTree(asm) {
		if n.Status == obs.SpanDegraded {
			degraded++
			if !strings.HasPrefix(n.Name, "shard_") {
				t.Fatalf("degraded status on unexpected span %q", n.Name)
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no span carries degraded_local_fallback")
	}
	// The trace survives tail sampling on the degraded class alone.
	if st, ok := srvs[0].traces.Get(id); !ok || st.Kept == "" {
		t.Fatalf("coordinator did not retain the degraded trace: %+v", st)
	}
}

// TestErrorEnvelopeCarriesTraceID: satellite (c) — the uniform error
// envelope duplicates the X-Trace-Id header in the body.
func TestErrorEnvelopeCarriesTraceID(t *testing.T) {
	_, ts := bootOne(t, Config{})
	var envelope api.ErrorResponse
	resp, err := call(http.MethodPost, ts.URL+"/scan", "not a scan request", &envelope)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if envelope.TraceID == "" || envelope.TraceID != resp.Header.Get(obs.TraceHeader) {
		t.Fatalf("envelope trace_id %q != header %q", envelope.TraceID, resp.Header.Get(obs.TraceHeader))
	}
}

// TestTraceUnknownIs404: a trace nobody retained (never existed,
// sampled out everywhere, or evicted) answers 404 after the fan-out
// comes back empty — not a crash, not an empty 200.
func TestTraceUnknownIs404(t *testing.T) {
	_, tss := newTracedFleet(t, 3)
	if _, code := getAssembled(t, tss[0], "no-such-trace"); code != http.StatusNotFound {
		t.Fatalf("unknown trace returned %d, want 404", code)
	}
}
