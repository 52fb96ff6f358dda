package obs

import (
	"strings"
	"testing"
	"time"
)

// finished builds a completed trace with a root span, simulating what
// the request middleware hands the store.
func finished(id, service string, dur time.Duration) *Trace {
	tr := NewTraceFor(service, id, "")
	tr.Observe("stage", tr.Start, dur/2, 3)
	tr.CloseRoot("scan", "", dur)
	return tr
}

func TestTraceStoreAlwaysKeepClasses(t *testing.T) {
	// sample=0: nothing unremarkable survives, so anything kept got
	// there through an always-keep class.
	ts := NewTraceStore(16, 0, 50*time.Millisecond)

	ts.Add(finished("fast", "kserve", time.Millisecond), TraceMeta{Route: "scan", Status: 200, Elapsed: time.Millisecond})
	if _, ok := ts.Get("fast"); ok {
		t.Fatal("unremarkable trace survived sample=0")
	}

	ts.Add(finished("slow", "kserve", time.Second), TraceMeta{Route: "scan", Status: 200, Elapsed: time.Second})
	if st, ok := ts.Get("slow"); !ok || st.Kept != "slow" {
		t.Fatalf("slow trace: got %+v, %v", st, ok)
	}

	ts.Add(finished("err", "kserve", time.Millisecond), TraceMeta{Route: "scan", Status: 500, Elapsed: time.Millisecond, Errored: true})
	if st, ok := ts.Get("err"); !ok || st.Kept != "error" {
		t.Fatalf("errored trace: got %+v, %v", st, ok)
	}

	deg := finished("deg", "kserve", time.Millisecond)
	deg.MarkDegraded()
	ts.Add(deg, TraceMeta{Route: "scan", Status: 200, Elapsed: time.Millisecond})
	if st, ok := ts.Get("deg"); !ok || st.Kept != "degraded" {
		t.Fatalf("degraded trace: got %+v, %v", st, ok)
	}

	// Slow outranks error: a slow 500 is kept as "slow".
	ts.Add(finished("slowerr", "kserve", time.Second), TraceMeta{Status: 500, Elapsed: time.Second, Errored: true})
	if st, _ := ts.Get("slowerr"); st == nil || st.Kept != "slow" {
		t.Fatalf("slow+error priority: got %+v", st)
	}

	if got := ts.Stats().SampledOut; got != 1 {
		t.Fatalf("sampled_out = %d, want 1", got)
	}
	if got := ts.Stats().Kept; got != 4 {
		t.Fatalf("kept = %d, want 4", got)
	}
}

func TestTraceStoreSamplingDeterministic(t *testing.T) {
	// The probabilistic decision hashes the trace id, so two stores with
	// the same rate (different hosts in real life) agree on every id —
	// the property that makes cross-host assembly all-or-nothing.
	a := NewTraceStore(4096, 0.3, 0)
	b := NewTraceStore(4096, 0.3, 0)
	kept := 0
	for i := 0; i < 2000; i++ {
		id := "trace-" + string(rune('a'+i%26)) + "-" + time.Duration(i).String()
		if a.sampledIn(id) != b.sampledIn(id) {
			t.Fatalf("stores disagree on %q", id)
		}
		if a.sampledIn(id) {
			kept++
		}
	}
	// ~600 expected; a wide band guards the hash's uniformity, not luck.
	if kept < 400 || kept > 800 {
		t.Fatalf("kept %d of 2000 at rate 0.3 — sampler badly biased", kept)
	}
	if !NewTraceStore(1, 1, 0).sampledIn("x") {
		t.Fatal("sample=1 must keep everything")
	}
	if NewTraceStore(1, 0, 0).sampledIn("x") {
		t.Fatal("sample=0 must keep nothing")
	}
}

func TestTraceStoreEvictionFIFO(t *testing.T) {
	ts := NewTraceStore(3, 1, 0)
	for _, id := range []string{"t1", "t2", "t3", "t4", "t5"} {
		ts.Add(finished(id, "kserve", time.Millisecond), TraceMeta{Status: 200, Elapsed: time.Millisecond})
	}
	if _, ok := ts.Get("t1"); ok {
		t.Fatal("t1 should have been evicted")
	}
	if _, ok := ts.Get("t2"); ok {
		t.Fatal("t2 should have been evicted")
	}
	if _, ok := ts.Get("t5"); !ok {
		t.Fatal("t5 should be retained")
	}
	st := ts.Stats()
	if st.Entries != 3 || st.Evicted != 2 {
		t.Fatalf("stats = %+v, want 3 entries, 2 evicted", st)
	}
	// Newest first, and limit respected.
	list := ts.List(2, false)
	if len(list) != 2 || list[0].TraceID != "t5" || list[1].TraceID != "t4" {
		t.Fatalf("List(2) = %+v", list)
	}
}

func TestTraceStoreListSlowOnly(t *testing.T) {
	ts := NewTraceStore(8, 1, 100*time.Millisecond)
	ts.Add(finished("fast", "kserve", time.Millisecond), TraceMeta{Status: 200, Elapsed: time.Millisecond})
	ts.Add(finished("slow", "kserve", time.Second), TraceMeta{Status: 200, Elapsed: time.Second})
	list := ts.List(10, true)
	if len(list) != 1 || list[0].TraceID != "slow" {
		t.Fatalf("slow-only List = %+v", list)
	}
}

func TestTraceStoreMergesFragmentsByID(t *testing.T) {
	// kcached's reality: many requests share one scan's trace id; the
	// store's entry for that id is the union of their spans.
	ts := NewTraceStore(8, 1, 0)
	first := NewTraceFor("kcached", "shared", "parent.1")
	first.CloseRoot("kcached_get", "", time.Millisecond)
	ts.Add(first, TraceMeta{Route: "get", Status: 200, Elapsed: time.Millisecond})

	second := NewTraceFor("kcached", "shared", "parent.2")
	second.CloseRoot("kcached_put", "", time.Millisecond)
	ts.Add(second, TraceMeta{Route: "put", Status: 200, Elapsed: time.Millisecond})

	st, ok := ts.Get("shared")
	if !ok {
		t.Fatal("merged trace missing")
	}
	if len(st.Spans) != 2 {
		t.Fatalf("merged spans = %d, want 2", len(st.Spans))
	}
	if ts.Stats().Kept != 1 {
		t.Fatalf("kept = %d, want 1 (merge is not a new keep)", ts.Stats().Kept)
	}
}

func TestTraceSpanCap(t *testing.T) {
	before := DroppedSpansTotal()
	tr := NewTraceFor("kserve", "capped", "")
	for i := 0; i < MaxTraceSpans+40; i++ {
		tr.Observe("s", tr.Start, time.Microsecond, 1)
	}
	if n := len(tr.Spans()); n != MaxTraceSpans {
		t.Fatalf("stored spans = %d, want %d", n, MaxTraceSpans)
	}
	if d := tr.DroppedSpans(); d != 40 {
		t.Fatalf("dropped = %d, want 40", d)
	}
	if got := DroppedSpansTotal() - before; got != 40 {
		t.Fatalf("global dropped counter advanced %d, want 40", got)
	}
	// The root span bypasses the cap: the request's own outcome must
	// never be the thing the cap throws away.
	tr.CloseRoot("scan", "", time.Millisecond)
	spans := tr.Spans()
	if !spans[len(spans)-1].Root {
		t.Fatal("root span missing after cap reached")
	}
	// And the store carries the count through.
	ts := NewTraceStore(4, 1, 0)
	ts.Add(tr, TraceMeta{Status: 200, Elapsed: time.Millisecond})
	if st, _ := ts.Get("capped"); st == nil || st.DroppedSpans != 40 {
		t.Fatalf("stored DroppedSpans = %+v", st)
	}
}

func TestRandomIDFallbackUnique(t *testing.T) {
	// The fallback path (crypto/rand failed) must still mint distinct
	// ids; exercise the counter arm directly.
	a, b := randomID(), randomID()
	if a == b || len(a) != 16 {
		t.Fatalf("randomID gave %q, %q", a, b)
	}
}

func TestAssembleTraceCrossHost(t *testing.T) {
	// Coordinator fragment: root + two shard fan-out spans + a stage.
	coord := &StoredTrace{
		TraceID: "T", Service: "kserve-0", DurMS: 10,
		Spans: []Span{
			{SpanID: "r0", Root: true, Service: "kserve-0", Name: "scan", OffsetMS: 0, DurMS: 10},
			{SpanID: "r0.1", ParentID: "r0", Service: "kserve-0", Name: "shard_1", OffsetMS: 2, DurMS: 6},
			{SpanID: "r0.2", ParentID: "r0", Service: "kserve-0", Name: "shard_0", OffsetMS: 1, DurMS: 4, Status: SpanDegraded},
		},
	}
	// Shard 1's fragment: its root attaches under the coordinator's
	// shard_1 span; its own clock says it started at offset 0.
	sh1 := &StoredTrace{
		TraceID: "T", Service: "kserve-1",
		Spans: []Span{
			{SpanID: "r1", ParentID: "r0.1", Root: true, Service: "kserve-1", Name: "scan", OffsetMS: 0, DurMS: 5},
			{SpanID: "r1.1", ParentID: "r1", Service: "kserve-1", Name: "engine_eval", OffsetMS: 1, DurMS: 3},
		},
	}
	// kcached's fragment: root under shard 1's in-process stage span.
	kc := &StoredTrace{
		TraceID: "T", Service: "kcached",
		Spans: []Span{
			{SpanID: "rc", ParentID: "r1.1", Root: true, Service: "kcached", Name: "kcached_get", OffsetMS: 0, DurMS: 0.4},
		},
	}
	// An orphan: its parent span's fragment was never collected.
	orphan := &StoredTrace{
		TraceID: "T", Service: "kserve-2",
		Spans: []Span{
			{SpanID: "r2", ParentID: "missing", Root: true, Service: "kserve-2", Name: "scan", OffsetMS: 0, DurMS: 2},
		},
	}

	asm := AssembleTrace("T", []*StoredTrace{sh1, kc, orphan, coord})
	if asm.Root == nil || asm.Root.SpanID != "r0" {
		t.Fatalf("root = %+v", asm.Root)
	}
	if asm.SpanCount != 7 || asm.Fragments != 4 {
		t.Fatalf("span_count=%d fragments=%d", asm.SpanCount, asm.Fragments)
	}
	want := []string{"kcached", "kserve-0", "kserve-1", "kserve-2"}
	if len(asm.Services) != 4 || asm.Services[0] != want[0] || asm.Services[3] != want[3] {
		t.Fatalf("services = %v, want %v", asm.Services, want)
	}
	if len(asm.Orphans) != 1 || asm.Orphans[0].SpanID != "r2" {
		t.Fatalf("orphans = %+v", asm.Orphans)
	}

	// Children of the root sort by rebased offset: shard_0 (1ms) before
	// shard_1 (2ms).
	if asm.Root.Children[0].Name != "shard_0" || asm.Root.Children[1].Name != "shard_1" {
		t.Fatalf("root children order: %s, %s", asm.Root.Children[0].Name, asm.Root.Children[1].Name)
	}

	// Fragment-root rebasing: shard 1's root starts AT shard_1's abs
	// offset; its child keeps its in-fragment delta on top of that.
	sh1Node := asm.Root.Children[1].Children[0]
	if sh1Node.SpanID != "r1" || sh1Node.AbsOffsetMS != 2 {
		t.Fatalf("shard-1 fragment root: %+v", sh1Node)
	}
	eval := sh1Node.Children[0]
	if eval.SpanID != "r1.1" || eval.AbsOffsetMS != 3 {
		t.Fatalf("engine_eval abs offset = %v, want 3", eval.AbsOffsetMS)
	}
	kcNode := eval.Children[0]
	if kcNode.SpanID != "rc" || kcNode.AbsOffsetMS != 3 {
		t.Fatalf("kcached abs offset = %v, want 3 (parent's offset)", kcNode.AbsOffsetMS)
	}

	// Parent/child offset consistency across the whole tree.
	var walk func(n *TraceNode)
	walk = func(n *TraceNode) {
		for _, c := range n.Children {
			if c.AbsOffsetMS < n.AbsOffsetMS {
				t.Fatalf("child %s (%v) starts before parent %s (%v)",
					c.SpanID, c.AbsOffsetMS, n.SpanID, n.AbsOffsetMS)
			}
			walk(c)
		}
	}
	walk(asm.Root)

	wf := asm.Waterfall()
	for _, frag := range []string{"kserve-0 scan", "shard_1", "kserve-1 scan", "kcached kcached_get", "[degraded_local_fallback]", "orphans"} {
		if !strings.Contains(wf, frag) {
			t.Fatalf("waterfall missing %q:\n%s", frag, wf)
		}
	}
}

func TestAssembleTraceEmpty(t *testing.T) {
	asm := AssembleTrace("none", nil)
	if asm.SpanCount != 0 || asm.Root != nil || len(asm.Orphans) != 0 {
		t.Fatalf("empty assembly = %+v", asm)
	}
}

func TestExemplarExposition(t *testing.T) {
	reg := NewRegistry("t")
	h := reg.Histogram("scan_duration_seconds", "Scan wall time.", []float64{0.1, 1})
	h.ObserveExemplar(0.05, "trace-a")
	h.ObserveExemplar(0.5, "trace-b")
	h.Observe(0.7) // plain observe leaves trace-b in place
	text := expose(t, reg)
	if _, err := CheckExposition(text); err != nil {
		t.Fatalf("exposition with exemplars rejected: %v\n%s", err, text)
	}
	if !strings.Contains(text, `# EXEMPLAR t_scan_duration_seconds_bucket{le="0.1"} trace_id="trace-a"`) {
		t.Fatalf("missing le=0.1 exemplar:\n%s", text)
	}
	if !strings.Contains(text, `# EXEMPLAR t_scan_duration_seconds_bucket{le="1"} trace_id="trace-b"`) {
		t.Fatalf("missing le=1 exemplar:\n%s", text)
	}
	if m := h.Exemplars(); m["0.1"] != "trace-a" || m["1"] != "trace-b" {
		t.Fatalf("Exemplars() = %v", m)
	}
}

func TestCheckExpositionRejectsBadExemplars(t *testing.T) {
	// An exemplar referencing a series that was never emitted.
	bad := "t_x_bucket{le=\"1\"} 3\n# EXEMPLAR t_y_bucket{le=\"1\"} trace_id=\"t\"\n"
	if _, err := CheckExposition(bad); err == nil || !strings.Contains(err.Error(), "unknown series") {
		t.Fatalf("unknown-series exemplar not rejected: %v", err)
	}
	// An exemplar before its bucket line (writer contract: after).
	early := "# EXEMPLAR t_x_bucket{le=\"1\"} trace_id=\"t\"\nt_x_bucket{le=\"1\"} 3\n"
	if _, err := CheckExposition(early); err == nil {
		t.Fatal("early exemplar not rejected")
	}
	// Malformed exemplar comment.
	malformed := "t_x_bucket{le=\"1\"} 3\n# EXEMPLAR not a series\n"
	if _, err := CheckExposition(malformed); err == nil || !strings.Contains(err.Error(), "exemplar grammar") {
		t.Fatalf("malformed exemplar not rejected: %v", err)
	}
}
