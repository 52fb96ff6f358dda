package obs

import (
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sampleRegistry builds a registry exercising every metric kind, label
// shapes, and escaping.
func sampleRegistry() *Registry {
	reg := NewRegistry("t")
	reg.Counter("plain_total", "An unlabeled counter.").Add(3)
	cv := reg.CounterVec("requests_total", "Labeled counter.", "tier", "op")
	cv.With("memory", "get").Add(10)
	cv.With("remote", "get").Inc()
	cv.With("remote", "put").Inc()
	reg.GaugeVec("depth", "An unlabeled gauge.").With().Set(4)
	reg.GaugeFunc("uptime_seconds", "Func gauge.", func() float64 { return 1.5 })
	reg.CounterFunc("engine_cancels_total", "Func counter.", func() float64 { return 7 })
	h := reg.Histogram("latency_seconds", "A histogram.", nil)
	for _, v := range []float64{0.0001, 0.003, 0.003, 0.2, 99} {
		h.Observe(v)
	}
	hv := reg.HistogramVec("stage_seconds", "Labeled histogram.", []float64{0.01, 0.1, 1}, "stage")
	hv.With("parse").Observe(0.05)
	hv.With(`we"ird\st` + "\n" + `age`).Observe(0.5)
	reg.GaugeVec("build_info", "Build identity.", "version", "go").With("v1.2.3", "go1.23").Set(1)
	return reg
}

func expose(t *testing.T, reg *Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return b.String()
}

// ParsePromText is the test-side grammar check shared with the daemon
// tests: every non-comment line must match the sample grammar, and no
// series (name + label set) may appear twice. It returns the series
// identities in order.
func ParsePromText(t *testing.T, text string) []string {
	t.Helper()
	ids, err := CheckExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestExpositionGrammarAndUniqueness(t *testing.T) {
	text := expose(t, sampleRegistry())
	ids := ParsePromText(t, text)
	if len(ids) == 0 {
		t.Fatal("no series exposed")
	}
	for _, want := range []string{
		`t_plain_total 3`,
		`t_requests_total{tier="remote",op="get"} 1`,
		`t_uptime_seconds 1.5`,
		`t_engine_cancels_total 7`,
		`t_build_info{version="v1.2.3",go="go1.23"} 1`,
		`t_latency_seconds_count 5`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q\n---\n%s", want, text)
		}
	}
	// Escaped label values survive round-tripping through the grammar.
	if !strings.Contains(text, `stage="we\"ird\\st\nage"`) {
		t.Errorf("label escaping broken:\n%s", text)
	}
}

func TestHistogramBucketInvariants(t *testing.T) {
	text := expose(t, sampleRegistry())
	// For every histogram: cumulative bucket counts are monotone
	// non-decreasing in le, the +Inf bucket equals _count, and every
	// histogram ends with le="+Inf".
	type hist struct {
		lastLE    float64
		lastCount uint64
		sawInf    bool
		infCount  uint64
	}
	hists := map[string]*hist{}
	bucketRe := regexp.MustCompile(`^(.+)_bucket\{(?:.*,)?le="([^"]+)"\} (\d+)$`)
	countRe := regexp.MustCompile(`^(.+)_count(\{[^}]*\})? (\d+)$`)
	counts := map[string]uint64{}
	for _, line := range strings.Split(text, "\n") {
		if m := bucketRe.FindStringSubmatch(line); m != nil {
			key := m[1] + "|" + labelPart(line)
			h := hists[key]
			if h == nil {
				h = &hist{lastLE: -1}
				hists[key] = h
			}
			n, _ := strconv.ParseUint(m[3], 10, 64)
			if n < h.lastCount {
				t.Errorf("bucket counts not monotone at %q", line)
			}
			if m[2] == "+Inf" {
				h.sawInf = true
				h.infCount = n
			} else {
				le, err := strconv.ParseFloat(m[2], 64)
				if err != nil {
					t.Fatalf("bad le in %q: %v", line, err)
				}
				if le <= h.lastLE {
					t.Errorf("le bounds not increasing at %q", line)
				}
				h.lastLE = le
			}
			h.lastCount = n
		} else if m := countRe.FindStringSubmatch(line); m != nil {
			n, _ := strconv.ParseUint(m[3], 10, 64)
			counts[m[1]+"|"+labelPart(line)] = n
		}
	}
	if len(hists) < 3 {
		t.Fatalf("expected at least 3 histogram series, saw %d", len(hists))
	}
	for key, h := range hists {
		if !h.sawInf {
			t.Errorf("histogram %s has no +Inf bucket", key)
		}
		if c, ok := counts[key]; !ok || c != h.infCount {
			t.Errorf("histogram %s: +Inf bucket %d != _count %d", key, h.infCount, c)
		}
	}
}

// labelPart extracts the non-le labels of a sample line, so bucket lines
// group with their _sum/_count siblings.
func labelPart(line string) string {
	i := strings.IndexByte(line, '{')
	if i < 0 {
		return ""
	}
	j := strings.LastIndexByte(line, '}')
	labels := line[i+1 : j]
	var keep []string
	for _, kv := range strings.Split(labels, ",") {
		if !strings.HasPrefix(kv, `le="`) {
			keep = append(keep, kv)
		}
	}
	return strings.Join(keep, ",")
}

func TestRegistrationIsIdempotent(t *testing.T) {
	reg := NewRegistry("x")
	a := reg.Counter("c_total", "h")
	b := reg.Counter("c_total", "h")
	if a != b {
		t.Fatal("re-registering a counter returned a different instance")
	}
	v1 := reg.CounterVec("v_total", "h", "tier")
	v2 := reg.CounterVec("v_total", "h", "tier")
	v1.With("memory").Inc()
	if v2.With("memory").Value() != 1 {
		t.Fatal("vec re-registration did not share series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	reg.GaugeVec("c_total", "h")
}

func TestHistogramObserveBoundaries(t *testing.T) {
	reg := NewRegistry("t")
	h := reg.Histogram("bounds_seconds", "h", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	h.Observe(1.5)
	h.Observe(100) // +Inf bucket
	if got := h.counts[0].Load(); got != 1 {
		t.Fatalf("bucket le=1 = %d, want 1", got)
	}
	if got := h.counts[1].Load(); got != 1 {
		t.Fatalf("bucket le=2 = %d, want 1", got)
	}
	if got := h.counts[2].Load(); got != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", got)
	}
	text := expose(t, reg)
	for _, line := range []string{"t_bounds_seconds_sum 102.5\n", "t_bounds_seconds_count 3\n"} {
		if !strings.Contains(text, line) {
			t.Fatalf("exposition lacks %q:\n%s", line, text)
		}
	}
}

func TestTraceTimelineAndContext(t *testing.T) {
	tr := NewTraceFor("", "", "")
	if tr.ID == "" || len(tr.ID) != 16 {
		t.Fatalf("generated trace id %q, want 16 hex chars", tr.ID)
	}
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom did not return the carried trace")
	}
	if TraceFrom(context.Background()) != nil || TraceFrom(nil) != nil {
		t.Fatal("TraceFrom on empty/nil context must be nil")
	}
	start := tr.Start.Add(2 * time.Millisecond)
	tr.Observe("parse", start, 3*time.Millisecond, 120)
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "parse" || spans[0].Count != 120 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].OffsetMS < 1.9 || spans[0].OffsetMS > 2.1 || spans[0].DurMS != 3 {
		t.Fatalf("span timing = %+v", spans[0])
	}
	if s := tr.String(); !strings.Contains(s, "parse=3.000ms/120") {
		t.Fatalf("String() = %q", s)
	}
	// nil trace is inert.
	var nilTr *Trace
	nilTr.Observe("x", time.Now(), time.Second, 1)
	if nilTr.Spans() != nil {
		t.Fatal("nil trace must have no spans")
	}
}

func TestTraceIDSanitized(t *testing.T) {
	tr := NewTraceFor("", "ok-id_123", "")
	if tr.ID != "ok-id_123" {
		t.Fatalf("clean id mangled: %q", tr.ID)
	}
	tr = NewTraceFor("", "evil\nid\x00"+strings.Repeat("a", 100), "")
	if strings.ContainsAny(tr.ID, "\n\x00") || len(tr.ID) > 64 {
		t.Fatalf("hostile id not sanitized: %q", tr.ID)
	}
}

// scrape renders reg and returns the value of the unlabeled series name,
// after checking the whole exposition with CheckExposition.
func scrape(t *testing.T, reg *Registry, name string) float64 {
	t.Helper()
	var b strings.Builder
	reg.WriteTo(&b)
	if _, err := CheckExposition(b.String()); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("exposition has no %s:\n%s", name, b.String())
	return 0
}

var sink []byte

// TestBuildInfoReportsRuntimeCost: the runtime series RegisterBuildInfo
// adds are read at scrape time, so allocating 1 MiB between two scrapes
// moves the allocated-bytes counter by at least that much.
func TestBuildInfoReportsRuntimeCost(t *testing.T) {
	reg := NewRegistry("t")
	RegisterBuildInfo(reg, nil)
	for _, name := range []string{"t_go_gc_cpu_seconds_total", "t_go_heap_alloc_objects_total", "t_go_heap_live_bytes"} {
		if v := scrape(t, reg, name); v < 0 {
			t.Errorf("%s = %v", name, v)
		}
	}
	before := scrape(t, reg, "t_go_heap_alloc_bytes_total")
	sink = make([]byte, 1<<20)
	if after := scrape(t, reg, "t_go_heap_alloc_bytes_total"); after-before < 1<<20 {
		t.Fatalf("allocating 1 MiB moved go_heap_alloc_bytes_total by %v", after-before)
	}
	sink = nil
}
