// Package obs is the fleet's observability layer: dependency-free
// counters, gauges, and latency histograms with Prometheus text-format
// exposition, plus per-request trace timelines (trace.go).
//
// The ROADMAP's cache/admission/fleet machinery is invisible without it:
// the remote tier silently degrades to local misses behind a circuit
// breaker, admission sheds with 429s, and canceled analyses quietly
// drop results from the cache. Every one of those behaviors is correct — and
// indistinguishable from a performance bug unless it is counted. This
// package holds the counting; kserve and kcached expose it on GET
// /metrics.
//
// The implementation is deliberately a small subset of the Prometheus
// client model (families, label vectors, cumulative histogram buckets)
// rather than a dependency: the repo's constraint is stdlib-only, and
// the exposition grammar is simple enough to own.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DurationBuckets is the default histogram layout for request and stage
// latencies: 100µs to 10s, roughly logarithmic — wide enough to cover a
// memory-tier hit (microseconds) and a cold full-corpus scan (seconds)
// in one series.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// atomicFloat is a float64 with atomic Add/Store/Load, the value cell
// behind gauges and histogram sums.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Load() float64   { return math.Float64frombits(a.bits.Load()) }
func (a *atomicFloat) Store(v float64) { a.bits.Store(math.Float64bits(v)) }

func (a *atomicFloat) Add(d float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Counter is a monotonically increasing count: one integer cell, so N
// workers hammering one counter pay one atomic add each, never a CAS
// retry.
type Counter struct{ n atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n, which must be non-negative (a negative n is dropped so a
// buggy caller cannot make a counter go backwards).
func (c *Counter) Add(n int) {
	if n > 0 {
		c.n.Add(uint64(n))
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return float64(c.n.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram is a cumulative-bucket latency histogram (the Prometheus
// model: _bucket{le="..."} series plus _sum and _count).
type Histogram struct {
	// bounds are the ascending bucket upper limits, excluding +Inf.
	bounds []float64
	// counts[i] counts observations <= bounds[i]; the final slot is the
	// +Inf bucket. Stored non-cumulative; exposition accumulates.
	counts []atomic.Uint64
	sum    atomicFloat
	// exemplars[i] is the trace id of the LAST observation to land in
	// bucket i (nil until one does) — the link from a latency bucket on
	// a dashboard to an assembled trace on GET /trace/{id}.
	exemplars []atomic.Pointer[string]
}

func newHistogram(buckets []float64) *Histogram {
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	sort.Float64s(bounds)
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[string], len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveExemplar is Observe plus an exemplar: traceID becomes the
// bucket's last-seen trace id, surfaced in /stats and as an # EXEMPLAR
// exposition comment. An empty id degrades to plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	if traceID != "" {
		h.exemplars[i].Store(&traceID)
	}
}

// Exemplars returns the last trace id per bucket, keyed by the bucket's
// le value as rendered in the exposition ("+Inf" for the overflow
// bucket). Buckets without an exemplar are absent.
func (h *Histogram) Exemplars() map[string]string {
	out := map[string]string{}
	for i := range h.exemplars {
		id := h.exemplars[i].Load()
		if id == nil || *id == "" {
			continue
		}
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		out[le] = *id
	}
	return out
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// metric kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one label-value combination of a family: exactly one of the
// value cells is live, matching the family's kind.
type series struct {
	labels []string // label values, in the family's label-name order
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // callback-backed counter/gauge
}

// family is one named metric: a kind, a label schema, and a set of
// series (one per label-value combination; a single unlabeled series
// when the schema is empty).
type family struct {
	name   string
	help   string
	kind   string
	labels []string  // label names
	bucket []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
}

// seriesFor returns (creating if needed) the series for the given label
// values.
func (f *family) seriesFor(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: append([]string(nil), values...)}
		switch f.kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = newHistogram(f.bucket)
		}
		f.series[key] = s
	}
	return s
}

// Registry holds a namespace's metric families and renders them in
// Prometheus text format. All methods are safe for concurrent use, and
// registration is idempotent: asking twice for the same name returns the
// same family (a kind or label-schema mismatch panics — that is a
// programming error, not a runtime condition).
type Registry struct {
	ns string

	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns a registry whose metric names are prefixed with
// namespace + "_" (empty namespace = no prefix).
func NewRegistry(namespace string) *Registry {
	return &Registry{ns: namespace, families: map[string]*family{}}
}

func (r *Registry) fullName(name string) string {
	if r.ns == "" {
		return name
	}
	return r.ns + "_" + name
}

func (r *Registry) family(name, help, kind string, buckets []float64, labels []string) *family {
	full := r.fullName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[full]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different kind or label schema", full))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with different label names", full))
			}
		}
		return f
	}
	f := &family{
		name: full, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		bucket: buckets,
		series: map[string]*series{},
	}
	r.families[full] = f
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, nil, nil).seriesFor(nil).c
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, kindCounter, nil, labels)}
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the bridge for pre-existing atomic counters (server
// request totals, engine timeout counts) that should not be double
// maintained.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindCounter, nil, nil)
	f.mu.Lock()
	f.series[""] = &series{fn: fn}
	f.mu.Unlock()
}

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, kindGauge, nil, labels)}
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time (queue depths, breaker state, uptime).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGauge, nil, nil)
	f.mu.Lock()
	f.series[""] = &series{fn: fn}
	f.mu.Unlock()
}

// Histogram registers (or fetches) an unlabeled histogram with the given
// bucket upper bounds (nil = DurationBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DurationBuckets
	}
	return r.family(name, help, kindHistogram, buckets, nil).seriesFor(nil).h
}

// HistogramVec registers a histogram family with the given label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DurationBuckets
	}
	return &HistogramVec{f: r.family(name, help, kindHistogram, buckets, labels)}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first
// use).
func (v *CounterVec) With(values ...string) *Counter { return v.f.seriesFor(values).c }

// WithFunc installs a callback-backed series at the given label values —
// the labeled sibling of CounterFunc, bridging state that is already
// counted elsewhere (a store tier's own stats atomics, a server's
// request totals) into a shared family without maintaining the count
// twice. Call at registration time, before the registry serves scrapes.
func (v *CounterVec) WithFunc(fn func() float64, values ...string) {
	v.f.seriesFor(values).fn = fn
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.seriesFor(values).g }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.seriesFor(values).h }

// Handler returns an http.Handler serving the registry in Prometheus
// text format — the GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}

// WriteTo renders every family in Prometheus text format, families
// sorted by name and series sorted by label values — a deterministic
// snapshot, so two scrapes with no traffic in between are byte-identical.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make([]*series, len(keys))
	for i, k := range keys {
		ordered[i] = f.series[k]
	}
	f.mu.Unlock()
	if len(ordered) == 0 {
		return
	}

	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range ordered {
		switch {
		case s.fn != nil:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, s.labels, "", 0), formatFloat(s.fn()))
		case f.kind == kindHistogram:
			cum := uint64(0)
			for i, bound := range s.h.bounds {
				cum += s.h.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labels, "le", bound), cum)
				writeExemplar(b, f.name, labelString(f.labels, s.labels, "le", bound), s.h, i)
			}
			cum += s.h.counts[len(s.h.bounds)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labels, "le", math.Inf(1)), cum)
			writeExemplar(b, f.name, labelString(f.labels, s.labels, "le", math.Inf(1)), s.h, len(s.h.bounds))
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, s.labels, "", 0), formatFloat(s.h.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, s.labels, "", 0), cum)
		case f.kind == kindCounter:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, s.labels, "", 0), formatFloat(s.c.Value()))
		default:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, s.labels, "", 0), formatFloat(s.g.Value()))
		}
	}
}

// writeExemplar emits the bucket's exemplar comment, if one was
// recorded:
//
//	# EXEMPLAR name_bucket{...,le="0.5"} trace_id="4f00d3a2"
//
// A comment line keeps the payload inside the plain text-format grammar
// (the OpenMetrics "# {}" syntax would break version=0.0.4 parsers);
// CheckExposition validates the shape and that the referenced bucket
// series exists.
func writeExemplar(b *strings.Builder, name, labels string, h *Histogram, i int) {
	id := h.exemplars[i].Load()
	if id == nil || *id == "" {
		return
	}
	fmt.Fprintf(b, "# EXEMPLAR %s_bucket%s trace_id=\"%s\"\n", name, labels, escapeLabel(*id))
}

// labelString renders {name="value",...}, appending an le label when
// leName is non-empty. Empty schema and no le = empty string.
func labelString(names, values []string, leName string, le float64) string {
	if len(names) == 0 && leName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if leName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leName)
		b.WriteString(`="`)
		b.WriteString(formatFloat(le))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
