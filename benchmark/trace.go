package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval: an HTTP call the runner made, a stage
// the daemon reported for that call, or a layer-probe batch. Times are
// milliseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int    `json:"req"`    // spans of one request share it; 0 for probes
	Name   string `json:"name"`
	// Layer is the module the time belongs to.
	Layer   string  `json:"layer"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	// Count is the number of operations an aggregate span covers.
	Count int `json:"count,omitempty"`
	// SelfMS is filled by finish: the span's duration minus the part of
	// it its children cover.
	SelfMS float64 `json:"self_ms"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how end-to-end runs keep tracing off.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) rel(at time.Time) float64 { return ms(at.Sub(t.epoch)) }

// request records one HTTP call and, under it, the stage timeline the
// daemon returned for it. The daemon's offsets are relative to its own
// request start, which on loopback is the client's send time to within
// microseconds, so stages are placed from the call's start.
func (t *tracer) request(name string, start time.Time, total time.Duration, stages []wireSpan) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	req := t.reqs
	root := span{ID: len(t.spans) + 1, Req: req, Name: name, Layer: "kserve", StartMS: t.rel(start), EndMS: t.rel(start.Add(total))}
	t.spans = append(t.spans, root)
	for _, st := range stages {
		t.spans = append(t.spans, span{
			ID: len(t.spans) + 1, Parent: root.ID, Req: req, Name: st.Name, Layer: stageLayer(st.Name),
			StartMS: root.StartMS + st.OffsetMS, EndMS: root.StartMS + st.OffsetMS + st.DurMS, Count: st.Count,
		})
	}
}

// stageLayer names the module a daemon stage span spends its time in.
func stageLayer(stage string) string {
	switch stage {
	case "cache_probe":
		return "store"
	case "engine_eval":
		return "engine"
	case "admission_wait":
		return "kserve"
	}
	return "scan"
}

// probe records one batch of calls into a layer's public functions.
func (t *tracer) probe(layer, name string, start time.Time, d time.Duration, count int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Layer: layer,
		StartMS: t.rel(start), EndMS: t.rel(start.Add(d)), Count: count})
}

// finish computes every span's self time. Daemon stage spans are
// aggregates summed across workers, so siblings can overlap and overrun
// their parent; a child therefore only claims the part of its interval
// that lies inside the parent and after its earlier siblings. With that,
// the self times of a request's spans sum to the request's duration.
func finish(spans []span) {
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	var walk func(i int, lo, hi float64)
	walk = func(i int, lo, hi float64) {
		ch := kids[spans[i].ID]
		sort.SliceStable(ch, func(a, b int) bool { return spans[ch[a]].StartMS < spans[ch[b]].StartMS })
		covered, cursor := 0.0, lo
		for _, c := range ch {
			clo, chi := max(spans[c].StartMS, cursor), min(spans[c].EndMS, hi)
			if chi < clo {
				chi = clo
			}
			walk(c, clo, chi)
			covered += chi - clo
			cursor = chi
		}
		spans[i].SelfMS = (hi - lo) - covered
	}
	for i, s := range spans {
		if s.Parent == 0 {
			walk(i, s.StartMS, s.EndMS)
		}
	}
}

// selfRow aggregates self time by (layer, span name).
type selfRow struct {
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	SelfMS float64 `json:"self_ms"`
}

// layerRow is one line of the per-layer table: the value measured, how
// (P probe, S /stats delta, C client-side) and which end-to-end metric
// on which workload it is expected to move.
type layerRow struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Kind   string  `json:"kind"`
	Better string  `json:"better"`
	Moves  string  `json:"should_move"`
}

type traceFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Requests int        `json:"requests"`
	Layers   []layerRow `json:"layers"`
	Self     []selfRow  `json:"self_time"`
	Spans    []span     `json:"spans"`
}

// write finishes the spans and writes trace_<workload>.json: the
// per-layer table, self time by layer and span name, and every span.
func (t *tracer) write(dir, workload string, seed int64, layers map[string]metricValue) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	finish(t.spans)
	agg := map[[2]string]*selfRow{}
	for _, s := range t.spans {
		k := [2]string{s.Layer, s.Name}
		if agg[k] == nil {
			agg[k] = &selfRow{Layer: s.Layer, Name: s.Name}
		}
		agg[k].Spans++
		agg[k].SelfMS += s.SelfMS
	}
	tf := traceFile{Workload: workload, Seed: seed, Requests: t.reqs, Spans: t.spans}
	for _, l := range perLayer {
		tf.Layers = append(tf.Layers, layerRow{l.Name, layers[l.Name].Value, l.Unit, l.Kind, l.Better, l.Moves})
	}
	for _, r := range agg {
		tf.Self = append(tf.Self, *r)
	}
	sort.Slice(tf.Self, func(a, b int) bool { return tf.Self[a].SelfMS > tf.Self[b].SelfMS })
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, nil
}
