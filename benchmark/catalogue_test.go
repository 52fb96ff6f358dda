package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// BENCHMARK.json is the serialized catalogue: same command, paths,
// workloads, metrics, units, directions and bounds, nothing else.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(onDisk, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &b); err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Error("BENCHMARK.json differs from the runner's catalogue; regenerate it with\n  .bench_build/bin/kbenchrun -describe > BENCHMARK.json")
	}
}

// The acceptance driver refuses a BENCHMARK.json outside these limits
// before a single run.
func TestCatalogueWithinContractLimits(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not a valid metric/workload name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		// The window's op count at run_seconds is recorded in the why.
		leaders := 1
		if w.Name == wlWarmServe {
			leaders = 2
		}
		n := windowOps(w.Name, defaultRunSeconds, leaders)
		if want := fmt.Sprintf("N=%d: ", n); !strings.HasPrefix(w.Why, want) {
			t.Errorf("%s: why starts %.12q, want %q", w.Name, w.Why, want)
		}
		if beyond := samplesBeyond(n, 0.9); beyond < 10 {
			t.Errorf("%s: N=%d leaves %d samples beyond p90, want at least 10", w.Name, n, beyond)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	maxBound, setupBound := 0.0, -1.0
	for _, m := range endToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, l := range perLayer {
		name(l.Name)
		if !unitRE.MatchString(l.Unit) {
			t.Errorf("%s: bad unit %q", l.Name, l.Unit)
		}
		if l.Better != "lower" && l.Better != "higher" {
			t.Errorf("%s: better = %q", l.Name, l.Better)
		}
		if l.Kind != "P" && l.Kind != "S" && l.Kind != "C" {
			t.Errorf("%s: kind %q", l.Name, l.Kind)
		}
		if l.Moves == "" {
			t.Errorf("%s: no end-to-end metric it should move", l.Name)
		}
	}
	b, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json would be %d bytes, limit 64 KiB", len(b))
	}
	if defaultRunSeconds < 1 || defaultRunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", defaultRunSeconds)
	}
}

// The traced pass must produce exactly the per-layer metrics the
// catalogue lists: the window's counters and client measurements plus
// the in-process probes, which are run here for real on seed 1.
func TestRunnerProducesExactlyTheCatalogue(t *testing.T) {
	in := inputsSeed1(t)
	sup := newSupervisor(t.TempDir())
	defer sup.stopAll()
	e := &env{in: in, sc: newScript(in), dig: newDigester(in), sup: sup, tr: newTracer()}
	col := newCollector()
	col.recordOp(time.Millisecond, false)
	col.recordOp(2*time.Millisecond, true)
	col.recordRead(time.Millisecond, time.Millisecond, 0.5, 100)
	got := e.windowLayers(col, counters{}, 0)
	probes, err := e.probes()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range probes {
		if _, dup := got[k]; dup {
			t.Errorf("%s is produced twice", k)
		}
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("probe %s = %v, want a positive finite number", k, v)
		}
		got[k] = v
	}
	var have, want []string
	for k := range got {
		have = append(have, k)
	}
	for _, l := range perLayer {
		want = append(want, l.Name)
	}
	sort.Strings(have)
	sort.Strings(want)
	if !bytes.Equal([]byte(joinLines(have)), []byte(joinLines(want))) {
		t.Errorf("runner produces\n%s\ncatalogue lists\n%s", joinLines(have), joinLines(want))
	}
	if got["obs.trace_overhead_pct"] != 100 {
		t.Errorf("trace overhead of 1 ms plain vs 2 ms timed = %v%%, want 100", got["obs.trace_overhead_pct"])
	}
	if len(e.tr.spans) != 8 {
		t.Errorf("%d probe spans recorded, want one per probe step (8)", len(e.tr.spans))
	}
}

func joinLines(s []string) string {
	var b bytes.Buffer
	for _, x := range s {
		b.WriteString(x)
		b.WriteByte('\n')
	}
	return b.String()
}
