package main

import (
	"encoding/json"
	"math"
)

// The catalogue is the single list of what the runner measures.
// BENCHMARK.json at the repo root is its serialized form (-describe
// prints it; TestBenchmarkJSONMatchesCatalogue keeps the two equal).

// workloadDef is one workload. Rate is its calibrated ops per second of
// measured window: nine tenths of what the 2-core development box did
// over the 80 runs of REPEATABILITY.md (cold_sweep's rounded up, to the
// N that leaves ten samples beyond p90). A window is Rate times --seconds
// ops, whatever the machine's speed on the day, and Why states the count
// at run_seconds.
type workloadDef struct {
	Name string  `json:"name"`
	Rate float64 `json:"-"`
	Why  string  `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerDef is a per-layer metric. Kind says how it is measured: P is an
// in-process probe of the layer's public functions, S a delta of the
// daemons' /stats, C a client-side measurement. Moves names the
// end-to-end metric and workload the number is expected to move; both
// go into the README table and every trace_<workload>.json, not into
// BENCHMARK.json (its keys are fixed).
type layerDef struct {
	Name   string
	Unit   string
	Better string
	Kind   string
	Moves  string
}

const (
	wlWarmServe    = "warm_serve"
	wlColdSweep    = "cold_sweep"
	wlCommitRescan = "commit_rescan"
	wlFleetCommit  = "fleet_commit"
)

var workloads = []workloadDef{
	{wlWarmServe, 300, "N=5400: 2 closed-loop clients re-scan pre-warmed checkers: all time is compile, key hashing, memory-tier gets, merge, JSON and HTTP; the engine does nothing, so it is the bypass for engine work"},
	{wlColdSweep, 6, "N=108: 1 closed-loop client sends /batch of 2 never-seen checker revisions: hit rate exactly 0, no evictions, time is engine.AnalyzeFunc plus store puts; bypasses every cache-hit path"},
	{wlCommitRescan, 120, "N=2160: commit 4 files then re-scan at that generation, beside a 25/s open-loop reader, on one kserve: re-parse, stage/commit/swap, invalidation and re-puts while readers keep scanning"},
	{wlFleetCommit, 62, "N=1116: the commit_rescan script through kcached and two kserve shards: adds feed publish, converge, scatter, merge and the remote tier; minus commit_rescan it is the fleet tax"},
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"read_ms_p50", "ms", "lower", 0.25},
	{"ttfb_ms_p50", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

var perLayer = []layerDef{
	// kernel/scan boot and the synthesis pipeline: setup_s everywhere.
	{"kernel.generate_ms", "ms", "lower", "P", "setup_s on every workload"},
	{"scan.newcodebase_ms", "ms", "lower", "P", "setup_s on every workload"},
	{"synth.gen_checker_ms_p50", "ms", "lower", "P", "nothing yet; baseline for the deferred synth_loop"},
	// ckdsl/api/kserve: the per-request envelope.
	{"ckdsl.compile_us_p50", "us", "lower", "P", "warm_serve/op_ms_p50; <5% of cold_sweep"},
	{"api.encode_scan_us_p50", "us", "lower", "P", "warm_serve/op_ms_p50"},
	{"api.response_bytes_p50", "B", "lower", "C", "warm_serve/op_ms_p50, ttfb_ms_p50"},
	{"kserve.http_overhead_ms_p50", "ms", "lower", "C", "warm_serve/op_ms_p50"},
	{"kserve.admission_shed", "count", "lower", "S", "failed ops; expect 0"},
	// scan scheduler.
	{"scan.warm_run_ms_p50", "ms", "lower", "P", "warm_serve/op_ms_p50"},
	{"scan.cold_run_ms_p50", "ms", "lower", "P", "cold_sweep/op_ms_p50"},
	{"scan.batch_run_ms_p50", "ms", "lower", "P", "cold_sweep/op_ms_p50"},
	{"scan.stage_parse_ms", "ms", "lower", "P", "warm_serve/op_ms_p50"},
	{"scan.stage_cache_probe_ms", "ms", "lower", "P", "warm_serve/op_ms_p50"},
	{"scan.stage_engine_eval_ms", "ms", "lower", "P", "cold_sweep/op_ms_p50"},
	{"scan.stage_serialize_ms", "ms", "lower", "P", "warm_serve/op_ms_p50"},
	// engine.
	{"engine.analyze_func_us_p50", "us", "lower", "P", "cold_sweep/op_ms_p50, ops_per_s; none on warm_serve"},
	{"engine.analyze_func_us_p90", "us", "lower", "P", "cold_sweep/op_ms_p90"},
	{"engine.funcs_per_s", "1/s", "higher", "P", "cold_sweep/ops_per_s"},
	// store memory tier.
	{"store.memory_get_ns_p50", "ns", "lower", "P", "warm_serve/op_ms_p50"},
	{"store.memory_put_ns_p50", "ns", "lower", "P", "cold_sweep/op_ms_p50"},
	{"store.memory_invalidate_us_p50", "us", "lower", "P", "commit_rescan, fleet_commit/op_ms_p50"},
	{"store.hit_rate", "ratio", "higher", "S", "1 on warm_serve, 0 on cold_sweep, ~1 on the commit workloads"},
	{"store.evictions", "count", "lower", "S", "must stay 0: every window fits the default memory tier"},
	{"store.coalesced", "count", "higher", "S", "commit workloads: reader and committer missing the same key"},
	// minic and the write path.
	{"minic.parse_file_us_p50", "us", "lower", "P", "commit_rescan, fleet_commit/op_ms_p50"},
	{"minic.format_func_us_p50", "us", "lower", "P", "commit_rescan, fleet_commit/op_ms_p50"},
	{"api.decode_changeset_us_p50", "us", "lower", "P", "commit_rescan, fleet_commit/op_ms_p50"},
	{"scan.apply_changeset_us_p50", "us", "lower", "P", "commit_rescan, fleet_commit/op_ms_p50"},
	{"kserve.pinned_snapshots_max", "count", "lower", "S", "commit workloads/peak_rss_mb"},
	// shard fan-out.
	{"shard.merge_scan_us_p50", "us", "lower", "P", "fleet_commit/op_ms_p50, read_ms_p50 only"},
	{"shard.scatter_tax_ms_p50", "ms", "lower", "P", "fleet_commit/op_ms_p50, read_ms_p50 only"},
	{"shard.feed_publish_us_p50", "us", "lower", "P", "fleet_commit/op_ms_p50 only"},
	{"shard.feed_since_us_p50", "us", "lower", "P", "fleet_commit/op_ms_p50 only"},
	{"shard.degraded_scatters", "count", "lower", "S", "fleet_commit must stay 0"},
	{"shard.hedged_sub_scans", "count", "lower", "S", "fleet_commit; expect 0"},
	{"shard.converges", "count", "higher", "S", "fleet_commit: one per commit on the peer shard"},
	{"shard.sub_scans_served", "count", "higher", "S", "fleet_commit: one per coordinated scan"},
	// remote tier, segment log, kcached.
	{"store.remote_get_us_p50", "us", "lower", "P", "fleet_commit/op_ms_p50 only"},
	{"store.remote_put_us_p50", "us", "lower", "P", "fleet_commit/op_ms_p50, setup_s only"},
	{"store.remote_errors", "count", "lower", "S", "fleet_commit; expect 0"},
	{"store.segdisk_get_us_p50", "us", "lower", "P", "fleet_commit only"},
	{"store.segdisk_put_us_p50", "us", "lower", "P", "fleet_commit/setup_s only"},
	{"segment.get_us_p50", "us", "lower", "P", "fleet_commit only"},
	{"segment.put_us_p50", "us", "lower", "P", "fleet_commit/setup_s only"},
	{"segment.compact_ms", "ms", "lower", "P", "fleet_commit/op_ms_p90 only"},
	{"segment.bytes_per_user_byte", "ratio", "lower", "P", "fleet_commit/peak_rss_mb and disk only"},
	{"kcached.gets", "count", "lower", "S", "fleet_commit/op_ms_p50: one per memory-tier miss"},
	{"kcached.puts", "count", "lower", "S", "fleet_commit/op_ms_p50: one per computed result"},
	{"kcached.hit_rate", "ratio", "higher", "S", "fleet_commit: revisited A/B states hit the shared tier"},
	// the benchmark's own layers.
	{"obs.trace_overhead_pct", "%", "lower", "C", "op_ms_p50 with include_timing vs without, per workload"},
	{"loadgen.reader_late_ms_p90", "ms", "lower", "C", "commit workloads: validity of read_ms_p50"},
	{"verify.seeded_bug_recall", "ratio", "higher", "C", "answer quality: share of seeded bugs the traffic's answers flag"},
}

// benchmarkJSON is the exact shape of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []layerJSON   `json:"per_layer"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	defaultRunSeconds = 18
	// setupRounds is how many times a run sets its daemons up; setup_s is
	// the median. fleet_commit's set-up pushes every pre-warmed result
	// through kcached and takes ~9 s, and the acceptance driver's 92 runs
	// share 57 minutes, which is what keeps this at two.
	setupRounds = 2
)

// windowOps is the measured window's op count: the workload's rate
// times seconds, rounded to a whole number of ops per leader.
func windowOps(workload string, seconds float64, leaders int) int {
	for _, w := range workloads {
		if w.Name == workload {
			per := int(math.Round(w.Rate * seconds / float64(leaders)))
			if per < 1 {
				per = 1
			}
			return per * leaders
		}
	}
	return 0
}

func describe() ([]byte, error) {
	b := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultRunSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
	}
	for _, l := range perLayer {
		b.PerLayer = append(b.PerLayer, layerJSON{l.Name, l.Unit, l.Better})
	}
	return json.MarshalIndent(b, "", "  ")
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}
