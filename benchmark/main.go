// Command kbenchrun is the repository's end-to-end benchmark runner. It
// drives real kserve and kcached processes over loopback HTTP with four
// seeded workloads, verifies every answer against an independent
// in-process reference, and prints the metrics BENCHMARK.json names.
// benchmark/run.sh builds the daemons and this runner and execs it; see
// benchmark/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool   // smoke mode
	binDir   string // holds the kserve and kcached binaries
	tmpDir   string // parent of every temp dir
	outDir   string // where trace_<workload>.json goes
	// fault, when "verify", corrupts one reference answer so the failed-
	// verification exit path can be exercised end to end.
	fault string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// asMeasuredPrefix starts the line that carries a run's time and rate
// metrics before scaling to the reference machine speed, and the speed.
const asMeasuredPrefix = "# as_measured "

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

const (
	exitIncorrect = 1
	exitUsage     = 2
	exitWatchdog  = 124
	exitSignal    = 130
	// watchdog bounds one workload, inside the 180 s the driver allows.
	watchdog = 170 * time.Second
)

func main() {
	var cfg config
	var trace int
	var desc bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: warm_serve, cold_sweep, commit_rescan, fleet_commit (default: all four in turn)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the corpus, the checker pool, every shuffle and the mutated files")
	flag.Float64Var(&cfg.seconds, "seconds", defaultRunSeconds, "length of the measured window: each workload runs its calibrated ops per second times this")
	flag.IntVar(&trace, "trace", 0, "1: traced pass (per-layer metrics, span file); 0: end-to-end metrics, tracing off")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke mode: --seconds 2, one set-up")
	flag.BoolVar(&desc, "describe", false, "print the metric catalogue as BENCHMARK.json and exit")
	flag.StringVar(&cfg.binDir, "bin", "", "directory holding the kserve and kcached binaries (run.sh sets it)")
	flag.StringVar(&cfg.tmpDir, "tmp", "", "directory for temp dirs (run.sh sets it)")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace_<workload>.json")
	flag.StringVar(&cfg.fault, "fault", "", "\"verify\": corrupt one reference answer to exercise the failure path")
	reportDir := flag.String("report", "", "summarize the result lines repeat.sh saved in this directory as REPEATABILITY.md on stdout, and exit")
	flag.Parse()

	if *reportDir != "" {
		if err := report(*reportDir, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "kbench:", err)
			os.Exit(exitIncorrect)
		}
		return
	}

	if desc {
		b, err := describe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "kbench:", err)
			os.Exit(exitUsage)
		}
		fmt.Println(string(b))
		return
	}
	cfg.trace = trace != 0
	if cfg.quick {
		cfg.seconds = 2
	}
	todo := workloadNames()
	if cfg.workload != "" {
		todo = []string{cfg.workload}
	}
	if err := validate(cfg, todo); err != nil {
		fmt.Fprintln(os.Stderr, "kbench:", err)
		os.Exit(exitUsage)
	}

	sd := &shutdown{sup: newSupervisor(cfg.tmpDir), leave: os.Exit}
	sd.onSignal()
	exit := sd.exit
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintln(os.Stderr, "kbench: panic:", r)
			fmt.Fprintf(os.Stderr, "leftover_processes=%d\n", sd.sup.stopAll())
			panic(r)
		}
	}()

	code := 0
	for _, w := range todo {
		cfg.workload = w
		dog := time.AfterFunc(watchdog, func() {
			fmt.Fprintf(os.Stderr, "kbench: %s exceeded %s: tearing down\n", w, watchdog)
			exit(exitWatchdog)
		})
		res, err := runWorkload(cfg, sd.sup, os.Stdout)
		dog.Stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "kbench: %s: %v\n", w, err)
			exit(exitIncorrect)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kbench:", err)
			exit(exitIncorrect)
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = exitIncorrect
		}
	}
	exit(code)
}

// shutdown is the one way out once daemons may exist: tear down, say
// what was left, and only then leave. Every exit path — normal, failed
// run, watchdog, signal — goes through exit.
type shutdown struct {
	sup   *supervisor
	leave func(code int) // os.Exit outside tests
	once  sync.Once
}

func (s *shutdown) exit(code int) {
	s.once.Do(func() {
		left := s.sup.stopAll()
		fmt.Fprintf(os.Stderr, "leftover_processes=%d\n", left)
		if left > 0 && code == 0 {
			code = exitIncorrect
		}
		s.leave(code)
	})
	select {} // another goroutine is already leaving
}

// onSignal makes SIGINT, SIGTERM and SIGHUP tear down before exiting.
func (s *shutdown) onSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "kbench: %s: tearing down\n", sig)
		s.exit(exitSignal)
	}()
}

func validate(cfg config, todo []string) error {
	known := map[string]bool{}
	for _, w := range workloadNames() {
		known[w] = true
	}
	for _, w := range todo {
		if !known[w] {
			return fmt.Errorf("unknown workload %q (have %v)", w, workloadNames())
		}
	}
	if cfg.seconds < 1 || cfg.seconds > 120 {
		return fmt.Errorf("-seconds %v out of range [1,120]", cfg.seconds)
	}
	if cfg.binDir == "" || cfg.tmpDir == "" {
		return errors.New("-bin and -tmp are required (run benchmark/run.sh, which builds the binaries and sets both)")
	}
	if cfg.fault != "" && cfg.fault != "verify" {
		return fmt.Errorf("unknown -fault %q", cfg.fault)
	}
	return nil
}

// runWorkload runs one workload start to finish: inputs, set-up (several
// times), the measured window, teardown, verification, and — on a traced
// pass — the layer probes and the span file. An error means the run
// could not be completed; a completed run with wrong answers or broken
// invariants comes back with Correct false.
func runWorkload(cfg config, sup *supervisor, out io.Writer) (*result, error) {
	// phase times the run's stages on the wall clock, for the budget line.
	began, mark := time.Now(), time.Now()
	var phases []string
	phase := func(name string) {
		phases = append(phases, fmt.Sprintf("%s=%.1fs", name, time.Since(mark).Seconds()))
		mark = time.Now()
	}
	in, err := buildInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, in: in, sc: newScript(in), dig: newDigester(in), sup: sup, cal: newCalibrator()}
	defer e.cal.close()
	// A window is a fixed number of ops, so that work, cache counts and
	// final state are the same on every run and commit: the workload's
	// calibrated ops per second times --seconds. The traced pass runs a
	// quarter of it and spends the time saved on the layer probes.
	phase("inputs")
	ops := windowOps(cfg.workload, cfg.seconds, e.shape().leaders)
	if cfg.trace {
		e.tr = newTracer()
		ops = windowOps(cfg.workload, cfg.seconds/4, e.shape().leaders)
	}
	fmt.Fprintf(out, "# %s seed=%d N=%d trace=%v corpus=%d files/%d funcs pool=%d of %d valid of %d commits\n",
		cfg.workload, cfg.seed, ops, cfg.trace, len(in.cb.Files()), in.funcs, len(in.pool), in.valid, in.commits)

	// Set-up runs setupRounds times and setup_s is the median; the last
	// set of daemons is the one measured. Once is enough for a smoke run
	// and for a traced pass, which does not report setup_s.
	rounds := setupRounds
	if cfg.quick || cfg.trace {
		rounds = 1
	}
	var cl *cluster
	var setups, rawSetups []float64
	for round := 0; round < rounds; round++ {
		if left := sup.stopAll(); left > 0 {
			return nil, fmt.Errorf("set-up round %d left %d processes behind", round, left)
		}
		var raw, atRef time.Duration
		if cl, raw, atRef, err = e.setUp(round); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rawSetups = append(rawSetups, raw.Seconds())
		setups = append(setups, atRef.Seconds())
	}

	phase("set-ups")
	if cfg.fault == "verify" {
		in.ref["knighter."+in.pool[0].Base].rest ^= 1
	}
	hc := newClient()
	defer hc.close()
	before, err := cl.stats(hc)
	if err != nil {
		return nil, err
	}
	stopPoll := make(chan struct{})
	pinned := make(chan int, 1)
	go func() { pinned <- e.pollPinned(cl, stopPoll) }()
	pace := e.windowPacer(ops)
	col := e.run(cl, pace, "r", e.shape().warmup)
	wall, speed := pace.finish()
	close(stopPoll)
	after, err := cl.stats(hc)
	if err != nil {
		return nil, err
	}
	delta := after.minus(before)
	rss := 0.0
	for _, d := range cl.all() {
		mb, err := peakRSSMB(d.pid)
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	phase("window")
	left := sup.stopAll()
	phase("teardown")

	// Nothing competes for the two cores any more: check the answers.
	verr := e.verify(col)
	ierr := e.invariants(col, delta)
	phase("verify")
	res := &result{
		Correct:   col.failed == 0 && verr == nil && ierr == nil && left == 0,
		Attempted: col.attempted,
		Failed:    col.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, err := range []error{col.firstErr, verr, ierr} {
		if err != nil {
			fmt.Fprintf(out, "# FAILED: %v\n", err)
		}
	}
	if len(col.opLat) == 0 || len(col.readLat) == 0 {
		return nil, fmt.Errorf("no successful ops in the window (first error: %v)", col.firstErr)
	}

	// Time and rate metrics are reported at the reference machine speed:
	// scaled by the speed index sampled inside the window (see pacer).
	// asMeasured keeps what the clocks said, for REPEATABILITY.md.
	at := speed / refSpeed
	asMeasured := map[string]float64{
		"machine_speed": at,
		"setup_s":       median(rawSetups),
		"ops_per_s":     float64(len(col.opLat)) / wall.Seconds(),
		"op_ms_p50":     durQuantile(col.opLat, 0.5, ms),
		"op_ms_p90":     durQuantile(col.opLat, 0.9, ms),
		"read_ms_p50":   durQuantile(col.readLat, 0.5, ms),
		"ttfb_ms_p50":   durQuantile(col.readTTFB, 0.5, ms),
		"peak_rss_mb":   rss,
	}
	e2e := map[string]float64{
		"setup_s":     median(setups),
		"ops_per_s":   asMeasured["ops_per_s"] / at,
		"op_ms_p50":   asMeasured["op_ms_p50"] * at,
		"op_ms_p90":   asMeasured["op_ms_p90"] * at,
		"read_ms_p50": asMeasured["read_ms_p50"] * at,
		"ttfb_ms_p50": asMeasured["ttfb_ms_p50"] * at,
		"peak_rss_mb": rss,
	}
	fmt.Fprintf(out, "# %d ops in %.2fs active (%d beyond p90), %d reads, attempted=%d failed=%d, build_s=%s seeded_bug_recall=%.4f leftover_processes=%d\n",
		len(col.opLat), wall.Seconds(), samplesBeyond(len(col.opLat), 0.9), len(col.readLat),
		col.attempted, col.failed, os.Getenv("KBENCH_BUILD_S"), in.recall(col.sites), left)
	fmt.Fprintf(out, "%s%s\n", asMeasuredPrefix, mustJSON(asMeasured))
	fmt.Fprintf(out, "# wall: %s, %.1fs so far\n", strings.Join(phases, " "), time.Since(began).Seconds())

	if !cfg.trace {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{e2e[m.Name], m.Unit}
		}
		printMetrics(out, cfg.workload, res.Metrics)
		return res, nil
	}

	// Traced pass: the end-to-end numbers above are printed for
	// orientation only; the reported metrics are the per-layer ones.
	for _, m := range endToEnd {
		fmt.Fprintf(out, "# (traced) %s %s = %.4f %s\n", cfg.workload, m.Name, e2e[m.Name], m.Unit)
	}
	layer := e.windowLayers(col, delta, <-pinned)
	probes, err := e.probes()
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for k, v := range probes {
		layer[k] = v
	}
	for _, l := range perLayer {
		v, ok := layer[l.Name]
		if !ok {
			return nil, fmt.Errorf("layer metric %s was not measured", l.Name)
		}
		res.Metrics[l.Name] = metricValue{v, l.Unit}
	}
	printMetrics(out, cfg.workload, res.Metrics)
	path, err := e.tr.write(cfg.outDir, cfg.workload, cfg.seed, res.Metrics)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# trace written to %s\n", path)
	return res, nil
}

// pollPinned samples the daemons' pinned_snapshots gauge every 100 ms
// until stop is closed and returns the highest sum seen. It only runs on
// the traced pass, so end-to-end windows carry no polling load.
func (e *env) pollPinned(cl *cluster, stop <-chan struct{}) int {
	if e.tr == nil {
		return 0
	}
	hc := newClient()
	defer hc.close()
	top := 0
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return top
		case <-tick.C:
			if c, err := cl.stats(hc); err == nil && c.pinned > top {
				top = c.pinned
			}
		}
	}
}

// windowLayers are the S- and C-kind layer metrics: deltas of the
// daemons' /stats over the window and client-side measurements.
func (e *env) windowLayers(col *collector, d counters, pinnedMax int) map[string]float64 {
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	overhead := 0.0
	if plain := durQuantile(col.opPlain, 0.5, ms); plain > 0 && len(col.opTimed) > 0 {
		overhead = 100 * (durQuantile(col.opTimed, 0.5, ms) - plain) / plain
	}
	return map[string]float64{
		"api.response_bytes_p50":      median(col.respBytes),
		"kserve.http_overhead_ms_p50": durQuantile(col.overhead, 0.5, ms),
		"kserve.admission_shed":       float64(d.shed),
		"store.hit_rate":              ratio(d.hits, d.misses),
		"store.evictions":             float64(d.evictions),
		"store.coalesced":             float64(d.coalesced),
		"kserve.pinned_snapshots_max": float64(pinnedMax),
		"shard.degraded_scatters":     float64(d.degraded),
		"shard.hedged_sub_scans":      float64(d.hedged),
		"shard.converges":             float64(d.converges),
		"shard.sub_scans_served":      float64(d.subScans),
		"store.remote_errors":         float64(d.remoteErrors),
		"kcached.gets":                float64(d.cacheGets),
		"kcached.puts":                float64(d.cachePuts),
		"kcached.hit_rate":            ratio(d.cacheHits, d.cacheMisses),
		"obs.trace_overhead_pct":      overhead,
		"loadgen.reader_late_ms_p90":  durQuantile(col.late, 0.9, ms),
		"verify.seeded_bug_recall":    e.in.recall(col.sites),
	}
}

func printMetrics(out io.Writer, workload string, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-14s %-32s %14.4f %s\n", workload, k, m[k].Value, m[k].Unit)
	}
}
