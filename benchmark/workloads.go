package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// env is what every phase of a run shares.
type env struct {
	cfg config
	in  *inputs
	sc  *script
	dig *digester
	sup *supervisor
	cal *calibrator
	tr  *tracer // nil when tracing is off
}

// cluster is one booted set of daemons.
type cluster struct {
	kserve  []*daemon
	kcached *daemon
	commit  string // base URL for commits, re-scans and the closed-loop clients
	read    string // base URL for the open-loop reader
}

func (cl *cluster) all() []*daemon {
	if cl.kcached == nil {
		return cl.kserve
	}
	return append([]*daemon{cl.kcached}, cl.kserve...)
}

// boot execs the workload's daemons on fresh loopback ports. The first
// three workloads share one shape: a single kserve with the memory tier
// only and default flags. fleet_commit adds kcached (feed + shared cache
// on a temp dir) and a second kserve, each owning one shard.
func (e *env) boot() (*cluster, error) {
	dir, err := e.sup.tempDir(e.cfg.workload + "-")
	if err != nil {
		return nil, err
	}
	seed := strconv.FormatInt(e.cfg.seed, 10)
	scale := strconv.FormatFloat(corpusScale, 'f', -1, 64)
	kserveBin := filepath.Join(e.cfg.binDir, "kserve")
	cl := &cluster{}
	if e.cfg.workload != wlFleetCommit {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		d, err := e.sup.spawn("kserve", kserveBin, addr, dir, "-addr", addr, "-seed", seed, "-scale", scale)
		if err != nil {
			return nil, err
		}
		cl.kserve = []*daemon{d}
		cl.commit, cl.read = d.url(), d.url()
		return cl, nil
	}

	addrs := make([]string, 3)
	for i := range addrs {
		if addrs[i], err = freeAddr(); err != nil {
			return nil, err
		}
	}
	cacheURL := "http://" + addrs[0]
	peers := "http://" + addrs[1] + ",http://" + addrs[2]
	cl.kcached, err = e.sup.spawn("kcached", filepath.Join(e.cfg.binDir, "kcached"), addrs[0], dir,
		"-addr", addrs[0], "-cache-dir", filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		d, err := e.sup.spawn("kserve"+strconv.Itoa(i), kserveBin, addrs[1+i], dir,
			"-addr", addrs[1+i], "-seed", seed, "-scale", scale,
			"-shard-index", strconv.Itoa(i), "-shard-count", "2", "-peers", peers, "-cache-remote", cacheURL)
		if err != nil {
			return nil, err
		}
		cl.kserve = append(cl.kserve, d)
	}
	cl.commit, cl.read = cl.kserve[0].url(), cl.kserve[1].url()
	return cl, nil
}

// collector gathers one client's measurements; clients never share one,
// so the hot loop takes no lock.
type collector struct {
	attempted, failed int
	firstErr          error

	opLat             []time.Duration // the workload's op
	opPlain, opTimed  []time.Duration // op latency without / with include_timing (traced pass)
	readLat, readTTFB []time.Duration // plain reads
	overhead          []time.Duration // read latency minus the daemon's own elapsed_ms
	late              []time.Duration // open-loop send lateness
	respBytes         []float64

	answers []answer
	// sites are the (file, function) pairs reported; sited marks the pool
	// checkers whose answer has been added to it already — every later
	// answer of that checker must digest the same anyway.
	sites map[[2]string]bool
	sited map[int]bool
}

// answer is what is kept of one scan reply for checking after the window.
type answer struct {
	pool   int
	sig    sig
	gen    int64
	strict bool
}

func newCollector() *collector {
	return &collector{sites: map[[2]string]bool{}, sited: map[int]bool{}}
}

func (c *collector) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

func (c *collector) merge(o *collector) {
	c.attempted += o.attempted
	c.failed += o.failed
	if c.firstErr == nil {
		c.firstErr = o.firstErr
	}
	c.opLat = append(c.opLat, o.opLat...)
	c.opPlain = append(c.opPlain, o.opPlain...)
	c.opTimed = append(c.opTimed, o.opTimed...)
	c.readLat = append(c.readLat, o.readLat...)
	c.readTTFB = append(c.readTTFB, o.readTTFB...)
	c.overhead = append(c.overhead, o.overhead...)
	c.late = append(c.late, o.late...)
	c.respBytes = append(c.respBytes, o.respBytes...)
	c.answers = append(c.answers, o.answers...)
	for k := range o.sites {
		c.sites[k] = true
	}
}

// recordOp files an op latency under the plain or include_timing
// population as well, so the traced pass can compare the two.
func (c *collector) recordOp(d time.Duration, timed bool) {
	c.opLat = append(c.opLat, d)
	if timed {
		c.opTimed = append(c.opTimed, d)
	} else {
		c.opPlain = append(c.opPlain, d)
	}
}

// recordRead files a plain read: latency, first byte, HTTP overhead over
// the daemon's own elapsed time, and body size.
func (c *collector) recordRead(total, ttfb time.Duration, elapsedMS float64, bytes int) {
	c.readLat = append(c.readLat, total)
	c.readTTFB = append(c.readTTFB, ttfb)
	c.overhead = append(c.overhead, total-time.Duration(elapsedMS*float64(time.Millisecond)))
	c.respBytes = append(c.respBytes, float64(bytes))
}

// timed says whether op j of a walk with the given period asks the
// daemon for its stage timeline: never with tracing off; with it on,
// every other full pass over the pool, so both populations see the same
// checkers and commit directions.
func (e *env) timed(j, period int) bool { return e.tr != nil && (j/period)%2 == 1 }

// scan posts one /scan body for pool checker pool and checks the reply:
// 200, decodes, the right checker, whole-corpus, not truncated,
// digestible. strict is passed on to the reference check. It returns nil
// after recording a failure.
func (e *env) scan(c *client, col *collector, base string, body []byte, pool int, strict bool) (*wireScan, reply) {
	rp, err := c.post(base+"/scan", body)
	if err != nil {
		col.fail(err)
		return nil, rp
	}
	var ws wireScan
	if rp.status != http.StatusOK {
		col.fail(fmt.Errorf("/scan: status %d: %.200s", rp.status, rp.body))
		return nil, rp
	}
	if err := json.Unmarshal(rp.body, &ws); err != nil {
		col.fail(fmt.Errorf("/scan: decode: %w", err))
		return nil, rp
	}
	e.tr.request("POST /scan", rp.start, rp.total, ws.Timing)
	if err := e.digest(col, &ws, pool, e.in.pool[pool].Base, strict); err != nil {
		col.fail(err)
		return nil, rp
	}
	return &ws, rp
}

// digest validates one scan-shaped answer and queues its digest for the
// reference check after the window.
func (e *env) digest(col *collector, ws *wireScan, pool int, name string, strict bool) error {
	want := "knighter." + name
	switch {
	case ws.Error != "":
		return fmt.Errorf("%s: %s", name, ws.Error)
	case ws.Checker != want:
		return fmt.Errorf("answer for %q, asked for %q", ws.Checker, want)
	case ws.FuncsScanned != e.in.funcs:
		return fmt.Errorf("%s: scanned %d functions, corpus has %d", name, ws.FuncsScanned, e.in.funcs)
	case ws.Truncated:
		return fmt.Errorf("%s: truncated answer", name)
	}
	seen := col.sites
	if col.sited[pool] {
		seen = nil
	}
	col.sited[pool] = true
	s, err := e.dig.sum(ws.Reports, want, seen)
	if err != nil {
		return err
	}
	col.answers = append(col.answers, answer{pool: pool, sig: s, gen: ws.Generation, strict: strict})
	return nil
}

// runWarm is warm_serve: two closed-loop clients, each re-scanning the
// pool along its own seeded walk. Every scan must be all hits.
func (e *env) runWarm(cl *cluster, p *pacer) *collector {
	cols := [2]*collector{newCollector(), newCollector()}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc, col := newClient(), cols[c]
			defer hc.close()
			for j := 0; ; j++ {
				if !p.next(j, true) {
					return
				}
				timed := e.timed(j, len(e.in.pool))
				k, body := e.sc.warmOp(c, j, timed)
				col.attempted++
				ws, rp := e.scan(hc, col, cl.commit, body, k, true)
				if ws == nil {
					continue
				}
				if ws.Cache.Misses != 0 || ws.Cache.Hits != e.in.funcs {
					col.fail(fmt.Errorf("warm scan of %s: %d hits %d misses, want %d/0", ws.Checker, ws.Cache.Hits, ws.Cache.Misses, e.in.funcs))
					continue
				}
				col.recordOp(rp.total, timed)
				col.recordRead(rp.total, rp.ttfb, ws.ElapsedMS, len(rp.body))
			}
		}(c)
	}
	wg.Wait()
	cols[0].merge(cols[1])
	return cols[0]
}

// runCold is cold_sweep: one closed-loop client sending /batch requests
// of never-seen revisions. Every function of every entry must miss.
func (e *env) runCold(cl *cluster, p *pacer, tag string) *collector {
	hc, col := newClient(), newCollector()
	defer hc.close()
	period := len(e.in.pool) / batchSize
	for i := 0; ; i++ {
		if !p.next(i, true) {
			return col
		}
		timed := e.timed(i, period)
		pool, names, body := e.sc.coldOp(tag, i, timed)
		col.attempted++
		rp, err := hc.post(cl.commit+"/batch", body)
		if err != nil {
			col.fail(err)
			continue
		}
		if rp.status != http.StatusOK {
			col.fail(fmt.Errorf("/batch: status %d: %.200s", rp.status, rp.body))
			continue
		}
		var wb wireBatch
		if err := json.Unmarshal(rp.body, &wb); err != nil {
			col.fail(fmt.Errorf("/batch: decode: %w", err))
			continue
		}
		e.tr.request("POST /batch", rp.start, rp.total, wb.Timing)
		if err := e.checkBatch(col, &wb, pool, names); err != nil {
			col.fail(err)
			continue
		}
		col.recordOp(rp.total, timed)
		col.recordRead(rp.total, rp.ttfb, wb.ElapsedMS, len(rp.body))
	}
}

func (e *env) checkBatch(col *collector, wb *wireBatch, pool []int, names []string) error {
	if len(wb.Results) != len(names) || wb.CheckerErrors != 0 {
		return fmt.Errorf("/batch: %d results, %d checker errors for %d checkers", len(wb.Results), wb.CheckerErrors, len(names))
	}
	for b, ws := range wb.Results {
		if ws == nil {
			return fmt.Errorf("/batch: entry %d missing", b)
		}
		if err := e.digest(col, ws, pool[b], names[b], true); err != nil {
			return err
		}
		if ws.Cache.Hits != 0 || ws.Cache.Misses != e.in.funcs {
			return fmt.Errorf("cold scan of %s: %d hits %d misses, want 0/%d", names[b], ws.Cache.Hits, ws.Cache.Misses, e.in.funcs)
		}
	}
	return nil
}

// runCommit is commit_rescan and fleet_commit. The committer repeats
// commit → re-scan at the committed generation (closed loop) starting at
// cycle first; beside it the reader scans at a fixed rate (open loop)
// until the committer stops. Only the four toggled functions can miss.
func (e *env) runCommit(cl *cluster, p *pacer, first int) *collector {
	col, rcol := newCollector(), newCollector()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.runReader(cl, rcol, p)
	}()

	hc := newClient()
	defer hc.close()
	for n := 0; ; n++ {
		if !p.next(n, true) {
			break
		}
		i := first + n
		timed := e.timed(i, len(e.in.pool))
		_, body := e.sc.commitOp(i)
		col.attempted++
		rp, err := hc.post(cl.commit+"/changeset", body)
		if err != nil {
			col.fail(err)
			continue
		}
		var wc wireChangeset
		if rp.status != http.StatusOK {
			col.fail(fmt.Errorf("/changeset: status %d: %.200s", rp.status, rp.body))
			continue
		}
		if err := json.Unmarshal(rp.body, &wc); err != nil {
			col.fail(fmt.Errorf("/changeset: decode: %w", err))
			continue
		}
		e.tr.request("POST /changeset", rp.start, rp.total, nil)
		if wc.Status != "committed" || wc.ChangedFuncs != toggled {
			col.fail(fmt.Errorf("/changeset: status %q, %d changed functions, want committed/%d", wc.Status, wc.ChangedFuncs, toggled))
			continue
		}
		// The committer is the only writer, so its read-your-write scan
		// must see exactly the generation it committed: strict.
		k, sbody := e.sc.rescanOp(i, wc.Generation, timed)
		ws, srp := e.scan(hc, col, cl.commit, sbody, k, true)
		if ws == nil {
			continue
		}
		cycle := srp.start.Add(srp.total).Sub(rp.start)
		if ws.Generation != wc.Generation || ws.Cache.Misses > toggled {
			col.fail(fmt.Errorf("re-scan after generation %d: answered at %d with %d misses", wc.Generation, ws.Generation, ws.Cache.Misses))
			continue
		}
		col.recordOp(cycle, timed)
	}
	wg.Wait()
	col.merge(rcol)
	return col
}

// runReader is the open-loop reader: one scan every 1/readerRate
// seconds along its own walk of the pool, timed from each scan's due
// time, until the committer has left the pacer. The schedule runs on
// the window's active clock: time parked for speed samples shifts it.
func (e *env) runReader(cl *cluster, col *collector, p *pacer) {
	hc := newClient()
	defer hc.close()
	// On a single kserve a plain read pins one snapshot, so its answer
	// must match its generation exactly. A fleet read merges partials
	// from two shards that may be one commit apart.
	strict := cl.kcached == nil
	loop := openLoop{t0: time.Now(), interval: time.Second / readerRate}
	for j := 0; ; j++ {
		if !p.next(j, false) {
			return
		}
		due := p.idleUntil(loop.due(j))
		k, body := e.sc.warmOp(1, j, false)
		col.attempted++
		sent := time.Now()
		ws, rp := e.scan(hc, col, cl.read, body, k, strict)
		if ws == nil {
			continue
		}
		if ws.Cache.Misses > toggled {
			col.fail(fmt.Errorf("read beside commits: %d misses, at most %d functions can be cold", ws.Cache.Misses, toggled))
			continue
		}
		late, ttfb, total := sinceDue(due, sent, rp.ttfb, rp.total)
		col.late = append(col.late, late)
		col.recordRead(total, ttfb, ws.ElapsedMS, len(rp.body))
	}
}

// run dispatches one window of the configured workload. tag and first
// keep a warm-up's revisions and cycles apart from the measured ones.
func (e *env) run(cl *cluster, p *pacer, tag string, first int) *collector {
	switch e.cfg.workload {
	case wlWarmServe:
		return e.runWarm(cl, p)
	case wlColdSweep:
		return e.runCold(cl, p, tag)
	default:
		return e.runCommit(cl, p, first)
	}
}

// shape is what differs between the workloads' windows: how many
// closed-loop clients lead, whether the open-loop reader follows, and
// how many ops per leader the warm-up runs. The counts are fixed, so
// set-up does the same work on every run and commit; the commit
// workloads' is even, which leaves the corpus in state A.
type shape struct {
	leaders, followers, warmup int
}

func (e *env) shape() shape {
	switch e.cfg.workload {
	case wlWarmServe:
		return shape{leaders: 2, warmup: 2 * len(e.in.pool)} // two passes over the pool each
	case wlColdSweep:
		return shape{leaders: 1, warmup: 2}
	default:
		return shape{leaders: 1, followers: 1, warmup: 24}
	}
}

// warmupPacer paces a warm-up: the shape's fixed op count, no sampling.
func (e *env) warmupPacer() *pacer {
	sh := e.shape()
	return newPacer(sh.warmup, 0, sh.leaders, sh.followers, nil)
}

// windowPacer paces the measured window: ops ops shared evenly among
// the leaders, the machine's speed sampled every speedSlice.
func (e *env) windowPacer(ops int) *pacer {
	sh := e.shape()
	return newPacer(ops/sh.leaders, speedSlice, sh.leaders, sh.followers, func() float64 { return e.cal.rate(speedTrips) })
}

// setUp boots the daemons and brings them to the measured steady state:
// ready, toggled files canonicalized (generation 1), pool pre-warmed
// (not for cold_sweep, whose ops are cold by construction), warm-up ops
// run and discarded. It returns the cluster and the set-up time, from
// the first exec to the end of warm-up, as measured and at the reference
// machine speed: the speed is sampled before the boot, between phases
// and at the end, and the samples' own time is left out.
func (e *env) setUp(round int) (cl *cluster, raw, atRef time.Duration, err error) {
	var speeds []float64
	var sampling time.Duration
	sample := func() {
		t := time.Now()
		speeds = append(speeds, e.cal.rate(setupTrips))
		sampling += time.Since(t)
	}
	sample()
	sampling = 0 // the clock starts after the first sample
	start := time.Now()
	if cl, err = e.boot(); err != nil {
		return nil, 0, 0, err
	}
	for _, d := range cl.all() {
		if err := waitReady(d, 30*time.Second); err != nil {
			return nil, 0, 0, err
		}
	}
	hc := newClient()
	defer hc.close()
	rp, err := hc.post(cl.commit+"/changeset", e.in.canon)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("canonicalize: %w", err)
	}
	var wc wireChangeset
	if err := json.Unmarshal(rp.body, &wc); err != nil || rp.status != http.StatusOK || wc.Generation != 1 {
		return nil, 0, 0, fmt.Errorf("canonicalize: status %d generation %d: %.200s", rp.status, wc.Generation, rp.body)
	}
	sample()

	col := newCollector()
	if e.cfg.workload != wlColdSweep {
		// Pre-warm through both coordinators, at generation 1: in a fleet
		// the first pass fills each shard's tier and makes shard 1
		// converge; the second is all hits and costs next to nothing.
		bases := []string{cl.commit}
		if cl.read != cl.commit {
			bases = append(bases, cl.read)
		}
		for _, base := range bases {
			for k, p := range e.in.pool {
				if ws, _ := e.scan(hc, col, base, scanBody(p.Spec, 1, false), k, true); ws == nil {
					return nil, 0, 0, fmt.Errorf("pre-warm %s: %w", p.Base, col.firstErr)
				}
				if k%4 == 3 {
					sample()
				}
			}
		}
	}
	col.merge(e.run(cl, e.warmupPacer(), fmt.Sprintf("w%d_", round), 0))
	sample()
	raw = time.Since(start) - sampling
	if col.failed > 0 {
		return nil, 0, 0, fmt.Errorf("warm-up: %d failed ops, first: %w", col.failed, col.firstErr)
	}
	if err := e.verify(col); err != nil {
		return nil, 0, 0, fmt.Errorf("warm-up: %w", err)
	}
	return cl, raw, time.Duration(float64(raw) * mean(speeds) / refSpeed), nil
}

// verify checks every queued answer against the reference digests and
// returns the first mismatch, counting each as a failed op.
func (e *env) verify(col *collector) error {
	var first error
	for _, a := range col.answers {
		if err := e.in.check(e.in.pool[a.pool].Base, a.sig, a.gen, a.strict); err != nil {
			col.failed++
			if first == nil {
				first = err
			}
		}
	}
	return first
}

// Daemon /stats, as far as the runner reads them.

type storeCounters struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Coalesced int64 `json:"coalesced"`
}

type kserveStats struct {
	PinnedSnapshots int           `json:"pinned_snapshots"`
	Store           storeCounters `json:"store"`
	Remote          *struct {
		Errors int64 `json:"errors"`
	} `json:"remote"`
	Admission *struct {
		Shed int64 `json:"shed"`
	} `json:"admission"`
	WriteAdmission *struct {
		Shed int64 `json:"shed"`
	} `json:"write_admission"`
	Shards *struct {
		Degraded       int64 `json:"degraded_scatters"`
		Hedged         int64 `json:"hedged_sub_scans"`
		SubScansServed int64 `json:"sub_scans_served"`
		Converges      int64 `json:"converges"`
	} `json:"shards"`
}

type kcachedStats struct {
	Store storeCounters `json:"store"`
	Gets  int64         `json:"gets"`
	Puts  int64         `json:"puts"`
}

// counters is the sum over a cluster's daemons of the /stats counters
// the layer metrics and invariants are built from, plus the pinned-
// snapshots gauge (an instantaneous value: minus drops it).
type counters struct {
	hits, misses, evictions, coalesced           int64
	shed, remoteErrors                           int64
	degraded, hedged, subScans, converges        int64
	cacheGets, cachePuts, cacheHits, cacheMisses int64
	pinned                                       int
}

func (c counters) minus(o counters) counters {
	return counters{
		hits: c.hits - o.hits, misses: c.misses - o.misses, evictions: c.evictions - o.evictions, coalesced: c.coalesced - o.coalesced,
		shed: c.shed - o.shed, remoteErrors: c.remoteErrors - o.remoteErrors,
		degraded: c.degraded - o.degraded, hedged: c.hedged - o.hedged, subScans: c.subScans - o.subScans, converges: c.converges - o.converges,
		cacheGets: c.cacheGets - o.cacheGets, cachePuts: c.cachePuts - o.cachePuts, cacheHits: c.cacheHits - o.cacheHits, cacheMisses: c.cacheMisses - o.cacheMisses,
	}
}

func getJSON(hc *client, url string, v any) error {
	rp, err := hc.do(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if rp.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, rp.status)
	}
	if err := json.Unmarshal(rp.body, v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

func (cl *cluster) stats(hc *client) (counters, error) {
	var c counters
	for _, d := range cl.kserve {
		var ks kserveStats
		if err := getJSON(hc, d.url()+"/stats", &ks); err != nil {
			return c, err
		}
		c.hits += ks.Store.Hits
		c.misses += ks.Store.Misses
		c.evictions += ks.Store.Evictions
		c.coalesced += ks.Store.Coalesced
		c.pinned += ks.PinnedSnapshots
		if ks.Admission != nil {
			c.shed += ks.Admission.Shed
		}
		if ks.WriteAdmission != nil {
			c.shed += ks.WriteAdmission.Shed
		}
		if ks.Remote != nil {
			c.remoteErrors += ks.Remote.Errors
		}
		if ks.Shards != nil {
			c.degraded += ks.Shards.Degraded
			c.hedged += ks.Shards.Hedged
			c.subScans += ks.Shards.SubScansServed
			c.converges += ks.Shards.Converges
		}
	}
	if cl.kcached != nil {
		var cs kcachedStats
		if err := getJSON(hc, cl.kcached.url()+"/stats", &cs); err != nil {
			return c, err
		}
		c.cacheGets, c.cachePuts = cs.Gets, cs.Puts
		c.cacheHits, c.cacheMisses = cs.Store.Hits, cs.Store.Misses
	}
	return c, nil
}

// invariants are the counter checks the issue pins per workload; a
// violation means the run measured something other than what the
// workload claims to be.
func (e *env) invariants(col *collector, d counters) error {
	var errs []error
	scans := int64(len(col.answers)) * int64(e.in.funcs)
	switch e.cfg.workload {
	case wlWarmServe:
		if d.hits != scans || d.misses != 0 {
			errs = append(errs, fmt.Errorf("store hits/misses %d/%d, script expects %d/0", d.hits, d.misses, scans))
		}
	case wlColdSweep:
		if d.hits != 0 || d.misses != scans {
			errs = append(errs, fmt.Errorf("store hits/misses %d/%d, script expects 0/%d", d.hits, d.misses, scans))
		}
	case wlFleetCommit:
		if d.degraded != 0 {
			errs = append(errs, fmt.Errorf("%d degraded scatters in a healthy fleet", d.degraded))
		}
	}
	if d.shed != 0 {
		errs = append(errs, fmt.Errorf("%d requests shed by admission", d.shed))
	}
	// Every window is sized to fit the daemons' default memory tier; an
	// eviction would turn later hits into misses and, on cold_sweep, make
	// peak_rss_mb depend on the tier's budget instead of the work done.
	if d.evictions != 0 {
		errs = append(errs, fmt.Errorf("%d memory-tier evictions, the window must fit the default tier", d.evictions))
	}
	return errors.Join(errs...)
}
