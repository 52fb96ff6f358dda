package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"knighter/internal/api"
	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/engine"
	"knighter/internal/minic"
	"knighter/internal/scan"
	"knighter/internal/shard"
	"knighter/internal/store"
	"knighter/internal/store/segment"
)

// Layer probes: the runner calls each layer's public functions directly,
// on the inputs the workloads use, and times every call. They run after
// the daemons are gone, so nothing else wants the two cores. A clock
// read costs tens of nanoseconds; the ns-scale store probes include it.

// prober carries what the probes share.
type prober struct {
	e   *env
	cks []checker.Checker
	inc *scan.Incremental // over the in-process corpus, warmed by probeScan
	dir string
	out map[string]float64
	// kept are real (key, result) pairs from probeEngine, the payload of
	// the store, remote and segment probes.
	kept []keyed
}

type keyed struct {
	key store.Key
	res *engine.Result
}

// timeEach runs f n times and returns each call's duration.
func timeEach(n int, f func(i int)) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		t := time.Now()
		f(i)
		ds[i] = time.Since(t)
	}
	return ds
}

// probes runs every P-kind layer metric and returns them by name.
func (e *env) probes() (map[string]float64, error) {
	cks, err := e.in.compilePool()
	if err != nil {
		return nil, err
	}
	dir, err := e.sup.tempDir("probes-")
	if err != nil {
		return nil, err
	}
	p := &prober{e: e, cks: cks, dir: dir, out: map[string]float64{
		"kernel.generate_ms":       e.in.generateMS,
		"scan.newcodebase_ms":      e.in.newCodebaseMS,
		"synth.gen_checker_ms_p50": durQuantile(e.in.genChecker, 0.5, ms),
	}}
	steps := []struct {
		layer, name string
		run         func() (int, error)
	}{
		{"ckdsl", "probe ckdsl.CompileSource", p.compile},
		{"scan", "probe scan.Incremental", p.scan},
		{"engine", "probe engine.AnalyzeFunc", p.engine},
		{"store", "probe store.Memory", p.memory},
		{"minic", "probe write path", p.writePath},
		{"shard", "probe shard merge/scatter/feed", p.shard},
		{"store", "probe store.Remote", p.remote},
		{"segment", "probe segment log", p.segment},
	}
	for _, s := range steps {
		t := time.Now()
		n, err := s.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		e.tr.probe(s.layer, s.name, t, time.Since(t), n)
	}
	return p.out, nil
}

func (p *prober) compile() (int, error) {
	pool := p.e.in.pool
	var cerr error
	ds := timeEach(20*len(pool), func(i int) {
		if _, err := ckdsl.CompileSource(pool[i%len(pool)].Spec); err != nil {
			cerr = err
		}
	})
	p.out["ckdsl.compile_us_p50"] = durQuantile(ds, 0.5, us)
	return len(ds), cerr
}

// stageTimes collects Incremental's per-scan stage durations by phase.
type stageTimes struct {
	mu    sync.Mutex
	phase string
	by    map[string][]time.Duration
}

func (s *stageTimes) ObserveStage(stage string, d time.Duration) {
	s.mu.Lock()
	s.by[s.phase+"/"+stage] = append(s.by[s.phase+"/"+stage], d)
	s.mu.Unlock()
}

func (s *stageTimes) enter(phase string) {
	s.mu.Lock()
	s.phase = phase
	s.mu.Unlock()
}

// scan times whole-corpus scans through Incremental over a memory tier:
// each pool checker cold then warm, the warm answers' wire encoding as
// kserve does it, and /batch-shaped cold runs of fresh revisions.
func (p *prober) scan() (int, error) {
	in := p.e.in
	st := &stageTimes{by: map[string][]time.Duration{}}
	p.inc = scan.NewIncremental(in.cb, store.NewMemory(0))
	p.inc.SetStageObserver(st)

	st.enter("cold")
	cold := timeEach(len(p.cks), func(i int) { p.inc.RunOne(p.cks[i], scan.Options{}) })
	st.enter("warm")
	const passes = 5
	var encode []time.Duration
	warm := timeEach(passes*len(p.cks), func(i int) {
		ck := p.cks[i%len(p.cks)]
		res := p.inc.RunOne(ck, scan.Options{})
		t := time.Now()
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		_ = enc.Encode(api.ScanResult(ck.Name(), res, false, false)) // io.Discard cannot fail
		d := time.Since(t)
		encode = append(encode, d)
	})
	for i := range warm {
		warm[i] -= encode[i]
	}
	st.enter("batch")
	var berr error
	batch := timeEach(4, func(i int) {
		revs := make([]checker.Checker, batchSize)
		for b := range revs {
			_, spec := in.pool[(i*batchSize+b)%len(in.pool)].revision(fmt.Sprintf("probe%d", i))
			ck, err := ckdsl.CompileSource(spec)
			if err != nil {
				berr = err
				return
			}
			revs[b] = ck
		}
		p.inc.RunBatch(revs, nil, scan.Options{}, 0)
	})
	p.out["scan.cold_run_ms_p50"] = durQuantile(cold, 0.5, ms)
	p.out["scan.warm_run_ms_p50"] = durQuantile(warm, 0.5, ms)
	p.out["scan.batch_run_ms_p50"] = durQuantile(batch, 0.5, ms)
	p.out["api.encode_scan_us_p50"] = durQuantile(encode, 0.5, us)
	p.out["scan.stage_parse_ms"] = durQuantile(st.by["warm/"+scan.StageParse], 0.5, ms)
	p.out["scan.stage_cache_probe_ms"] = durQuantile(st.by["warm/"+scan.StageCacheProbe], 0.5, ms)
	p.out["scan.stage_serialize_ms"] = durQuantile(st.by["warm/"+scan.StageSerialize], 0.5, ms)
	p.out["scan.stage_engine_eval_ms"] = durQuantile(st.by["cold/"+scan.StageEngineEval], 0.5, ms)
	return len(cold) + len(warm) + len(batch), berr
}

// engine times AnalyzeFunc on every function of the corpus under three
// pool checkers, one at a time as a cold single-checker scan runs them.
func (p *prober) engine() (int, error) {
	const sample = 3
	files := p.e.in.cb.Files()
	engFP := engine.Options{}.Fingerprint()
	var ds []time.Duration
	total := time.Duration(0)
	for _, ck := range p.cks[:sample] {
		fp, ok := ck.(checker.Fingerprinter)
		if !ok {
			return 0, fmt.Errorf("checker %s has no fingerprint", ck.Name())
		}
		ckFP := fp.Fingerprint()
		opts := engine.Options{Checkers: []checker.Checker{ck}}
		for i, f := range files {
			for j, fn := range f.Funcs {
				t := time.Now()
				res := engine.AnalyzeFunc(f, fn, opts)
				d := time.Since(t)
				ds = append(ds, d)
				total += d
				p.kept = append(p.kept, keyed{store.Key{FuncHash: p.e.in.cb.FuncHash(i, j), CheckerFP: ckFP, EngineFP: engFP}, res})
			}
		}
	}
	p.out["engine.analyze_func_us_p50"] = durQuantile(ds, 0.5, us)
	p.out["engine.analyze_func_us_p90"] = durQuantile(ds, 0.9, us)
	p.out["engine.funcs_per_s"] = float64(len(ds)) / total.Seconds()
	return len(ds), nil
}

// memory times the memory tier's Put, Get and bulk invalidation (four
// function hashes at a time, a changeset's worth) on real results.
func (p *prober) memory() (int, error) {
	ctx := context.Background()
	m := store.NewMemory(0)
	puts := timeEach(len(p.kept), func(i int) { m.Put(ctx, p.kept[i].key, p.kept[i].res) })
	missed := 0
	gets := timeEach(len(p.kept), func(i int) {
		if _, ok := m.Get(ctx, p.kept[i].key); !ok {
			missed++
		}
	})
	if missed > 0 {
		return 0, fmt.Errorf("memory tier lost %d of %d entries it was just given", missed, len(p.kept))
	}
	funcs := len(p.kept) / 3 // kept holds three checkers' results per function
	inval := timeEach(funcs/toggled, func(i int) {
		hashes := make([]string, toggled)
		for k := range hashes {
			hashes[k] = p.kept[i*toggled+k].key.FuncHash
		}
		m.InvalidateFuncs(hashes)
	})
	p.out["store.memory_put_ns_p50"] = durQuantile(puts, 0.5, ns)
	p.out["store.memory_get_ns_p50"] = durQuantile(gets, 0.5, ns)
	p.out["store.memory_invalidate_us_p50"] = durQuantile(inval, 0.5, us)
	return len(puts) + len(gets) + len(inval), nil
}

// writePath times what a commit costs below HTTP: decoding the measured
// changeset bodies, parsing and formatting the toggled sources, and
// applying the changesets to a warm Incremental.
func (p *prober) writePath() (int, error) {
	in, sc := p.e.in, p.e.sc
	var perr error
	parse := timeEach(25*2*toggled, func(i int) {
		t := in.toggles[i%toggled]
		src := t.FileA
		if (i/toggled)%2 == 1 {
			src = t.FileB
		}
		if _, err := minic.ParseFile(t.Path, src); err != nil {
			perr = err
		}
	})
	var fns []*minic.FuncDecl
	for _, t := range in.toggles {
		f := in.cb.Files()[in.cb.FileIndex(t.Path)]
		fns = append(fns, f.Funcs[len(f.Funcs)-1])
	}
	format := timeEach(200, func(i int) { minic.FormatFunc(fns[i%len(fns)]) })
	decode := timeEach(200, func(i int) {
		var req api.ChangesetRequest
		if err := json.Unmarshal(sc.toggle[i%2], &req); err != nil {
			perr = err
		}
	})
	// buildReference left the in-process corpus in variant B.
	apply := timeEach(100, func(i int) {
		if _, err := p.inc.ApplyChangeset(in.toggleChanges(i%2 == 1)); err != nil {
			perr = err
		}
	})
	p.out["minic.parse_file_us_p50"] = durQuantile(parse, 0.5, us)
	p.out["minic.format_func_us_p50"] = durQuantile(format, 0.5, us)
	p.out["api.decode_changeset_us_p50"] = durQuantile(decode, 0.5, us)
	p.out["scan.apply_changeset_us_p50"] = durQuantile(apply, 0.5, us)
	return len(parse) + len(format) + len(decode) + len(apply), perr
}

// shard records two-shard partials of four pool checkers and times the
// merge alone, then a full Scatter.Scan whose local half and stub peer
// both replay the recording — HTTP, JSON and merge with no scan work —
// and the generation feed's publish and pull.
func (p *prober) shard() (int, error) {
	const sample = 4
	in := p.e.in
	ring := shard.Ring{Count: 2}
	var paths []string
	for _, f := range in.cb.Files() {
		paths = append(paths, f.Name)
	}
	parts := ring.Partition(paths)
	type recorded struct {
		name  string
		parts []*api.ScanResponse
	}
	bySpec := map[string]*recorded{}
	var recs []*recorded
	for k := 0; k < sample; k++ {
		rec := &recorded{name: p.cks[k].Name()}
		for s := range parts {
			idx := make([]int, len(parts[s]))
			for i, path := range parts[s] {
				idx[i] = in.cb.FileIndex(path)
			}
			res := p.inc.RunFiles(idx, []checker.Checker{p.cks[k]}, scan.Options{})
			rec.parts = append(rec.parts, api.ScanResult(rec.name, res, false, true))
		}
		bySpec[in.pool[k].Spec] = rec
		recs = append(recs, rec)
	}
	var perr error
	merge := timeEach(50*sample, func(i int) {
		rec := recs[i%sample]
		if _, err := shard.MergeScan(rec.name, paths, ring, rec.parts, 0); err != nil {
			perr = err
		}
	})

	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req api.ScanRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || bySpec[req.Checker] == nil {
			http.Error(w, "stub peer: unknown checker", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(bySpec[req.Checker].parts[1]) // a failed write surfaces as a scatter error
	}))
	defer peer.Close()
	sc := shard.NewScatter(shard.Config{Ring: ring, Self: 0, Peers: []string{"", peer.URL}}, shard.Hooks{})
	scatter := timeEach(50*sample, func(i int) {
		k := i % sample
		_, info, err := sc.Scan(context.Background(), shard.ScanJob{
			Req: api.ScanRequest{Checker: in.pool[k].Spec}, Name: recs[k].name, Paths: paths,
			Local: func(context.Context, []string) ([]*api.ScanResponse, error) {
				return []*api.ScanResponse{recs[k].parts[0]}, nil
			},
		})
		if err == nil && info.Degraded > 0 {
			err = fmt.Errorf("scatter against the stub peer degraded")
		}
		if err != nil {
			perr = err
		}
	})

	feed := shard.NewFeed(0)
	var changes [2][]api.Change
	for b := range changes {
		for _, c := range in.toggleChanges(b == 1) {
			changes[b] = append(changes[b], api.Change{Path: c.Path, Func: c.Func, Source: c.Source})
		}
	}
	publish := timeEach(200, func(i int) {
		if err := feed.Publish(api.FeedEntry{Generation: int64(i + 1), Changes: changes[i%2]}); err != nil {
			perr = err
		}
	})
	since := timeEach(200, func(i int) { feed.Since(int64(i)) }) // a peer one commit behind the i+1 published
	p.out["shard.merge_scan_us_p50"] = durQuantile(merge, 0.5, us)
	p.out["shard.scatter_tax_ms_p50"] = durQuantile(scatter, 0.5, ms)
	p.out["shard.feed_publish_us_p50"] = durQuantile(publish, 0.5, us)
	p.out["shard.feed_since_us_p50"] = durQuantile(since, 0.5, us)
	return len(merge) + len(scatter) + len(publish) + len(since), perr
}

// remoteSample bounds the entries the network and disk probes move.
const remoteSample = 1000

// remote times store.Remote against an in-process store.CacheServer on
// loopback: the kserve→kcached round trip without either daemon.
func (p *prober) remote() (int, error) {
	srv := httptest.NewServer(store.NewCacheServer(store.NewMemory(0)).Handler())
	defer srv.Close()
	r, err := store.NewRemote(srv.URL, store.RemoteConfig{})
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	kept := p.kept[:min(remoteSample, len(p.kept))]
	puts := timeEach(len(kept), func(i int) { r.Put(ctx, kept[i].key, kept[i].res) })
	missed := 0
	gets := timeEach(len(kept), func(i int) {
		if _, ok := r.Get(ctx, kept[i].key); !ok {
			missed++
		}
	})
	if missed > 0 {
		return 0, fmt.Errorf("remote tier missed %d of %d entries it was just given", missed, len(kept))
	}
	p.out["store.remote_put_us_p50"] = durQuantile(puts, 0.5, us)
	p.out["store.remote_get_us_p50"] = durQuantile(gets, 0.5, us)
	return len(puts) + len(gets), nil
}

// segment times the disk tier twice: through the store.SegmentDisk
// adapter (result codec included) and on the raw segment log, where it
// also measures framing overhead and one compaction after a third of the
// entries were overwritten and a third invalidated.
func (p *prober) segment() (int, error) {
	ctx := context.Background()
	kept := p.kept[:min(remoteSample, len(p.kept))]
	sd, err := store.NewSegmentDisk(filepath.Join(p.dir, "segdisk"))
	if err != nil {
		return 0, err
	}
	sdPuts := timeEach(len(kept), func(i int) { sd.Put(ctx, kept[i].key, kept[i].res) })
	missed := 0
	sdGets := timeEach(len(kept), func(i int) {
		if _, ok := sd.Get(ctx, kept[i].key); !ok {
			missed++
		}
	})
	if err := sd.Close(); err != nil {
		return 0, err
	}

	// Small segments, so that the log seals several and compaction has
	// sealed segments with dead records to rewrite.
	seg, err := segment.Open(filepath.Join(p.dir, "segment"), segment.Options{SegmentMaxBytes: 256 << 10})
	if err != nil {
		return 0, err
	}
	payloads := make([][]byte, len(kept))
	for i, k := range kept {
		if payloads[i], err = json.Marshal(k.res); err != nil {
			return 0, err
		}
	}
	var serr error
	put := func(i int) {
		if err := seg.Put(kept[i].key.ID(), kept[i].key.FuncHash, payloads[i]); err != nil {
			serr = err
		}
	}
	puts := timeEach(len(kept), put)
	gets := timeEach(len(kept), func(i int) {
		if _, ok := seg.Get(kept[i].key.ID()); !ok {
			missed++
		}
	})
	if missed > 0 {
		return 0, fmt.Errorf("disk tier missed %d entries it was just given", missed)
	}
	if err := seg.Sync(); err != nil {
		return 0, err
	}
	st := seg.Stats()
	p.out["segment.bytes_per_user_byte"] = float64(st.DiskBytes) / float64(st.Bytes)
	for i := 0; i < len(kept)/3; i++ {
		put(i)
		seg.InvalidateFunc(kept[len(kept)-1-i].key.FuncHash)
	}
	t := time.Now()
	seg.Compact(0)
	p.out["segment.compact_ms"] = ms(time.Since(t))
	if err := seg.Close(); err != nil {
		return 0, err
	}
	p.out["store.segdisk_put_us_p50"] = durQuantile(sdPuts, 0.5, us)
	p.out["store.segdisk_get_us_p50"] = durQuantile(sdGets, 0.5, us)
	p.out["segment.put_us_p50"] = durQuantile(puts, 0.5, us)
	p.out["segment.get_us_p50"] = durQuantile(gets, 0.5, us)
	return 4*len(kept) + 1, serr
}
