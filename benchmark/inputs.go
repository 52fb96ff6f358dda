package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/kernel"
	"knighter/internal/llm"
	"knighter/internal/minic"
	"knighter/internal/scan"
	"knighter/internal/shard"
	"knighter/internal/synth"
)

const (
	corpusScale = 1.0
	// poolSize checkers carry the traffic: one per bug class plus two,
	// of the checkers the pipeline synthesizes. Pre-warming costs ~0.1 s
	// per checker, ~0.7 s through the fleet, and set-up runs twice per
	// run, which is what bounds the sample.
	poolSize = 12
	// toggled files per changeset, half owned by each of two shards.
	toggled = 4
	// batchSize never-seen revisions per cold_sweep /batch: at ~0.15 s
	// an op the window's 108 ops, ten beyond p90, take 17 s.
	batchSize = 2
	// readerRate is the open-loop reader's fixed scans per second. At 50
	// a fleet read (~13 ms of CPU over two shards) plus the committer
	// saturate the two cores, and read latency then follows queueing
	// rather than the code; 25 leaves headroom on both commit workloads.
	readerRate = 25
)

// poolChecker is one synthesized checker of the traffic pool.
type poolChecker struct {
	Base  string // spec name; reports carry "knighter."+Base
	Spec  string // DSL text
	Class string
}

// revision renders the same spec under a fresh name. The name is part
// of the compiled checker's fingerprint, so a revision is cold in every
// cache tier, exactly like a refinement round's candidate.
func (p poolChecker) revision(tag string) (name, spec string) {
	name = p.Base + "_" + tag
	return name, strings.Replace(p.Spec, "checker "+p.Base+" ", "checker "+name+" ", 1)
}

// toggleFile is one file the changesets flip between variant A (as
// canonicalized) and variant B (`int bench_probe;` inserted at the top
// of its last function — the last, so no sibling's position shifts and
// exactly one function goes cold).
type toggleFile struct {
	Path, Func   string
	FuncA, FuncB string // function-level patch sources
	FileA, FileB string // whole-file replacement sources
}

// inputs is everything a run derives from its seed. The daemons are
// handed the corpus seed and then only ever see requests built here.
type inputs struct {
	seed    int64
	corpus  *kernel.Corpus
	cb      *scan.Codebase // in-process corpus for reference answers and probes
	funcs   int
	commits int
	valid   int // checkers the pipeline validated, of commits
	pool    []poolChecker
	toggles [toggled]toggleFile
	// canon is the whole-file changeset that canonicalizes the toggled
	// files (generation 1 = state A).
	canon []byte
	// ref holds the reference answer digests per pool checker name, and
	// refSites every (file, function) the reference answers report.
	ref      map[string]*refDigest
	refSites map[[2]string]bool

	// Boot-layer probe timings, taken while building the above.
	generateMS, newCodebaseMS float64
	genChecker                []time.Duration
}

func newRand(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + salt))
}

func buildInputs(seed int64) (*inputs, error) {
	in := &inputs{seed: seed}

	t := time.Now()
	in.corpus = kernel.Generate(kernel.Config{Seed: seed, Scale: corpusScale})
	in.generateMS = ms(time.Since(t))
	t = time.Now()
	cb, err := scan.NewCodebase(in.corpus)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	in.newCodebaseMS = ms(time.Since(t))
	in.cb = cb
	in.funcs = cb.NumFuncs()

	in.buildPool()
	if len(in.pool) < poolSize {
		return nil, fmt.Errorf("inputs: only %d valid checkers at seed %d, need %d", len(in.pool), seed, poolSize)
	}
	if err := in.buildToggles(); err != nil {
		return nil, err
	}
	return in, in.buildReference()
}

// buildPool runs the synthesis pipeline over the hand-labeled commits
// and takes poolSize valid checkers round-robin over the bug classes, in
// dataset order. The seed changes the commits (their code, ids and so
// the checker names) but not which (class, API) pairs make the pool:
// a seeded draw made cold_sweep's cost swing by 30% between seeds, which
// is pool composition, not the system.
func (in *inputs) buildPool() {
	pipe := synth.NewPipeline(llm.NewOracle(llm.O3Mini), synth.Options{})
	byClass := map[string][]poolChecker{}
	var classes []string
	commits := kernel.BuildHandCommits(in.seed + 10).All()
	in.commits = len(commits)
	for _, c := range commits {
		t := time.Now()
		out := pipe.GenChecker(c)
		in.genChecker = append(in.genChecker, time.Since(t))
		if !out.Valid {
			continue
		}
		in.valid++
		if byClass[c.Class] == nil {
			classes = append(classes, c.Class)
		}
		byClass[c.Class] = append(byClass[c.Class], poolChecker{Base: out.Spec.Name, Spec: out.Spec.String(), Class: c.Class})
	}
	for round := 0; len(in.pool) < poolSize; round++ {
		took := false
		for _, cl := range classes {
			if round < len(byClass[cl]) && len(in.pool) < poolSize {
				in.pool = append(in.pool, byClass[cl][round])
				took = true
			}
		}
		if !took {
			return
		}
	}
}

// buildToggles picks the changeset files by seed — two owned by each
// shard of a two-shard ring, so a commit always crosses the fleet — among
// the files within a tenth of the median source size, so that what a
// commit costs to parse does not depend on the draw. It canonicalizes
// them in the in-process corpus and derives both variants of each.
func (in *inputs) buildToggles() error {
	files := in.cb.Files()
	sizes := make([]float64, len(files))
	for i, f := range in.corpus.Files { // same order as the parsed files
		sizes[i] = float64(len(f.Src))
	}
	typical := median(sizes)
	order := newRand(in.seed, 2).Perm(len(files))
	ring := shard.Ring{Count: 2}
	var picked []int
	for owner := 0; len(picked) < toggled; owner = 1 - owner {
		found := false
		for k, i := range order {
			if i >= 0 && len(files[i].Funcs) > 0 && ring.Owner(files[i].Name) == owner &&
				math.Abs(sizes[i]-typical) <= typical/10 {
				picked, order[k], found = append(picked, i), -1, true
				break
			}
		}
		if !found {
			return fmt.Errorf("inputs: no file of typical size left for shard %d", owner)
		}
	}

	var canon []scan.Change
	for _, i := range picked {
		canon = append(canon, scan.Change{Path: files[i].Name, Source: minic.FormatFile(files[i])})
	}
	if _, err := in.cb.ApplyChangeset(canon); err != nil {
		return fmt.Errorf("inputs: canonicalize: %w", err)
	}
	in.canon = changesetBody(canon)

	// Variant B of every file comes from patching the in-process corpus,
	// which is then rolled back to A with the measured changeset;
	// buildReference checks that the measured changeset to B lands on
	// these same sources.
	files = in.cb.Files()
	var toB []scan.Change
	for k, i := range picked {
		f := files[i]
		fn := f.Funcs[len(f.Funcs)-1]
		a := minic.FormatFunc(fn)
		brace := strings.Index(a, "{")
		if brace < 0 {
			return fmt.Errorf("inputs: %s.%s has no body", f.Name, fn.Name)
		}
		in.toggles[k] = toggleFile{
			Path: f.Name, Func: fn.Name,
			FuncA: a, FuncB: a[:brace+1] + "\n\tint bench_probe;" + a[brace+1:],
			FileA: minic.FormatFile(f),
		}
		toB = append(toB, scan.Change{Path: f.Name, Func: fn.Name, Source: in.toggles[k].FuncB})
	}
	if _, err := in.cb.ApplyChangeset(toB); err != nil {
		return fmt.Errorf("inputs: variant B: %w", err)
	}
	files = in.cb.Files()
	for k, i := range picked {
		in.toggles[k].FileB = minic.FormatFile(files[i])
	}
	if _, err := in.cb.ApplyChangeset(in.toggleChanges(false)); err != nil {
		return fmt.Errorf("inputs: back to variant A: %w", err)
	}
	return nil
}

// toggleChanges is the measured changeset: all four files to variant B
// (or back to A), the first two as function-level patches and the last
// two as whole-file replacements, so both mutation paths carry load.
func (in *inputs) toggleChanges(toB bool) []scan.Change {
	out := make([]scan.Change, toggled)
	for k, t := range in.toggles {
		fn, file := t.FuncA, t.FileA
		if toB {
			fn, file = t.FuncB, t.FileB
		}
		if k < toggled/2 {
			out[k] = scan.Change{Path: t.Path, Func: t.Func, Source: fn}
		} else {
			out[k] = scan.Change{Path: t.Path, Source: file}
		}
	}
	return out
}

// compilePool compiles every pool checker (they all validated, so a
// failure here is a bug in the benchmark).
func (in *inputs) compilePool() ([]checker.Checker, error) {
	cks := make([]checker.Checker, len(in.pool))
	for i, p := range in.pool {
		ck, err := ckdsl.CompileSource(p.Spec)
		if err != nil {
			return nil, fmt.Errorf("inputs: pool checker %s: %w", p.Base, err)
		}
		cks[i] = ck
	}
	return cks, nil
}

// Request bodies. The runner speaks the daemons' JSON wire format with
// its own structs rather than internal/api's, so a wire change that
// breaks deployed clients breaks the benchmark too.

type wireChange struct {
	Path   string `json:"path"`
	Func   string `json:"func,omitempty"`
	Source string `json:"source"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("benchmark: marshal request: " + err.Error()) // plain structs of strings and ints
	}
	return b
}

func changesetBody(changes []scan.Change) []byte {
	wc := make([]wireChange, len(changes))
	for i, c := range changes {
		wc[i] = wireChange{Path: c.Path, Func: c.Func, Source: c.Source}
	}
	return mustJSON(map[string]any{"changes": wc})
}

func scanBody(spec string, minGen int64, timing bool) []byte {
	req := map[string]any{"checker": spec}
	if minGen > 0 {
		req["min_generation"] = minGen
	}
	if timing {
		req["include_timing"] = true
	}
	return mustJSON(req)
}

func batchBody(specs []string, timing bool) []byte {
	req := map[string]any{"checkers": specs}
	if timing {
		req["include_timing"] = true
	}
	return mustJSON(req)
}

// script is a workload's deterministic request sequence: op i of a
// given seed always has the same bytes. It has no end: a window takes
// the first N ops of it.
type script struct {
	in *inputs
	// perm[c] is client c's walk over the pool: the two warm_serve
	// clients, or the committer (0) and the reader (1).
	perm [2][]int
	// scan[timing][k] is the plain /scan body of pool checker k.
	scan [2][][]byte
	// toggle[toB] is the measured changeset body.
	toggle [2][]byte
}

func newScript(in *inputs) *script {
	s := &script{in: in}
	for c := range s.perm {
		s.perm[c] = newRand(in.seed, 10+int64(c)).Perm(len(in.pool))
	}
	for t := 0; t < 2; t++ {
		for _, p := range in.pool {
			s.scan[t] = append(s.scan[t], scanBody(p.Spec, 0, t == 1))
		}
	}
	s.toggle[0] = changesetBody(in.toggleChanges(false))
	s.toggle[1] = changesetBody(in.toggleChanges(true))
	return s
}

// next is client c's pool checker for its j-th op.
func (s *script) next(c, j int) int { return s.perm[c][j%len(s.perm[c])] }

// warmOp is client c's j-th plain scan: its pool index and body.
func (s *script) warmOp(c, j int, timing bool) (int, []byte) {
	k := s.next(c, j)
	if timing {
		return k, s.scan[1][k]
	}
	return k, s.scan[0][k]
}

// coldOp is the i-th /batch of never-seen revisions of batchSize
// consecutive pool checkers. tag separates warm-up, measured and
// repeated set-up revisions, which must never collide.
func (s *script) coldOp(tag string, i int, timing bool) (pool []int, names []string, body []byte) {
	specs := make([]string, batchSize)
	for b := 0; b < batchSize; b++ {
		k := s.next(0, i*batchSize+b)
		name, spec := s.in.pool[k].revision(fmt.Sprintf("%s%d", tag, i))
		pool, names, specs[b] = append(pool, k), append(names, name), spec
	}
	return pool, names, batchBody(specs, timing)
}

// commitOp is cycle i's changeset: even cycles go to variant B.
func (s *script) commitOp(i int) (toB bool, body []byte) {
	if i%2 == 0 {
		return true, s.toggle[1]
	}
	return false, s.toggle[0]
}

// rescanOp is cycle i's read-your-write scan at the committed generation.
func (s *script) rescanOp(i int, gen int64, timing bool) (int, []byte) {
	k := s.next(0, i)
	return k, scanBody(s.in.pool[k].Spec, gen, timing)
}
