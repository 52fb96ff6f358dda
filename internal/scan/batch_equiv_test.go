package scan

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/engine"
	"knighter/internal/kernel"
	"knighter/internal/llm"
	"knighter/internal/store"
	"knighter/internal/synth"
)

// batchForkFile joins the fuzz corpus so that batches meet functions
// whose riders fork: calls the synthesized checkers track, under
// conditions the engine cannot decide (both arms keep the core state and
// differ only in some checkers' facts), with loops deep enough that tiny
// budgets truncate different riders at different frames, and a report on
// an opaque pointee whose description prints an allocation-ordered id.
const batchForkFile = `
struct fz_dev {
	int len;
	char *buf;
	struct fz_dev *next;
};

int fz_fork_join(struct fz_dev *d, int a)
{
	struct fz_dev *p = kzalloc(8, 0);
	if (a & 1)
		fz_note(d);
	else
		kfree(p);
	fz_note(d->next);
	return p->len;
}

int fz_fork_text(struct fz_dev *d, int a, int b)
{
	struct fz_dev *p = kmalloc(8, 0);
	if (b) {
		if (a & 1)
			fz_note(d);
		else
			kfree(p);
		fz_note(d->next);
		return d->next->len;
	}
	kfree(d->buf);
	return d->buf->len;
}

int fz_fork_loop(struct fz_dev *d, int a, int n)
{
	struct fz_dev *p = kzalloc(8, 0);
	struct fz_dev *q = kmalloc(8, 0);
	int i;
	for (i = 0; i < n; i++) {
		if (a & 2)
			kfree(q);
		if (a & 4)
			vfree(d->buf);
		else
			fz_note(p);
		if (a & 8)
			usb_free_urb(d->next);
		d->len = q->len;
	}
	if (!p)
		return 1;
	kfree(q);
	return p->len + d->next->len;
}
`

var (
	batchEquivOnce sync.Once
	batchEquivCB   *Codebase
	batchEquivPool []*ckdsl.Spec
)

// batchEquivSetup parses the corpus and synthesizes the checker pool
// once; scans never mutate a codebase, so every iteration shares it.
func batchEquivSetup(t *testing.T) (*Codebase, []*ckdsl.Spec) {
	batchEquivOnce.Do(func() {
		corpus := fuzzCorpus()
		corpus.Files = append(corpus.Files, &kernel.SourceFile{Path: "drivers/fz/fork.c", Src: batchForkFile})
		cb, err := NewCodebase(corpus)
		if err != nil {
			t.Fatal(err)
		}
		batchEquivCB = cb
		pipe := synth.NewPipeline(llm.NewOracle(llm.O3Mini), synth.Options{})
		for _, c := range kernel.BuildHandCommits(11).All() {
			if out := pipe.GenChecker(c); out.Valid {
				batchEquivPool = append(batchEquivPool, out.Spec)
			}
		}
	})
	if batchEquivCB == nil || len(batchEquivPool) < 20 {
		t.Fatalf("setup failed: %d pool checkers", len(batchEquivPool))
	}
	return batchEquivCB, batchEquivPool
}

// FuzzBatchSoloEquivalence: a batch is N solo scans. For rider sets
// drawn from the synthesized pool — with same-name/different-body
// revisions, exact duplicates, warm riders beside cold ones, MaxReports, file subsets and engine budgets small enough to
// truncate — every RunBatch entry equals RunFiles for that checker alone
// against the same prior store state, and every entry the batch stored
// is the store.Encode bytes of the engine's solo result for that
// function.
//
// The byte stream is: options, warm mask, then one byte per rider.
func FuzzBatchSoloEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 1, 20})                       // two cold riders: kzalloc NPD and kfree UAF, which fork
	f.Add([]byte{1, 0, 20, 1, 16})                   // tiny budgets, leader reversed, plus a leak checker
	f.Add([]byte{2, 1, 1, 21, 1})                    // MaxReports, first rider warm, last an exact duplicate
	f.Add([]byte{0, 0, 1, 64 + 20, 64 + 16})         // same name as rider 0, different bodies
	f.Add([]byte{5, 2, 128 + 1, 20, 15, 64 + 2, 20}) // tiny budgets + file subset, a warm rider, a duplicate
	f.Add([]byte{9, 255, 1, 20, 16, 21})             // everything warm: no unit enters the engine
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		cb, pool := batchEquivSetup(t)
		if len(data) < 3 {
			return
		}
		if len(data) > 8 {
			data = data[:8]
		}
		flags, warm, picks := data[0], data[1], data[2:]

		opts := Options{Workers: 1 + int(flags>>4)%3}
		if flags&1 != 0 {
			opts.Engine = engine.Options{MaxSteps: 50, MaxPaths: 4}
		}
		if flags&2 != 0 {
			opts.MaxReports = 3
		}
		files := make([]int, cb.NumFiles())
		for i := range files {
			files[i] = i
		}
		if flags&4 != 0 {
			files = files[len(files)/2:] // the half with the forking file
		}

		// One byte per rider: bits 0-5 pick the pool spec, bit 6 renames
		// it after rider 0's spec; bit 7 is unused.
		var cks []checker.Checker
		var leadName string
		for i, b := range picks {
			spec := *pool[int(b&63)%len(pool)]
			if i == 0 {
				leadName = spec.Name
			}
			if b&64 != 0 {
				spec.Name = leadName
			}
			ck, err := ckdsl.Compile(&spec)
			if err != nil {
				t.Fatal(err)
			}
			cks = append(cks, ck)
		}

		// env builds a store the riders selected by the warm mask have
		// already scanned through, alone.
		env := func() *Incremental {
			inc := NewIncremental(cb, store.NewMemory(0))
			for i, ck := range cks {
				if warm&(1<<i) != 0 {
					inc.RunFiles(files, []checker.Checker{ck}, opts)
				}
			}
			return inc
		}

		batchInc := env()
		putsBefore := batchInc.Stats().Puts
		batch := batchInc.RunBatch(cks, files, opts, 0)
		if len(batch) != len(cks) {
			t.Fatalf("%d entries for %d checkers", len(batch), len(cks))
		}

		cold := 0 // riders the batch had to compute
		units := 0
		for _, i := range files {
			units += len(cb.Files()[i].Funcs)
		}
		for i, ck := range cks {
			solo := env().RunFiles(files, []checker.Checker{ck}, opts)
			got := *batch[i]
			got.Elapsed, solo.Elapsed = 0, 0
			if !reflect.DeepEqual(&got, solo) {
				t.Fatalf("entry %d (%s) differs from its solo scan:\nbatch %s\nsolo  %s", i, ck.Name(), describe(&got), describe(solo))
			}
			if got.CacheMisses > 0 {
				cold++
			}
			// What the batch left in the store under this rider's keys is
			// the engine's solo result, function by function, as stored.
			fp := checkerFingerprint(ck)
			eo := opts.engineOptions([]checker.Checker{ck})
			for _, fi := range files {
				file := cb.Files()[fi]
				for j, fn := range file.Funcs {
					key := store.Key{FuncHash: cb.FuncHash(fi, j), CheckerFP: fp, EngineFP: opts.Engine.Fingerprint()}
					stored := storedPayload(batchInc.st, key)
					if stored == nil {
						t.Fatalf("entry %d: nothing stored for %s", i, fn.Name)
					}
					if want := store.Encode(engine.AnalyzeFunc(file, fn, eo)); !bytes.Equal(stored, want) {
						t.Fatalf("entry %d: stored result for %s differs from the solo analysis:\nstored % x\nsolo   % x", i, fn.Name, stored, want)
					}
				}
			}
		}
		// Every cold rider stores each function once, a duplicate
		// included; warm riders store nothing.
		if puts := batchInc.Stats().Puts - putsBefore; puts != int64(cold*units) {
			t.Fatalf("batch stored %d entries, want %d cold riders x %d functions", puts, cold, units)
		}
	})
}

// describe renders what the comparison covers, readably.
func describe(r *Result) string {
	var b strings.Builder
	for _, rep := range r.Reports {
		fmt.Fprintf(&b, "%s @%s trace=%d; ", rep, rep.RegionAt, len(rep.Trace))
	}
	c := *r
	c.Reports = nil
	return b.String() + fmt.Sprintf("%+v", c)
}

// stageLog records every stage observation.
type stageLog struct {
	mu    sync.Mutex
	count map[string]int
}

func (l *stageLog) ObserveStage(stage string, _ time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.count[stage]++
}

// A batch is one pass: each stage is observed once for the whole batch,
// not once per checker, so stage histograms do not count one pass N
// times; and every entry's Elapsed is that pass's wall time.
func TestBatchObservesEachStageOnce(t *testing.T) {
	cb, pool := batchEquivSetup(t)
	var cks []checker.Checker
	for _, spec := range pool[:4] {
		ck, err := ckdsl.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		cks = append(cks, ck)
	}
	inc := NewIncremental(cb, store.NewMemory(0))
	log := &stageLog{count: map[string]int{}}
	inc.SetStageObserver(log)
	results := inc.RunBatch(cks, nil, Options{}, 0)
	for _, stage := range []string{StageSnapshotPin, StageParse, StageCacheProbe, StageEngineEval, StageSerialize} {
		if log.count[stage] != 1 {
			t.Errorf("stage %s observed %d times for one batch of %d, want once", stage, log.count[stage], len(cks))
		}
	}
	for i, r := range results {
		if r.Elapsed != results[0].Elapsed || r.Elapsed <= 0 {
			t.Errorf("entry %d: Elapsed %v, entry 0: %v — every entry carries the pass's wall time", i, r.Elapsed, results[0].Elapsed)
		}
		if r.CacheMisses != cb.NumFuncs() || r.CacheHits != 0 {
			t.Errorf("entry %d: %d hits / %d misses, want 0 / %d", i, r.CacheHits, r.CacheMisses, cb.NumFuncs())
		}
	}
}
