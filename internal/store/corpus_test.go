package store_test

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/engine"
	"knighter/internal/kernel"
	"knighter/internal/llm"
	"knighter/internal/scan"
	"knighter/internal/store"
	"knighter/internal/synth"
)

// stored is one result a real scan wrote to its store: the payload it
// put, and the result the engine computes for the same key.
type stored struct {
	key     store.Key
	payload []byte
	res     *engine.Result
}

// recorder is a Store that misses every key and records every put.
type recorder struct {
	mu   sync.Mutex
	puts []stored
}

func (r *recorder) Stats() store.Stats           { return store.Stats{} }
func (r *recorder) InvalidateFuncs([]string) int { return 0 }
func (r *recorder) GetMany(_ context.Context, _ []store.Key, _ []store.Digest, out [][]byte) {
	clear(out)
}
func (r *recorder) PutMany(_ context.Context, keys []store.Key, _ []store.Digest, payloads [][]byte) {
	r.mu.Lock()
	for i, k := range keys {
		r.puts = append(r.puts, stored{key: k, payload: payloads[i]})
	}
	r.mu.Unlock()
}

var (
	corpusOnce    sync.Once
	corpusResults []stored
)

// corpusPuts is every result a cold batch of the 12-checker synthesized
// pool stores over a scale-0.25 corpus: one per function per checker,
// each paired with what the engine computes for its key directly. Every
// stored payload must be that result's store.Encode bytes.
func corpusPuts(t *testing.T) []stored {
	corpusOnce.Do(func() {
		cb, err := scan.NewCodebase(kernel.Generate(kernel.Config{Seed: 1, Scale: 0.25}))
		if err != nil {
			t.Fatal(err)
		}
		pool := synthesizedPool(t, 12)
		rec := &recorder{}
		scan.NewIncremental(cb, rec).RunBatch(pool, nil, scan.Options{Workers: 1}, 0)
		if len(rec.puts) != cb.NumFuncs()*len(pool) {
			t.Fatalf("cold batch stored %d results, want %d", len(rec.puts), cb.NumFuncs()*len(pool))
		}
		// The engine's own results, one pass per pool checker, under the
		// keys the scheduler stores them by.
		var eo engine.Options
		fps := make([]string, len(pool))
		for i, ck := range pool {
			fps[i] = store.Hash("checkers:v1", ck.(checker.Fingerprinter).Fingerprint())
		}
		want := map[store.Key]*engine.Result{}
		for i, f := range cb.Files() {
			for j, fn := range f.Funcs {
				for c, res := range engine.AnalyzeFuncEach(f, fn, pool, eo) {
					want[store.Key{FuncHash: cb.FuncHash(i, j), CheckerFP: fps[c], EngineFP: eo.Fingerprint()}] = res
				}
			}
		}
		for i := range rec.puts {
			p := &rec.puts[i]
			if p.res = want[p.key]; p.res == nil {
				t.Fatalf("%s: the scan stored a key the engine has no result for", p.key.ID())
			}
			if want := store.Encode(p.res); !bytes.Equal(p.payload, want) {
				t.Fatalf("%s: stored payload\n got % x\nwant % x", p.key.ID(), p.payload, want)
			}
		}
		corpusResults = rec.puts
	})
	if corpusResults == nil {
		t.Fatal("corpus setup failed")
	}
	return corpusResults
}

// synthesizedPool synthesizes checkers from the hand-labeled commits and
// takes n valid ones round-robin over the bug classes, in dataset order
// (the benchmark's pool at seed 1).
func synthesizedPool(t *testing.T, n int) []checker.Checker {
	pipe := synth.NewPipeline(llm.NewOracle(llm.O3Mini), synth.Options{})
	byClass := map[string][]checker.Checker{}
	var classes []string
	for _, c := range kernel.BuildHandCommits(11).All() {
		out := pipe.GenChecker(c)
		if !out.Valid {
			continue
		}
		ck, err := ckdsl.Compile(out.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if byClass[c.Class] == nil {
			classes = append(classes, c.Class)
		}
		byClass[c.Class] = append(byClass[c.Class], ck)
	}
	var pool []checker.Checker
	for round := 0; len(pool) < n; round++ {
		took := false
		for _, cl := range classes {
			if round < len(byClass[cl]) && len(pool) < n {
				pool, took = append(pool, byClass[cl][round]), true
			}
		}
		if !took {
			t.Fatalf("only %d valid checkers, need %d", len(pool), n)
		}
	}
	return pool
}

// Every result a real scan stores must come back from the memory tier
// and from the disk tier byte for byte, and decode to a result that
// encodes to those bytes again — nil and empty traces included, since
// the engine emits empty traces.
func TestCorpusResultsRoundTripEveryTier(t *testing.T) {
	puts := corpusPuts(t)
	disk, err := store.NewSegmentDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	ctx := context.Background()
	keys, ids, payloads := make([]store.Key, len(puts)), make([]store.Digest, len(puts)), make([][]byte, len(puts))
	for i, p := range puts {
		keys[i], ids[i], payloads[i] = p.key, p.key.Digest(), p.payload
	}
	for name, tier := range map[string]store.Store{"memory": store.NewMemory(1 << 30), "disk": disk} {
		tier.PutMany(ctx, keys, ids, payloads)
		got := make([][]byte, len(keys))
		tier.GetMany(ctx, keys, ids, got)
		for i, p := range puts {
			res := new(engine.Result)
			if !bytes.Equal(got[i], p.payload) || store.DecodeInto(res, got[i]) != nil || !bytes.Equal(store.Encode(res), p.payload) {
				t.Fatalf("%s tier: %s round trip:\n got % x\nwant % x", name, p.key.ID(), got[i], p.payload)
			}
		}
	}
}

// TestMemoryResidentBoundedByWeight: the memory tier's budget is in
// weight, so weight must account for what an entry keeps resident. Fill
// a tier the way cold_sweep does — revisions of the pool checkers store
// equal results under new fingerprints — and compare the live-heap
// growth to Stats().Bytes.
func TestMemoryResidentBoundedByWeight(t *testing.T) {
	puts := corpusPuts(t)
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := store.NewMemory(1 << 30)
	for rev := 0; rev < 3; rev++ {
		for _, p := range puts {
			k := p.key
			k.CheckerFP = store.Hash(k.CheckerFP, strconv.Itoa(rev))
			m.Put(ctx, k, p.res)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := m.Stats()
	if st.Entries < 20000 || st.Evictions != 0 {
		t.Fatalf("filled %d entries with %d evictions, want >= 20000 and none", st.Entries, st.Evictions)
	}
	resident := float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
	ratio := resident / float64(st.Bytes)
	t.Logf("%d entries: %.0f B resident, %.0f B weight per entry (ratio %.2f)",
		st.Entries, resident/float64(st.Entries), float64(st.Bytes)/float64(st.Entries), ratio)
	if ratio > 4 {
		t.Fatalf("resident heap is %.2fx the weight the budget counts (want <= 4)", ratio)
	}
	runtime.KeepAlive(m)
}
