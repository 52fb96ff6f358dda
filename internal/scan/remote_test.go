package scan

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/kernel"
	"knighter/internal/minic"
	"knighter/internal/store"
)

// loudKeys returns the digest of every key of a pass of cks' riders over
// cb's whole corpus under the default engine bounds on which its checker
// is not quiet, the pairs the scheduler explores and shares with
// kcached; how many of each rider's keys that is; and for each of the
// pass's 64-unit ranges, whether it holds one.
func loudKeys(cb *Codebase, cks []checker.Checker) (keys map[store.Digest]bool, perRider []int, loudRange []bool) {
	keys, perRider = map[store.Digest]bool{}, make([]int, len(cks))
	engFP := Options{}.Engine.Fingerprint()
	u := 0
	for i, f := range cb.Files() {
		for j, fn := range f.Funcs {
			if u%rangeSize == 0 {
				loudRange = append(loudRange, false)
			}
			var fp minic.Footprint
			fp.Reset(fn)
			for r, ck := range cks {
				if q, ok := ck.(checker.Quieter); ok && q.QuietOn(&fp) {
					continue
				}
				keys[store.Key{FuncHash: cb.FuncHash(i, j), CheckerFP: checkerFingerprint(ck), EngineFP: engFP}.Digest()] = true
				perRider[r]++
				loudRange[len(loudRange)-1] = true
			}
			u++
		}
	}
	return keys, perRider, loudRange
}

// TestRemoteTierOneRoundTripPerRange: a cold RunBatch of two checkers
// through memory -> Remote -> CacheServer reaches kcached in exactly one
// POST /entries/get and one POST /entries/put per 64-unit range holding
// a pair some checker is loud on, and publishes the results it explored:
// its misses less its quiet answers. A second replica with an empty
// memory tier explores nothing: its remote hits are the loud pairs and
// its misses its quiet answers, again in one get per such range, and it
// puts nothing. Both replicas' results are byte-identical to
// Codebase.Run.
func TestRemoteTierOneRoundTripPerRange(t *testing.T) {
	cb, err := NewCodebase(kernel.Generate(kernel.Config{Seed: 1, Scale: 0.25}))
	if err != nil {
		t.Fatal(err)
	}
	second, err := ckdsl.CompileSource(strings.NewReplacer("scan_npd", "scan_npd_kzalloc", `"devm_kzalloc"`, `"kzalloc"`).Replace(scanNPD))
	if err != nil {
		t.Fatal(err)
	}
	cks := []checker.Checker{compileChecker(t), second}
	var want []string
	for _, ck := range cks {
		want = append(want, resultBytes(t, cb.RunOne(ck, Options{})))
	}
	_, loud, loudRange := loudKeys(cb, cks)
	ranges := int64(0)
	for _, l := range loudRange {
		if l {
			ranges++
		}
	}

	var gets, puts atomic.Int64
	inner := store.NewCacheServer(store.NewMemory(0)).Handler()
	kc := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/entries/get":
			gets.Add(1)
		case "/entries/put":
			puts.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	defer kc.Close()

	funcs := cb.NumFuncs()
	for replica, wantPuts := range []int64{ranges, 0} {
		remote, err := store.NewRemote(kc.URL, store.RemoteConfig{})
		if err != nil {
			t.Fatal(err)
		}
		st := store.NewStack(nil, store.Tier{Name: "memory", Store: store.NewMemory(0)}, remote)
		gets.Store(0)
		puts.Store(0)
		res := NewIncremental(cb, st).RunBatch(cks, nil, Options{Workers: 2}, 0)
		if gets.Load() != ranges || puts.Load() != wantPuts {
			t.Fatalf("replica %d over %d ranges with a loud pair: %d get and %d put requests, want %d and %d",
				replica, ranges, gets.Load(), puts.Load(), ranges, wantPuts)
		}
		explored := 0
		for k, r := range res {
			if wantHits := replica * loud[k]; r.CacheHits != wantHits || r.CacheMisses != funcs-wantHits || r.QuietResults != funcs-loud[k] {
				t.Fatalf("replica %d, checker %d: hits=%d misses=%d quiet=%d, want %d hits of %d and %d quiet",
					replica, k, r.CacheHits, r.CacheMisses, r.QuietResults, wantHits, funcs, funcs-loud[k])
			}
			explored += r.CacheMisses - r.QuietResults
			if resultBytes(t, r) != want[k] {
				t.Fatalf("replica %d, checker %d: differs from Codebase.Run", replica, k)
			}
		}
		rs := remote.RemoteStats()
		if wantHits := int64(replica * (loud[0] + loud[1])); rs.Errors != 0 || rs.Hits != wantHits || rs.Puts != int64(explored) {
			t.Fatalf("replica %d: remote books %+v, want %d hits, %d puts and no errors", replica, rs, wantHits, explored)
		}
	}
}

// kcachedLog is a kcached store that records the ids each entry request
// carried: CacheServer makes one store call per request.
type kcachedLog struct {
	*store.Memory
	mu         sync.Mutex
	gets, puts [][]store.Digest
}

func (l *kcachedLog) GetMany(ctx context.Context, keys []store.Key, ids []store.Digest, out [][]byte) {
	l.mu.Lock()
	l.gets = append(l.gets, slices.Clone(ids))
	l.mu.Unlock()
	l.Memory.GetMany(ctx, keys, ids, out)
}

func (l *kcachedLog) PutMany(ctx context.Context, keys []store.Key, ids []store.Digest, payloads [][]byte) {
	l.mu.Lock()
	l.puts = append(l.puts, slices.Clone(ids))
	l.mu.Unlock()
	l.Memory.PutMany(ctx, keys, ids, payloads)
}

// take returns the requests recorded since the last take.
func (l *kcachedLog) take() (gets, puts [][]store.Digest) {
	l.mu.Lock()
	defer l.mu.Unlock()
	gets, puts = l.gets, l.puts
	l.gets, l.puts = nil, nil
	return gets, puts
}

// checkRequests fails unless reqs carried exactly the keys of want, no
// key twice, in one request per range that holds one: n requests.
func checkRequests(t *testing.T, what string, reqs [][]store.Digest, want map[store.Digest]bool, n int) {
	t.Helper()
	seen := map[store.Digest]bool{}
	for _, ids := range reqs {
		for _, id := range ids {
			if !want[id] || seen[id] {
				t.Fatalf("%s: a request carried a quiet key or one already sent", what)
			}
			seen[id] = true
		}
	}
	if len(reqs) != n || len(seen) != len(want) {
		t.Fatalf("%s: %d keys in %d requests, want %d keys in %d", what, len(seen), len(reqs), len(want), n)
	}
}

// TestRemoteTierSharesOnlyLoudPairs: kcached sees a key only if some
// checker of its rider is loud on its function. A cold RunBatch of a
// checker loud on a few functions in every range and one quiet almost
// everywhere gets and puts exactly the loud (rider, unit) keys, one
// request each per range that holds one, and sends nothing for a range
// whose misses are all quiet; a memory-cold replica fetches exactly
// those keys and puts nothing; a multi-checker Run is the same riders,
// and a memory-cold replica's fetches those keys again. Every result is
// byte-identical to Codebase.Run.
func TestRemoteTierSharesOnlyLoudPairs(t *testing.T) {
	cb, err := NewCodebase(kernel.Generate(kernel.Config{Seed: 1, Scale: 0.25}))
	if err != nil {
		t.Fatal(err)
	}
	rare, err := ckdsl.CompileSource(strings.NewReplacer("scan_npd", "scan_npd_kmemdup", `"devm_kzalloc"`, `"kmemdup"`).Replace(scanNPD))
	if err != nil {
		t.Fatal(err)
	}
	cks := []checker.Checker{compileChecker(t), rare}
	log := &kcachedLog{Memory: store.NewMemory(0)}
	kc := httptest.NewServer(store.NewCacheServer(log).Handler())
	defer kc.Close()
	replica := func() *Incremental {
		remote, err := store.NewRemote(kc.URL, store.RemoteConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return NewIncremental(cb, store.NewStack(nil, store.Tier{Name: "memory", Store: store.NewMemory(0)}, remote))
	}
	count := func(ranges []bool) (n int) {
		for _, loud := range ranges {
			if loud {
				n++
			}
		}
		return n
	}

	batch, _, batchRanges := loudKeys(cb, cks)
	if n := count(batchRanges); n == 0 || n == len(batchRanges) {
		t.Fatalf("%d of %d ranges hold a loud pair: the corpus shows nothing", n, len(batchRanges))
	}
	for _, name := range []string{"cold replica", "memory-cold replica"} {
		res := replica().RunBatch(cks, nil, Options{Workers: 2}, 0)
		gets, puts := log.take()
		checkRequests(t, name+" gets", gets, batch, count(batchRanges))
		if name == "cold replica" {
			checkRequests(t, name+" puts", puts, batch, count(batchRanges))
		} else if len(puts) != 0 {
			t.Fatalf("%s: %d put requests, want none", name, len(puts))
		}
		for k, r := range res {
			if resultBytes(t, r) != resultBytes(t, cb.RunOne(cks[k], Options{})) {
				t.Fatalf("%s, checker %d: differs from Codebase.Run", name, k)
			}
		}
	}

	res := replica().Run(cks, Options{Workers: 2})
	gets, puts := log.take()
	checkRequests(t, "multi-checker Run gets", gets, batch, count(batchRanges))
	if len(puts) != 0 {
		t.Fatalf("multi-checker Run: %d put requests, want none", len(puts))
	}
	if resultBytes(t, res) != resultBytes(t, cb.Run(cks, Options{})) {
		t.Fatal("multi-checker Run: differs from Codebase.Run")
	}
	if n := log.Stats().Entries; n != len(batch) {
		t.Fatalf("kcached holds %d entries, want the %d loud keys", n, len(batch))
	}
}

// TestSharedPayloadsUnderConcurrentWrites: a tier hands out the payloads
// it holds, shared and read-only, so two warm scans decode the same
// bytes at once while a writer overwrites every key with fresh copies of
// its payload and a changeset storm invalidates one function's entries
// generation after generation. CI runs it under the race detector: no
// tier and no scan may write into a payload it handed out, and every
// scan must equal an uncached scan of the generation it pinned. Once
// over a memory-only stack, and once over a memory front too small for
// the corpus above an httptest kcached, so that most hits are kcached's
// payloads, copied out of its replies and promoted.
func TestSharedPayloadsUnderConcurrentWrites(t *testing.T) {
	for _, shape := range []string{"memory", "memory+kcached"} {
		t.Run(shape, func(t *testing.T) {
			cb, ck := buildCodebase(t), compileChecker(t)
			front := store.Tier{Name: "memory", Store: store.NewMemory(0)}
			var remote *store.Remote
			if shape == "memory+kcached" {
				kc := httptest.NewServer(store.NewCacheServer(store.NewMemory(0)).Handler())
				defer kc.Close()
				var err error
				if remote, err = store.NewRemote(kc.URL, store.RemoteConfig{}); err != nil {
					t.Fatal(err)
				}
				front.Store = store.NewMemory(24 << 10) // room for about 180 of 617 entries
			}
			st := store.NewStack(nil, front, remote)
			inc := NewIncremental(cb, st)

			// The file's last function alternates between two versions:
			// generation base+2k is the canonical corpus, base+2k+1 the
			// tweaked one.
			i := pickFile(t, cb, 2)
			canonicalize(t, inc, i)
			f := cb.Files()[i]
			j := len(f.Funcs) - 1
			change := func(tweak bool) Change {
				src := minic.FormatFunc(f.Funcs[j])
				if tweak {
					src = tweakedFunc(t, cb, i, j)
				}
				return Change{Path: f.Name, Func: f.Funcs[j].Name, Source: src}
			}
			versions := []Change{change(false), change(true)}
			base := cb.Generation()
			var want [2]string
			for g, c := range []Change{versions[1], versions[0]} {
				want[g%2] = resultBytes(t, cb.RunOne(ck, Options{}))
				applyOne(t, inc, c)
			}
			if got := resultBytes(t, cb.RunOne(ck, Options{})); got != want[0] {
				t.Fatal("reverting the tweak did not restore the canonical scan")
			}
			inc.RunOne(ck, Options{}) // warm

			fp := checkerFingerprint(ck)
			engFP := Options{}.Engine.Fingerprint()
			var wg sync.WaitGroup
			run := func(f func()) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					f()
				}()
			}
			var scans [2][]*Result
			for r := range scans {
				run(func() {
					for range 10 {
						scans[r] = append(scans[r], inc.RunOne(ck, Options{Workers: 2}))
					}
				})
			}
			run(func() {
				for range 10 {
					pin := cb.Pin()
					var keys []store.Key
					var ids []store.Digest
					for fi, file := range pin.files {
						for fj := range file.Funcs {
							k := store.Key{FuncHash: pin.FuncHash(fi, fj), CheckerFP: fp, EngineFP: engFP}
							keys, ids = append(keys, k), append(ids, k.Digest())
						}
					}
					pin.Release()
					payloads := make([][]byte, len(keys))
					st.GetMany(context.Background(), keys, ids, payloads)
					for k, p := range payloads {
						payloads[k] = bytes.Clone(p)
					}
					st.PutMany(context.Background(), keys, ids, payloads)
				}
			})
			var commitErr error
			run(func() {
				for n := range 6 {
					if _, commitErr = inc.ApplyChangeset([]Change{versions[(n+1)%2]}); commitErr != nil {
						return
					}
				}
			})
			wg.Wait()
			if commitErr != nil {
				t.Fatal(commitErr)
			}
			hits := 0
			for _, res := range append(scans[0], scans[1]...) {
				hits += res.CacheHits
				if resultBytes(t, res) != want[(res.Generation-base)%2] {
					t.Errorf("a scan pinned at generation %d differs from an uncached scan of it", res.Generation)
				}
			}
			if hits == 0 {
				t.Fatal("no warm scan hit the store")
			}
			if remote != nil && remote.RemoteStats().Hits == 0 {
				t.Fatal("no hit came back from kcached")
			}
		})
	}
}
