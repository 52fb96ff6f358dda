package scan

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
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

// TestRemoteTierOneRoundTripPerRange: a cold RunBatch of two checkers
// through memory -> Remote -> CacheServer reaches kcached in exactly one
// POST /entries/get and one POST /entries/put per 64-unit range. A
// second replica with an empty memory tier answers every key as a
// remote hit, again in one get per range, and puts nothing. Both
// replicas' results are byte-identical to Codebase.Run.
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

	funcs, ranges := cb.NumFuncs(), int64((cb.NumFuncs()+rangeSize-1)/rangeSize)
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
			t.Fatalf("replica %d over %d ranges: %d get and %d put requests, want %d and %d",
				replica, ranges, gets.Load(), puts.Load(), ranges, wantPuts)
		}
		for k, r := range res {
			if wantHits := replica * funcs; r.CacheHits != wantHits || r.CacheMisses != funcs-wantHits {
				t.Fatalf("replica %d, checker %d: hits=%d misses=%d, want %d hits of %d", replica, k, r.CacheHits, r.CacheMisses, wantHits, funcs)
			}
			if resultBytes(t, r) != want[k] {
				t.Fatalf("replica %d, checker %d: differs from Codebase.Run", replica, k)
			}
		}
		if rs := remote.RemoteStats(); rs.Errors != 0 || rs.Hits != int64(replica*2*funcs) {
			t.Fatalf("replica %d: remote books %+v, want %d hits and no errors", replica, rs, replica*2*funcs)
		}
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

			fp := checkersFingerprint([]checker.Checker{ck})
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
