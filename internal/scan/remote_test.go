package scan

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/kernel"
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
		st := store.NewStack(nil, store.Tier{Name: "memory", Store: store.NewMemory(0)}, store.Tier{Name: "remote", Store: remote})
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
