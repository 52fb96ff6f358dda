package scan

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/store"
)

// TestScanCanceledContextSkipsAndFlags: a scan whose context is already
// canceled does no analysis, caches nothing, and comes back flagged.
func TestScanCanceledContextSkipsAndFlags(t *testing.T) {
	cb := buildCodebase(t)
	ck := compileChecker(t)
	mem := store.NewMemory(0)
	inc := NewIncremental(cb, mem)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := inc.RunOne(ck, Options{Context: ctx})
	if !res.Canceled {
		t.Fatal("canceled scan not flagged")
	}
	if res.CacheHits != 0 {
		t.Fatalf("canceled scan hit %d entries in an empty store", res.CacheHits)
	}
	if s := mem.Stats(); s.Puts != 0 || s.Entries != 0 {
		t.Fatalf("canceled scan cached %d entries (%d puts); canceled results must never be cached", s.Entries, s.Puts)
	}

	// A subsequent scan with a live context sees a completely cold store
	// and produces exactly what an uncached scan produces.
	clean := inc.RunOne(ck, Options{Workers: 1})
	if clean.Canceled {
		t.Fatal("clean scan inherited the Canceled flag")
	}
	plain := cb.RunOne(ck, Options{Workers: 1})
	if resultBytes(t, clean) != resultBytes(t, plain) {
		t.Fatal("scan after cancellation differs from uncached scan")
	}
}

// TestScanMidFlightCancellation: canceling while the scan runs aborts
// it, and whatever partial results were computed before the cut are all
// clean cache entries — a later scan reuses them and still matches a
// cold scan byte-for-byte.
func TestScanMidFlightCancellation(t *testing.T) {
	cb := buildCodebase(t)
	ck := compileChecker(t)
	mem := store.NewMemory(0)
	inc := NewIncremental(cb, mem)

	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	// Cancel from inside the scan: the store sees one PutMany for each
	// completed range, so canceling on the first guarantees the scan is
	// genuinely mid-flight.
	st := &cancelOnPut{Store: mem, f: func() { once.Do(cancel) }}
	incCut := NewIncremental(cb, st)
	res := incCut.Run([]checker.Checker{ck}, Options{Workers: 2, Context: ctx})
	_ = res // Canceled is timing-dependent with workers>1; the invariants below are not.
	if st.calls.Load() == 0 {
		t.Fatal("the scan never reached PutMany: nothing canceled it mid-flight")
	}

	// Whatever did get cached must be clean: a fresh scan over the same
	// store matches an uncached scan exactly.
	after := inc.RunOne(ck, Options{Workers: 1})
	plain := cb.RunOne(ck, Options{Workers: 1})
	if resultBytes(t, after) != resultBytes(t, plain) {
		t.Fatal("scan over a cancellation-interrupted store differs from uncached scan")
	}
}

// countdownCtx is a context that is canceled at its (k+1)-th Err call.
// With one worker the scheduler's and the engine's checks come in a
// fixed order, so each k places the cut at a different point of the
// pass's first units: before a range probe, between a probe and an
// analysis, or at the start of an analysis.
type countdownCtx struct {
	context.Context
	left atomic.Int64
	once sync.Once
	done chan struct{}
}

func newCountdownCtx(k int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(k)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) >= 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

// TestCanceledPassStoresNoCanceledResult: a context canceled part-way
// through a pass, at each of its first check points in turn, stores no
// canceled result — everything it stores is what an uncanceled pass
// stores under the same key — one rider through a stack in front of the
// tier, and a batch of two riders straight into it; and the pass comes
// back flagged.
func TestCanceledPassStoresNoCanceledResult(t *testing.T) {
	cb := buildCodebase(t)
	other, err := ckdsl.CompileSource(`
checker scan_other {
  bugtype "Null-Pointer-Dereference"
  source { call "kzalloc" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, cks := range [][]checker.Checker{{compileChecker(t)}, {compileChecker(t), other}} {
		ref := store.NewMemory(0)
		NewIncremental(cb, ref).RunBatch(cks, nil, Options{Workers: 1}, 0)
		calls := int64(0)
		for k := int64(1); k <= 8; k++ {
			rec := &cancelOnPut{Store: store.NewMemory(0), ref: ref}
			st := store.Store(rec)
			if len(cks) == 1 {
				st = store.NewStack(nil, store.Tier{Name: "memory", Store: rec}, nil)
			}
			res := NewIncremental(cb, st).RunBatch(cks, nil, Options{Workers: 1, Context: newCountdownCtx(k)}, 0)
			if !res[0].Canceled {
				t.Fatalf("%d riders, cut at check %d: the pass was not flagged canceled", len(cks), k)
			}
			if n := rec.wrong.Load(); n != 0 {
				t.Fatalf("%d riders, cut at check %d: %d stored results differ from the uncanceled pass's", len(cks), k, n)
			}
			calls += rec.calls.Load()
		}
		if calls == 0 {
			t.Fatalf("%d riders: no cut let a range reach PutMany, so nothing above checked what was stored", len(cks))
		}
	}
}

// cancelOnPut triggers f (if set) on every PutMany, counts the calls
// and, when ref is set, the payloads in them that differ from what ref —
// a store an uncanceled pass filled — holds under the same key, then
// forwards to the wrapped store.
type cancelOnPut struct {
	store.Store
	f     func()
	ref   store.Store
	calls atomic.Int64
	wrong atomic.Int64
}

func (c *cancelOnPut) PutMany(ctx context.Context, keys []store.Key, ids []store.Digest, payloads [][]byte) {
	c.calls.Add(1)
	if c.f != nil {
		c.f()
	}
	if c.ref != nil {
		want := make([][]byte, len(keys))
		c.ref.GetMany(ctx, keys, ids, want)
		for i, p := range payloads {
			if !bytes.Equal(p, want[i]) {
				c.wrong.Add(1)
			}
		}
	}
	c.Store.PutMany(ctx, keys, ids, payloads)
}
