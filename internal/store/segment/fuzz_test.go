package segment

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentOpsInvariants drives Put/Get/InvalidateFuncs from many
// goroutines while a compactor loops, with segment rotation and a byte
// budget both in play, then checks the ISSUE's acceptance invariant:
// the books balance against a full index walk, never go negative, and a
// reopen serves exactly the surviving live set byte-for-byte.
func TestConcurrentOpsInvariants(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{
		SyncInterval:    -1,
		SegmentMaxBytes: 4 << 10, // rotate often
		MaxBytes:        256 << 10,
	})

	const workers = 6
	const opsPerWorker = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Disjoint id and func ranges per worker, so each goroutine can
			// reason locally while the engine-wide books stay shared.
			for i := 0; i < opsPerWorker; i++ {
				id := fmt.Sprintf("w%d-id%d", w, i%40)
				fn := fmt.Sprintf("w%d-f%d", w, i%7)
				switch i % 5 {
				case 0, 1, 2:
					payload := []byte(fmt.Sprintf("payload-%d-%d-%s", w, i, id))
					if err := s.Put(id, fn, payload); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 3:
					s.Get(id)
				case 4:
					s.InvalidateFuncs([]string{fn})
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			s.Compact(0)
		}
	}()
	wg.Wait()
	s.Compact(0)

	if err := s.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Entries < 0 || st.Bytes < 0 {
		t.Fatalf("books went negative: %+v", st)
	}
	if walked := len(s.liveIDs()); walked != st.Entries {
		t.Fatalf("Stats().Entries = %d, index walk = %d", st.Entries, walked)
	}

	// Crash-reopen equivalence: the committed live set must come back
	// byte-identical from a cold recovery scan.
	want := liveSet(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, testOptions())
	defer s2.Close()
	got := liveSet(t, s2)
	if len(got) != len(want) {
		t.Fatalf("reopen: %d entries, want %d", len(got), len(want))
	}
	for id, pay := range want {
		if got[id] != pay {
			t.Fatalf("reopen Get(%s) = %q want %q", id, got[id], pay)
		}
	}
	if err := s2.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// FuzzSegmentInvariants replays an arbitrary interleaving of
// put/overwrite/invalidate/compact/reopen decoded from the fuzz input,
// holding the engine to its accounting invariant after every step:
// Stats().Entries/Bytes exactly match a full index walk and never go
// negative, and a final reopen serves the live set byte-identically —
// the ISSUE 8 acceptance criterion, randomized.
func FuzzSegmentInvariants(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 0, 10, 20, 30, 3, 3, 3, 4, 4, 4, 2, 2})
	f.Add([]byte("put-invalidate-compact-reopen"))
	f.Add([]byte{255, 254, 253, 4, 4, 4, 4, 0, 1, 2, 4})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{
			SyncInterval:    -1,
			SegmentMaxBytes: 512, // a few records per segment
			MaxBytes:        4 << 10,
		})
		defer func() { s.Close() }()

		// model mirrors what the engine must serve: id -> payload.
		model := map[string]string{}
		modelFn := map[string]string{} // id -> func token
		check := func() {
			t.Helper()
			if err := s.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Entries < 0 || st.Bytes < 0 {
				t.Fatalf("books negative: %+v", st)
			}
			ids := s.liveIDs()
			var walkedBytes int64
			for _, id := range ids {
				p, ok := s.Get(id)
				if !ok {
					t.Fatalf("indexed id %q unreadable", id)
				}
				walkedBytes += int64(len(p))
			}
			walked := len(ids)
			if walked != st.Entries || walkedBytes != st.Bytes {
				t.Fatalf("stats (%d entries, %d bytes) != walk (%d, %d)",
					st.Entries, st.Bytes, walked, walkedBytes)
			}
		}

		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			id := fmt.Sprintf("id%d", arg%24)
			fn := fmt.Sprintf("f%d", arg%5)
			switch op % 6 {
			case 0, 1: // put / overwrite
				payload := fmt.Sprintf("p-%d-%d", i, arg)
				if err := s.Put(id, fn, []byte(payload)); err != nil {
					t.Fatalf("Put: %v", err)
				}
				if oldFn, ok := modelFn[id]; ok && oldFn != fn {
					// moved funcs: model keys by id, nothing else to do
					_ = oldFn
				}
				model[id] = payload
				modelFn[id] = fn
			case 2: // invalidate one func
				s.InvalidateFuncs([]string{fn})
				for mid, mfn := range modelFn {
					if mfn == fn {
						delete(model, mid)
						delete(modelFn, mid)
					}
				}
			case 3: // get (also validates against the model)
				p, ok := s.Get(id)
				want, wok := model[id]
				if ok != wok || (ok && string(p) != want) {
					t.Fatalf("Get(%s) = %q,%v; model %q,%v", id, p, ok, want, wok)
				}
			case 4: // compact (no TTL: wall-clock must not drop entries mid-run)
				res := s.Compact(0)
				if res.Evicted > 0 {
					// The byte budget may evict oldest-first; mirror by trusting
					// the engine's live set (order is timestamp-based and the
					// model doesn't track time). Rebuild the model from it.
					surviving := map[string]string{}
					for _, wid := range s.liveIDs() {
						if p, ok := s.Get(wid); ok {
							surviving[wid] = string(p)
						}
					}
					for mid := range model {
						if _, ok := surviving[mid]; !ok {
							delete(model, mid)
							delete(modelFn, mid)
						}
					}
				}
			case 5: // crash-reopen: close and recover mid-run
				if err := s.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				s = mustOpen(t, dir, Options{
					SyncInterval:    -1,
					SegmentMaxBytes: 512,
					MaxBytes:        4 << 10,
				})
			}
			check()
		}

		// Final reopen: the recovered store must serve the model exactly.
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = mustOpen(t, dir, testOptions())
		check()
		for id, want := range model {
			if got, ok := s.Get(id); !ok || string(got) != want {
				t.Fatalf("after final reopen Get(%s) = %q,%v want %q", id, got, ok, want)
			}
		}
		if count := len(s.liveIDs()); count != len(model) {
			t.Fatalf("after final reopen: %d live entries, model has %d", count, len(model))
		}
	})
}
