package store

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"knighter/internal/engine"
	"knighter/internal/obs"
)

// gateStore blocks every GetMany until the gate channel closes or the
// context dies, counting the calls that reached it. Served behind the
// cache protocol it makes the *Remote in front of it a slow network
// tier.
type gateStore struct {
	Store
	gate  <-chan struct{}
	calls atomic.Int64
}

func (g *gateStore) GetMany(ctx context.Context, keys []Key, ids []Digest, out []*engine.Result) {
	g.calls.Add(1)
	select {
	case <-g.gate:
	case <-ctx.Done():
		clear(out)
		return
	}
	g.Store.GetMany(ctx, keys, ids, out)
}

// eventually polls cond: network leaves are invalidated off the
// caller's goroutine, so their effect is awaited, not assumed.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// fleetStack builds memory -> remote || disk, the remote leaf talking
// to a cache server over back. The in-memory "disk" leaf stands in for
// the segment tier: the stack only needs it to be local.
func fleetStack(t *testing.T, back Store) (st *Stack, mem, disk *Memory) {
	t.Helper()
	ts := newCacheTS(t, back)
	// A hung daemon must be visible as a hang, not hidden by the
	// client's own timeout.
	r := newRemote(t, ts.URL, RemoteConfig{Timeout: time.Minute})
	mem, disk = NewMemory(0), NewMemory(0)
	return NewStack(nil, Tier{"memory", mem}, Tier{"remote", r}, Tier{"disk", disk}), mem, disk
}

// TestStackBehaviours pins, as cases on the one composite, every
// behaviour the composition is deployed for.
func TestStackBehaviours(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"race/local hit wins over a hung remote", func(t *testing.T) {
			gate := make(chan struct{}) // never closes: the daemon hangs until the client gives up
			g := &gateStore{Store: NewMemory(0), gate: gate}
			st, mem, disk := fleetStack(t, g)
			// The daemon really hangs: a key no local leaf holds waits on
			// it until the caller gives up.
			ctx, cancel := context.WithCancel(bg)
			missed := make(chan bool)
			go func() {
				_, ok := st.Get(ctx, fkey("fB", "ck"))
				missed <- !ok
			}()
			eventually(t, "the probe to reach the hung daemon", func() bool { return g.calls.Load() == 1 })
			select {
			case <-missed:
				t.Fatal("a local miss did not wait on the hung remote")
			case <-time.After(10 * time.Millisecond):
			}
			cancel()
			if !<-missed {
				t.Fatal("hit on a key no leaf holds")
			}
			disk.Put(bg, fkey("fA", "ck"), result("local"))
			done := make(chan struct{})
			var got *engine.Result
			var ok bool
			go func() {
				got, ok = st.Get(bg, fkey("fA", "ck"))
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Get waited on the hung remote despite a local hit")
			}
			if !ok || !sameResult(t, got, result("local")) {
				t.Fatal("local hit lost")
			}
			if mem.Stats().Entries != 1 {
				t.Fatal("local hit not promoted into memory")
			}
			// The abandoned round trips say nothing about the daemon's health.
			if rs := st.Remote().RemoteStats(); rs.Errors != 0 || rs.Puts != 0 {
				t.Fatalf("remote stats after an abandoned probe = %+v", rs)
			}
		}},
		{"race/remote hit is promoted into local and memory", func(t *testing.T) {
			back := NewMemory(0)
			back.Put(bg, fkey("fA", "ck"), result("fleet"))
			st, mem, disk := fleetStack(t, back)
			got, ok := st.Get(bg, fkey("fA", "ck"))
			if !ok || !sameResult(t, got, result("fleet")) {
				t.Fatalf("remote hit lost: ok=%v", ok)
			}
			if _, ok := disk.Get(bg, fkey("fA", "ck")); !ok {
				t.Fatal("remote hit not promoted into the local leaf")
			}
			if _, ok := mem.Get(bg, fkey("fA", "ck")); !ok {
				t.Fatal("remote hit not promoted into memory")
			}
			if back.Stats().Puts != 1 {
				t.Fatal("a remote hit was published back to the daemon")
			}
		}},
		{"race/miss waits for both sides", func(t *testing.T) {
			// The remote is slow but HAS the entry; the local leaf misses
			// instantly. A miss must not be declared off the fast answer.
			gate := make(chan struct{})
			back := NewMemory(0)
			back.Put(bg, fkey("fA", "ck"), result("slow-remote"))
			g := &gateStore{Store: back, gate: gate}
			st, _, _ := fleetStack(t, g)
			go func() {
				time.Sleep(20 * time.Millisecond)
				close(gate)
			}()
			got, ok := st.Get(bg, fkey("fA", "ck"))
			if !ok || !sameResult(t, got, result("slow-remote")) {
				t.Fatalf("fast local miss masked the remote hit: ok=%v", ok)
			}
			if _, ok := st.Get(bg, fkey("fB", "ck")); ok {
				t.Fatal("hit on a key no leaf holds")
			}
			if s := st.Stats(); s.Hits != 1 || s.Misses != 1 {
				t.Fatalf("stats = %+v", s)
			}
			if n := g.calls.Load(); n != 2 {
				t.Fatalf("%d probes reached the gated daemon, want 2", n)
			}
		}},
		{"race/put and invalidate reach both sides", func(t *testing.T) {
			back := NewMemory(0)
			st, mem, disk := fleetStack(t, back)
			st.Put(bg, fkey("fA", "ck"), result("x"))
			for name, leaf := range map[string]*Memory{"memory": mem, "remote": back, "disk": disk} {
				if leaf.Stats().Entries != 1 {
					t.Fatalf("Put did not reach the %s leaf", name)
				}
			}
			// The count covers the local leaves; the daemon is reached
			// off this goroutine.
			if n := st.InvalidateFuncs([]string{"fA"}); n != 2 {
				t.Fatalf("invalidated %d local entries, want 2", n)
			}
			eventually(t, "the remote invalidation", func() bool { return back.Stats().Entries == 0 })
			if _, ok := st.Get(bg, fkey("fA", "ck")); ok {
				t.Fatal("entry survived invalidation")
			}
		}},
		{"tiers/disk hits are promoted, puts write through", func(t *testing.T) {
			mem, disk := NewMemory(0), newTestSegDisk(t, t.TempDir())
			disk.Put(bg, key(1), result("warm-from-disk"))
			st := NewStack(nil, Tier{"memory", mem}, Tier{"disk", disk})
			if _, ok := st.Get(bg, key(1)); !ok {
				t.Fatal("miss on a disk-resident entry")
			}
			if s := mem.Stats(); s.Puts != 1 {
				t.Fatalf("disk hit not promoted to memory: %+v", s)
			}
			if _, ok := st.Get(bg, key(1)); !ok {
				t.Fatal("miss after promotion")
			}
			if s := st.Stats(); s.Hits != 2 || s.Misses != 0 {
				t.Fatalf("stack stats = %+v", s)
			}
			if s := disk.Stats(); s.Hits != 1 {
				t.Fatalf("the promoted entry was read from disk again: %+v", s)
			}
			st.Put(bg, key(2), result("two"))
			if _, ok := mem.Get(bg, key(2)); !ok {
				t.Fatal("put did not reach memory")
			}
			if _, ok := disk.Get(bg, key(2)); !ok {
				t.Fatal("put did not reach disk")
			}
		}},
		{"tiers/invalidation fans out to every leaf, per hash and in bulk", func(t *testing.T) {
			st := NewStack(nil, Tier{"memory", NewMemory(0)}, Tier{"disk", newTestSegDisk(t, t.TempDir())})
			st.Put(bg, fkey("fA", "ck1"), result("a1"))
			st.Put(bg, fkey("fA", "ck2"), result("a2"))
			st.Put(bg, fkey("fB", "ck"), result("b"))
			st.Put(bg, fkey("fC", "ck"), result("c"))
			st.Put(bg, fkey("fD", "ck"), result("d"))
			if n := st.InvalidateFuncs([]string{"fA"}); n != 4 {
				t.Fatalf("per-hash invalidation dropped %d entries, want 4 (two entries x two leaves)", n)
			}
			if n := st.InvalidateFuncs([]string{"fB", "fC"}); n != 4 {
				t.Fatalf("bulk invalidation dropped %d entries, want 4 (two hashes x two leaves)", n)
			}
			for _, k := range []Key{fkey("fA", "ck1"), fkey("fA", "ck2"), fkey("fB", "ck"), fkey("fC", "ck")} {
				if _, ok := st.Get(bg, k); ok {
					t.Fatalf("%v survived invalidation", k)
				}
			}
			if _, ok := st.Get(bg, fkey("fD", "ck")); !ok {
				t.Fatal("unrelated entry dropped")
			}
			if s := st.Stats(); s.Invalidated != 8 || s.Entries != 1 {
				t.Fatalf("stats = %+v", s)
			}
		}},
		{"fleet/remote hit promotes, local put publishes", func(t *testing.T) {
			back := NewMemory(0)
			ts := newCacheTS(t, back)
			st := NewStack(nil, Tier{"memory", NewMemory(0)}, Tier{"remote", newRemote(t, ts.URL, RemoteConfig{})})
			st.Put(bg, key(1), result("one"))
			if back.Stats().Puts != 1 {
				t.Fatal("local Put not published to the daemon")
			}
			// A fresh replica sharing the daemon: first Get is a remote
			// hit, promoted into its memory.
			mem2 := NewMemory(0)
			st2 := NewStack(nil, Tier{"memory", mem2}, Tier{"remote", newRemote(t, ts.URL, RemoteConfig{})})
			if _, ok := st2.Get(bg, key(1)); !ok {
				t.Fatal("fresh replica missed its sibling's entry")
			}
			if mem2.Stats().Entries != 1 {
				t.Fatal("remote hit not promoted into memory")
			}
			// The replica's books are its memory's: the daemon's entries
			// are the daemon's to report.
			if s := st2.Stats(); s.Entries != 1 || s.Bytes != mem2.Stats().Bytes {
				t.Fatalf("memory+remote stack reports %+v, want memory's books", s)
			}
		}},
		{"stats/deepest book-keeping leaf, even when empty", func(t *testing.T) {
			front, back := NewMemory(0), NewMemory(0)
			st := NewStack(nil, Tier{"memory", front}, Tier{"disk", back})
			st.Put(bg, fkey("fA", "ck"), result("x"))
			if st.Stats().Entries != 1 {
				t.Fatalf("stats after put: %+v", st.Stats())
			}
			// Drop the back leaf only: it holds a superset by
			// construction, so its emptiness is the stack's truth even
			// though the front still holds a copy.
			back.InvalidateFuncs([]string{"fA"})
			if s := st.Stats(); s.Entries != 0 || s.Bytes != 0 {
				t.Fatalf("stack reported front-leaf counts for an empty back leaf: %+v", s)
			}
			if front.Stats().Entries != 1 {
				t.Fatal("front leaf lost its copy")
			}
		}},
		{"metrics/per-tier families", func(t *testing.T) {
			ts := newCacheTS(t, NewMemory(0))
			reg := obs.NewRegistry("kserve")
			st, err := Open(reg, 0, t.TempDir(), 0, ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Disk().Close() })
			st.Put(bg, fkey("0a", "ck"), result("x"))
			st.Get(bg, fkey("0a", "ck"))
			st.Get(bg, fkey("0b", "ck"))
			var b strings.Builder
			reg.WriteTo(&b)
			text := b.String()
			if _, err := obs.CheckExposition(text); err != nil {
				t.Fatalf("invalid exposition: %v", err)
			}
			for _, want := range []string{
				`kserve_store_requests_total{tier="memory"} 3`,
				`kserve_store_hits_total{tier="memory"} 1`,
				`kserve_store_misses_total{tier="remote"} 1`,
				`kserve_store_puts_total{tier="disk"} 1`,
				`kserve_store_requests_total{tier="stack"} 3`,
				`kserve_store_op_duration_seconds_count{tier="memory",op="get"} 2`,
				`kserve_store_op_duration_seconds_count{tier="remote",op="put"} 1`,
				`kserve_store_op_duration_seconds_count{tier="disk",op="get"} 1`,
			} {
				if !strings.Contains(text, want) {
					t.Errorf("exposition missing %q", want)
				}
			}
			// Another miss is one more timed call on memory and on disk.
			st.Get(bg, fkey("1c", "ck"))
			b.Reset()
			reg.WriteTo(&b)
			for _, want := range []string{
				`kserve_store_requests_total{tier="memory"} 4`,
				`kserve_store_op_duration_seconds_count{tier="memory",op="get"} 3`,
				`kserve_store_op_duration_seconds_count{tier="disk",op="get"} 2`,
			} {
				if !strings.Contains(b.String(), want) {
					t.Errorf("exposition after a second miss missing %q", want)
				}
			}
			// A range probe counts per key and is timed once per leaf
			// call: a memory hit and two misses are three memory requests
			// and one memory get timing, and the two misses reach the
			// remote and the disk leaf as one call each.
			keys := []Key{fkey("0a", "ck"), fkey("0d", "ck"), fkey("1c", "ck")}
			st.GetMany(bg, keys, []Digest{keys[0].Digest(), keys[1].Digest(), keys[2].Digest()}, make([]*engine.Result, 3))
			b.Reset()
			reg.WriteTo(&b)
			for _, want := range []string{
				`kserve_store_requests_total{tier="memory"} 7`,
				`kserve_store_hits_total{tier="memory"} 2`,
				`kserve_store_misses_total{tier="disk"} 4`,
				`kserve_store_op_duration_seconds_count{tier="memory",op="get"} 4`,
				`kserve_store_op_duration_seconds_count{tier="remote",op="get"} 3`,
				`kserve_store_op_duration_seconds_count{tier="disk",op="get"} 3`,
				`kserve_store_hits_total{tier="stack"} 2`,
				`kserve_store_misses_total{tier="stack"} 4`,
			} {
				if !strings.Contains(b.String(), want) {
					t.Errorf("exposition after a range probe missing %q", want)
				}
			}
			// A range put counts per key and is timed once per leaf: three
			// keys are three puts on every leaf and on the stack, and one
			// put timing on each leaf.
			keys = []Key{fkey("0e", "ck"), fkey("0f", "ck"), fkey("1g", "ck")}
			st.PutMany(bg, keys, []Digest{keys[0].Digest(), keys[1].Digest(), keys[2].Digest()},
				[]*engine.Result{result("e"), result("f"), result("g")})
			b.Reset()
			reg.WriteTo(&b)
			for _, want := range []string{
				`kserve_store_puts_total{tier="memory"} 4`,
				`kserve_store_puts_total{tier="remote"} 4`,
				`kserve_store_puts_total{tier="disk"} 4`,
				`kserve_store_puts_total{tier="stack"} 4`,
				`kserve_store_op_duration_seconds_count{tier="memory",op="put"} 2`,
				`kserve_store_op_duration_seconds_count{tier="remote",op="put"} 2`,
				`kserve_store_op_duration_seconds_count{tier="disk",op="put"} 2`,
			} {
				if !strings.Contains(b.String(), want) {
					t.Errorf("exposition after a range put missing %q", want)
				}
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// modelLeaf is the reference model of one leaf: a plain map and the
// books the leaf should keep.
type modelLeaf struct {
	network            bool
	has                map[string]string // Key.ID() -> message
	hits, misses, puts int64
	invalidated        int64
}

// stackModel is the reference model of a stack: what every leaf holds
// and has counted, plus the request-level totals.
type stackModel struct {
	leaves             []*modelLeaf
	hits, misses, puts int64
}

// get is the one-key getMany.
func (m *stackModel) get(id string) (string, bool) {
	msgs, oks := m.getMany([]string{id})
	return msgs[0], oks[0]
}

// getMany is GetMany: each level of the stack — one leaf, or a network
// leaf raced against the local leaf behind it — answers every key it is
// given, as the batch found it, then the keys it missed go on to the
// next level as one batch, in key order. Every hit is promoted into each
// leaf in front of the level that answered it.
func (m *stackModel) getMany(ids []string) ([]string, []bool) {
	msgs, oks := m.getFrom(0, ids)
	for _, ok := range oks {
		if ok {
			m.hits++
		} else {
			m.misses++
		}
	}
	return msgs, oks
}

func (m *stackModel) getFrom(first int, ids []string) ([]string, []bool) {
	msgs, oks := make([]string, len(ids)), make([]bool, len(ids))
	if first == len(m.leaves) {
		return msgs, oks
	}
	l, next := m.leaves[first], first+1
	if l.network && next < len(m.leaves) {
		// The local leaf probes the whole batch while the round trip is
		// in flight. A key it answers lands on the remote as a hit or a
		// miss — the model only pins their sum (see the books check); the
		// remote answers the rest, and its hits are written into the
		// local leaf.
		local := m.leaves[next]
		next++
		local.lookup(ids, msgs, oks)
		var remoteHits []int
		for i, id := range ids {
			if oks[i] {
				l.misses++
				continue
			}
			if msgs[i], oks[i] = l.has[id]; oks[i] {
				l.hits++
				remoteHits = append(remoteHits, i)
			} else {
				l.misses++
			}
		}
		for _, i := range remoteHits {
			local.has[ids[i]] = msgs[i]
			local.puts++
		}
	} else {
		l.lookup(ids, msgs, oks)
	}
	var missed []string
	for i, id := range ids {
		if !oks[i] {
			missed = append(missed, id)
			continue
		}
		for _, f := range m.leaves[:first] {
			f.has[id] = msgs[i]
			f.puts++
		}
	}
	if len(missed) == 0 || next == len(m.leaves) {
		return msgs, oks
	}
	dmsgs, doks := m.getFrom(next, missed)
	for i, j := 0, 0; j < len(missed); i++ {
		if !oks[i] {
			msgs[i], oks[i] = dmsgs[j], doks[j]
			j++
		}
	}
	return msgs, oks
}

// lookup answers a batch from the leaf's map, counting per key.
func (l *modelLeaf) lookup(ids []string, msgs []string, oks []bool) {
	for i, id := range ids {
		if msgs[i], oks[i] = l.has[id]; oks[i] {
			l.hits++
		} else {
			l.misses++
		}
	}
}

func (m *stackModel) put(id, msg string) {
	for _, l := range m.leaves {
		l.has[id] = msg
		l.puts++
	}
	m.puts++
}

// invalidate returns what the stack should report: the local leaves'
// drops.
func (m *stackModel) invalidate(ids []string) int {
	n := 0
	for _, l := range m.leaves {
		for _, id := range ids {
			if _, ok := l.has[id]; ok {
				delete(l.has, id)
				l.invalidated++
				if !l.network {
					n++
				}
			}
		}
	}
	return n
}

// TestStackMatchesReferenceModel runs one seeded Get / GetMany / Put /
// PutMany / Invalidate script (plus, where there is a daemon, a
// sibling replica publishing to it) over the five deployed shapes, all
// built by Open, against the plain-map model: every answer, every
// invalidation count, and every leaf's books must agree.
func TestStackMatchesReferenceModel(t *testing.T) {
	for _, shape := range []struct {
		name         string
		disk, remote bool
		// served drives the script through the cache protocol instead of
		// calling the stack: the stack under test is kcached's.
		served bool
	}{
		{name: "memory"},
		{name: "memory+disk", disk: true},
		{name: "memory+remote", remote: true},
		{name: "memory+remote||disk", disk: true, remote: true},
		{name: "kcached: memory+disk behind the protocol", disk: true, served: true},
	} {
		t.Run(shape.name, func(t *testing.T) {
			var dir, url string
			var daemon *CacheServer
			var daemonStore *Memory
			if shape.disk {
				dir = t.TempDir()
			}
			if shape.remote {
				daemonStore = NewMemory(0)
				daemon = NewCacheServer(daemonStore)
				ts := httptest.NewServer(daemon.Handler())
				t.Cleanup(ts.Close)
				url = ts.URL
			}
			st, err := Open(obs.NewRegistry("t"), 0, dir, 0, url)
			if err != nil {
				t.Fatal(err)
			}
			if d := st.Disk(); d != nil {
				t.Cleanup(func() { d.Close() })
			}
			model := &stackModel{}
			for _, l := range st.leaves {
				model.leaves = append(model.leaves, &modelLeaf{network: l.network, has: map[string]string{}})
			}

			// The script's view of the store: the stack itself, or a
			// client of the daemon serving it. Both keep the one-key Get
			// and Put beside the range methods.
			var target interface {
				Store
				Get(context.Context, Key) (*engine.Result, bool)
				Put(context.Context, Key, *engine.Result)
			} = st
			if shape.served {
				target = newRemote(t, newCacheTS(t, st).URL, RemoteConfig{})
			}
			invalidations := int64(0)

			rng := rand.New(rand.NewSource(17))
			funcs := []string{"0f", "1f", "2f", "3f", "af", "bf"}
			checkers := []string{"ck1", "ck2", "ck3"}
			idsOf := func(fh string) []string {
				ids := make([]string, len(checkers))
				for i, ck := range checkers {
					ids[i] = fkey(fh, ck).ID()
				}
				return ids
			}
			randKey := func() Key { return fkey(funcs[rng.Intn(len(funcs))], checkers[rng.Intn(len(checkers))]) }
			for step := 0; step < 600; step++ {
				k := randKey()
				id, msg := k.ID(), fmt.Sprintf("step-%d", step)
				switch op := rng.Intn(12); {
				case op == 11: // a range probe, repeats allowed
					keys, ids := []Key{k}, []string{id}
					for n := rng.Intn(6); n > 0; n-- {
						keys = append(keys, randKey())
						ids = append(ids, keys[len(keys)-1].ID())
					}
					digests := make([]Digest, len(keys))
					for i, k := range keys {
						digests[i] = k.Digest()
					}
					want, wantOK := model.getMany(ids)
					got := make([]*engine.Result, len(keys))
					target.GetMany(bg, keys, digests, got)
					for i, r := range got {
						if (r != nil) != wantOK[i] || (r != nil && r.Reports[0].Message != want[i]) {
							t.Fatalf("step %d: GetMany key %d (%v) = %v; model says %q, %v", step, i, keys[i], r, want[i], wantOK[i])
						}
					}
				case op == 10 && daemonStore != nil:
					// A sibling replica publishes to the shared daemon: the
					// entry exists behind the network leaf and nowhere local.
					daemonStore.Put(bg, k, result(msg))
					for _, l := range model.leaves {
						if l.network {
							l.has[id] = msg
						}
					}
				case op < 5 || op == 10: // get
					want, wantOK := model.get(id)
					got, ok := target.Get(bg, k)
					if ok != wantOK || (ok && got.Reports[0].Message != want) {
						t.Fatalf("step %d: Get(%v) = %v, %v; model says %q, %v", step, k, got, ok, want, wantOK)
					}
				case op == 5: // put
					model.put(id, msg)
					target.Put(bg, k, result(msg))
				case op == 6: // a range's puts, repeats allowed: the same Puts in order
					keys, digests := []Key{k}, []Digest{k.Digest()}
					rs := []*engine.Result{result(msg)}
					model.put(id, msg)
					for n := rng.Intn(6); n > 0; n-- {
						k := randKey()
						msg := fmt.Sprintf("%s-%d", msg, n)
						keys, digests = append(keys, k), append(digests, k.Digest())
						rs = append(rs, result(msg))
						model.put(k.ID(), msg)
					}
					target.PutMany(bg, keys, digests, rs)
				case op < 9: // the scheduler's miss path: probe, then compute
					want, wantOK := model.get(id)
					got, ok := target.Get(bg, k)
					if ok != wantOK || (ok && got.Reports[0].Message != want) {
						t.Fatalf("step %d: probe(%v) = %v, %v; model says %q, %v", step, k, got, ok, want, wantOK)
					}
					if ok {
						break
					}
					model.put(id, msg)
					target.Put(bg, k, result(msg))
				default: // invalidate one or two function hashes
					hashes := []string{k.FuncHash}
					if rng.Intn(2) == 0 {
						hashes = append(hashes, funcs[rng.Intn(len(funcs))])
					}
					var ids []string
					for _, fh := range hashes {
						ids = append(ids, idsOf(fh)...)
					}
					want := model.invalidate(ids)
					if got := target.InvalidateFuncs(hashes); got != want {
						t.Fatalf("step %d: InvalidateFuncs(%v) = %d, model says %d", step, hashes, got, want)
					}
					if daemon != nil {
						// The network leaf is invalidated off this goroutine;
						// the script is sequential, so wait for it to land.
						invalidations++
						eventually(t, "the daemon to see the invalidation",
							func() bool { return daemon.invalidates.Load() == invalidations })
					}
				}
			}

			for i, l := range st.leaves {
				ml, got := model.leaves[i], l.Store.Stats()
				if l.network {
					// A probe abandoned because the local leaf answered first
					// counts as a hit or a miss depending on timing.
					if got.Hits+got.Misses != ml.hits+ml.misses || got.Hits < ml.hits || got.Puts != ml.puts {
						t.Errorf("%s books = %+v, model = %+v", l.Name, got, *ml)
					}
					if ds := daemonStore.Stats(); ds.Entries != len(ml.has) {
						t.Errorf("daemon holds %d entries, model says %d", ds.Entries, len(ml.has))
					}
					continue
				}
				if got.Hits != ml.hits || got.Misses != ml.misses || got.Puts != ml.puts ||
					got.Invalidated != ml.invalidated || got.Entries != len(ml.has) {
					t.Errorf("%s books = %+v, model = %+v (%d entries)", l.Name, got, *ml, len(ml.has))
				}
			}
			got := st.Stats()
			deepest := model.leaves[len(model.leaves)-1]
			if deepest.network {
				deepest = model.leaves[len(model.leaves)-2]
			}
			if got.Hits != model.hits || got.Misses != model.misses || got.Puts != model.puts ||
				got.Entries != len(deepest.has) || got.Evictions != 0 {
				t.Errorf("stack stats = %+v; model hits=%d misses=%d puts=%d entries=%d",
					got, model.hits, model.misses, model.puts, len(deepest.has))
			}
		})
	}
}
