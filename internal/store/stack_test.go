package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"knighter/internal/engine"
	"knighter/internal/obs"
)

// eventually polls cond: kcached is invalidated off the caller's
// goroutine, so the effect is awaited, not assumed.
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

// memoryOverKcached is a replica's stack: a memory front over a remote
// to an httptest kcached serving daemon.
func memoryOverKcached(t *testing.T, reg *obs.Registry, daemon Store) *Stack {
	t.Helper()
	return NewStack(reg, Tier{"memory", NewMemory(0)}, newRemote(t, newCacheTS(t, daemon).URL, RemoteConfig{}))
}

// TestStackBehaviours pins, as cases on the one composite, every
// behaviour the composition is deployed for.
func TestStackBehaviours(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"tiers/disk hits are promoted, puts write through", func(t *testing.T) {
			// The deployed disk is kcached's segment log, behind the
			// protocol as a replica's back.
			disk := newTestSegDisk(t, t.TempDir())
			disk.Put(bg, key(1), result("warm-from-disk"))
			mem := NewMemory(0)
			st := NewStack(nil, Tier{"memory", mem}, newRemote(t, newCacheTS(t, disk).URL, RemoteConfig{}))
			if _, ok := getOne(bg, st, key(1)); !ok {
				t.Fatal("miss on a disk-resident entry")
			}
			if s := mem.Stats(); s.Puts != 1 {
				t.Fatalf("disk hit not promoted to memory: %+v", s)
			}
			if _, ok := getOne(bg, st, key(1)); !ok {
				t.Fatal("miss after promotion")
			}
			if s := st.Stats(); s.Hits != 2 || s.Misses != 0 {
				t.Fatalf("stack stats = %+v", s)
			}
			if s := disk.Stats(); s.Hits != 1 {
				t.Fatalf("the promoted entry was read from disk again: %+v", s)
			}
			putOne(st, key(2), result("two"))
			if _, ok := mem.Get(bg, key(2)); !ok {
				t.Fatal("put did not reach memory")
			}
			if _, ok := disk.Get(bg, key(2)); !ok {
				t.Fatal("put did not reach disk")
			}
		}},
		{"tiers/invalidation fans out to every leaf, per hash and in bulk", func(t *testing.T) {
			daemon := NewMemory(0)
			st := memoryOverKcached(t, nil, daemon)
			putOne(st, fkey("fA", "ck1"), result("a1"))
			putOne(st, fkey("fA", "ck2"), result("a2"))
			putOne(st, fkey("fB", "ck"), result("b"))
			putOne(st, fkey("fC", "ck"), result("c"))
			putOne(st, fkey("fD", "ck"), result("d"))
			if n := st.InvalidateFuncs([]string{"fA"}); n != 2 {
				t.Fatalf("per-hash invalidation dropped %d entries, want the front's 2", n)
			}
			if n := st.InvalidateFuncs([]string{"fB", "fC"}); n != 2 {
				t.Fatalf("bulk invalidation dropped %d entries, want the front's 2 (one per hash)", n)
			}
			// kcached is invalidated off the caller's goroutine.
			eventually(t, "kcached to drop four entries", func() bool { return daemon.Stats().Invalidated == 4 })
			for _, k := range []Key{fkey("fA", "ck1"), fkey("fA", "ck2"), fkey("fB", "ck"), fkey("fC", "ck")} {
				if _, ok := getOne(bg, st, k); ok {
					t.Fatalf("%v survived invalidation", k)
				}
			}
			if _, ok := getOne(bg, st, fkey("fD", "ck")); !ok {
				t.Fatal("unrelated entry dropped")
			}
			eventually(t, "the replica to count kcached's drops", func() bool { return st.Stats().Invalidated == 8 })
			if s := st.Stats(); s.Entries != 1 {
				t.Fatalf("stats = %+v", s)
			}
		}},
		{"gets/a range stops at the front when it can", func(t *testing.T) {
			keys := []Key{key(1), key(2), key(3)}
			ids := []Digest{keys[0].Digest(), keys[1].Digest(), keys[2].Digest()}
			out := make([][]byte, len(keys))
			// A single host's cold probe: no back, every key a miss.
			alone := NewStack(nil, Tier{"memory", NewMemory(0)}, nil)
			if n := testing.AllocsPerRun(100, func() { alone.GetMany(bg, keys, ids, out) }); n != 0 {
				t.Fatalf("a missed range on a stack with no back made %.0f allocations, want 0", n)
			}
			// An all-hit range never calls kcached.
			daemon := NewMemory(0)
			st := memoryOverKcached(t, nil, daemon)
			st.PutMany(bg, keys, ids, encodeAll(result("1"), result("2"), result("3")))
			st.GetMany(bg, keys, ids, out)
			if s := daemon.Stats(); s.Hits+s.Misses != 0 {
				t.Fatalf("an all-hit range reached kcached: %+v", s)
			}
		}},
		{"fleet/remote hit promotes, local put publishes", func(t *testing.T) {
			back := NewMemory(0)
			ts := newCacheTS(t, back)
			st := NewStack(nil, Tier{"memory", NewMemory(0)}, newRemote(t, ts.URL, RemoteConfig{}))
			putOne(st, key(1), result("one"))
			if back.Stats().Puts != 1 {
				t.Fatal("local Put not published to the daemon")
			}
			// A fresh replica sharing the daemon: first Get is a remote
			// hit, promoted into its memory, and the next one stops there.
			mem2 := NewMemory(0)
			st2 := NewStack(nil, Tier{"memory", mem2}, newRemote(t, ts.URL, RemoteConfig{}))
			for range 2 {
				if _, ok := getOne(bg, st2, key(1)); !ok {
					t.Fatal("fresh replica missed its sibling's entry")
				}
			}
			if mem2.Stats().Entries != 1 {
				t.Fatal("remote hit not promoted into memory")
			}
			if s := back.Stats(); s.Hits != 1 {
				t.Fatalf("the promoted entry was read from the daemon again: %+v", s)
			}
			// The replica's books are its memory's: the daemon's entries
			// are the daemon's to report.
			if s := st2.Stats(); s.Entries != 1 || s.Bytes != mem2.Stats().Bytes {
				t.Fatalf("memory+remote stack reports %+v, want memory's books", s)
			}
		}},
		{"fleet/only the keys the caller shares reach kcached", func(t *testing.T) {
			keys := []Key{key(1), key(2), key(3), key(4)}
			ids := []Digest{keys[0].Digest(), keys[1].Digest(), keys[2].Digest(), keys[3].Digest()}
			even := func(i int) bool { return i%2 == 0 }
			daemon := NewMemory(0)
			st := memoryOverKcached(t, nil, daemon)
			st.Put(bg, keys, ids, encodeAll(result("1"), result("2"), result("3"), result("4")), even)
			if s := daemon.Stats(); s.Puts != 2 || s.Entries != 2 {
				t.Fatalf("a put sharing 2 of 4 keys left kcached with %+v", s)
			}
			if s := st.Stats(); s.Puts != 4 || s.Entries != 4 {
				t.Fatalf("the front took %+v, want all 4 keys", s)
			}
			// A memory-cold replica asks kcached only for the misses it
			// shares, each once, in key order; a range it shares none of
			// sends no request.
			cold := memoryOverKcached(t, nil, daemon)
			out := make([][]byte, len(keys))
			var asked []int
			cold.Get(bg, keys, ids, out, func(i int) bool { asked = append(asked, i); return i != 2 })
			if fmt.Sprint(asked) != "[0 1 2 3]" || out[0] == nil || out[1] != nil || out[2] != nil || out[3] != nil {
				t.Fatalf("asked %v, hits %v", asked, out)
			}
			if s := daemon.Stats(); s.Hits+s.Misses != 3 {
				t.Fatalf("kcached answered %d keys, want the 3 shared", s.Hits+s.Misses)
			}
			cold.Get(bg, keys[1:2], ids[1:2], out[:1], func(int) bool { return false })
			if s := daemon.Stats(); s.Hits+s.Misses != 3 {
				t.Fatalf("a range sharing no miss reached kcached: %+v", s)
			}
			// With no back, nothing is asked.
			alone := NewStack(nil, Tier{"memory", NewMemory(0)}, nil)
			alone.Get(bg, keys, ids, out, func(int) bool { t.Fatal("a stack with no back asked to share"); return true })
		}},
		// The deployed shapes on /metrics: a replica's memory over
		// kcached, and kcached's segment log alone.
		{"metrics/per-tier families", func(t *testing.T) {
			t.Run("kserve: memory+remote", func(t *testing.T) {
				reg := obs.NewRegistry("kserve")
				st := memoryOverKcached(t, reg, NewMemory(0))
				checkTierFamilies(t, "kserve", reg, st, "memory", "disk")
			})
			t.Run("kcached: disk", func(t *testing.T) {
				reg := obs.NewRegistry("kcached")
				st := NewStack(reg, Tier{"disk", newTestSegDisk(t, t.TempDir())}, nil)
				checkTierFamilies(t, "kcached", reg, st, "disk", "memory", "remote")
			})
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// checkTierFamilies drives st, built on reg with a front tier named
// front, through single and range gets and puts, and checks the store_*
// families it exposes under the namespace ns: every tier=front, tier="remote" (when st has a
// back) and tier="stack" series, and no series of an absent tier.
func checkTierFamilies(t *testing.T, ns string, reg *obs.Registry, st *Stack, front string, absent ...string) {
	expose := func(after string, want []string, wantRemote ...string) {
		t.Helper()
		var b strings.Builder
		reg.WriteTo(&b)
		text := b.String()
		if _, err := obs.CheckExposition(text); err != nil {
			t.Fatalf("invalid exposition: %v", err)
		}
		if st.back.Store != nil {
			want = append(want, wantRemote...)
		}
		r := strings.NewReplacer("NS", ns, "FRONT", front)
		for _, w := range want {
			if w = r.Replace(w); !strings.Contains(text, w) {
				t.Errorf("exposition after %s missing %q", after, w)
			}
		}
		for _, a := range absent {
			if strings.Contains(text, `tier="`+a+`"`) {
				t.Errorf("exposition after %s has a tier=%q series", after, a)
			}
		}
	}
	putOne(st, fkey("0a", "ck"), result("x"))
	getOne(bg, st, fkey("0a", "ck"))
	getOne(bg, st, fkey("0b", "ck"))
	expose("a put, a hit and a miss", []string{
		`NS_store_requests_total{tier="FRONT"} 3`,
		`NS_store_hits_total{tier="FRONT"} 1`,
		`NS_store_misses_total{tier="FRONT"} 1`,
		`NS_store_puts_total{tier="FRONT"} 1`,
		`NS_store_requests_total{tier="stack"} 3`,
		`NS_store_op_duration_seconds_count{tier="FRONT",op="get"} 2`,
		`NS_store_op_duration_seconds_count{tier="FRONT",op="put"} 1`},
		`NS_store_misses_total{tier="remote"} 1`,
		`NS_store_puts_total{tier="remote"} 1`,
		`NS_store_op_duration_seconds_count{tier="remote",op="put"} 1`,
		`NS_store_op_duration_seconds_count{tier="remote",op="get"} 1`)
	// Another miss is one more timed call on the front and on kcached.
	getOne(bg, st, fkey("1c", "ck"))
	expose("a second miss", []string{
		`NS_store_requests_total{tier="FRONT"} 4`,
		`NS_store_op_duration_seconds_count{tier="FRONT",op="get"} 3`},
		`NS_store_op_duration_seconds_count{tier="remote",op="get"} 2`)
	// A range probe counts per key and is timed once per tier call: a
	// front hit and two misses are three front requests and one front
	// get timing, and the two misses reach kcached as one call.
	keys := []Key{fkey("0a", "ck"), fkey("0d", "ck"), fkey("1c", "ck")}
	st.GetMany(bg, keys, []Digest{keys[0].Digest(), keys[1].Digest(), keys[2].Digest()}, make([][]byte, 3))
	expose("a range probe", []string{
		`NS_store_requests_total{tier="FRONT"} 7`,
		`NS_store_hits_total{tier="FRONT"} 2`,
		`NS_store_op_duration_seconds_count{tier="FRONT",op="get"} 4`,
		`NS_store_hits_total{tier="stack"} 2`,
		`NS_store_misses_total{tier="stack"} 4`},
		`NS_store_misses_total{tier="remote"} 4`,
		`NS_store_op_duration_seconds_count{tier="remote",op="get"} 3`)
	// A range put counts per key and is timed once per tier: three keys
	// are three puts on every tier and on the stack, and one put timing
	// on each tier.
	keys = []Key{fkey("0e", "ck"), fkey("0f", "ck"), fkey("1g", "ck")}
	st.PutMany(bg, keys, []Digest{keys[0].Digest(), keys[1].Digest(), keys[2].Digest()},
		encodeAll(result("e"), result("f"), result("g")))
	expose("a range put", []string{
		`NS_store_puts_total{tier="FRONT"} 4`,
		`NS_store_puts_total{tier="stack"} 4`,
		`NS_store_op_duration_seconds_count{tier="FRONT",op="put"} 2`},
		`NS_store_puts_total{tier="remote"} 4`,
		`NS_store_op_duration_seconds_count{tier="remote",op="put"} 2`)
}

// modelLeaf is the reference model of one leaf: a plain map and the
// books the leaf should keep.
type modelLeaf struct {
	has                map[string]string // Key.ID() -> message
	hits, misses, puts int64
	invalidated        int64
}

// stackModel is the reference model of a stack: what the front and
// kcached (nil for none) hold and have counted, plus the request-level
// totals.
type stackModel struct {
	front, back        *modelLeaf
	hits, misses, puts int64
}

// leaves returns the front and, if there is one, the back.
func (m *stackModel) leaves() []*modelLeaf {
	if m.back == nil {
		return []*modelLeaf{m.front}
	}
	return []*modelLeaf{m.front, m.back}
}

// get is the one-key getMany.
func (m *stackModel) get(id string) (string, bool) {
	msgs, oks := m.getMany([]string{id})
	return msgs[0], oks[0]
}

// getMany is GetMany: the front answers every key it is given, as the
// batch found it; the keys it missed go to the back as one batch, in
// key order; and every back hit is promoted into the front.
func (m *stackModel) getMany(ids []string) ([]string, []bool) {
	msgs, oks := make([]string, len(ids)), make([]bool, len(ids))
	m.front.lookup(ids, msgs, oks)
	var at []int
	var missed []string
	for i, id := range ids {
		if !oks[i] {
			at, missed = append(at, i), append(missed, id)
		}
	}
	if m.back != nil && len(missed) > 0 {
		bmsgs, boks := make([]string, len(missed)), make([]bool, len(missed))
		m.back.lookup(missed, bmsgs, boks)
		for j, i := range at {
			if msgs[i], oks[i] = bmsgs[j], boks[j]; oks[i] {
				m.front.has[ids[i]] = msgs[i]
				m.front.puts++
			}
		}
	}
	for _, ok := range oks {
		if ok {
			m.hits++
		} else {
			m.misses++
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
	for _, l := range m.leaves() {
		l.has[id] = msg
		l.puts++
	}
	m.puts++
}

// invalidate returns what the stack should report: the front's drops.
func (m *stackModel) invalidate(ids []string) int {
	n := 0
	for i, l := range m.leaves() {
		for _, id := range ids {
			if _, ok := l.has[id]; ok {
				delete(l.has, id)
				l.invalidated++
				if i == 0 {
					n++
				}
			}
		}
	}
	return n
}

// TestStackMatchesReferenceModel runs one seeded Get / GetMany / Put /
// PutMany / Invalidate script (plus, where there is a daemon, a
// sibling replica publishing to it) over the three deployed shapes, all
// built by NewStack, against the plain-map model: every answer, every
// invalidation count, and every tier's books must agree.
func TestStackMatchesReferenceModel(t *testing.T) {
	for _, shape := range []struct {
		name   string
		remote bool
		// served builds kcached's stack, its segment log alone as
		// serve.NewCache does, and drives the script through the cache
		// protocol instead of calling the stack.
		served bool
	}{
		{name: "memory"},
		{name: "memory+remote", remote: true},
		{name: "kcached: disk behind the protocol", served: true},
	} {
		t.Run(shape.name, func(t *testing.T) {
			front := Tier{"memory", NewMemory(0)}
			if shape.served {
				front = Tier{"disk", newTestSegDisk(t, t.TempDir())}
			}
			var back *Remote
			var daemon *CacheServer
			var daemonStore *Memory
			if shape.remote {
				daemonStore = NewMemory(0)
				daemon = NewCacheServer(daemonStore)
				ts := httptest.NewServer(daemon.Handler())
				t.Cleanup(ts.Close)
				back = newRemote(t, ts.URL, RemoteConfig{})
			}
			st := NewStack(obs.NewRegistry("t"), front, back)
			model := &stackModel{front: &modelLeaf{has: map[string]string{}}}
			if back != nil {
				model.back = &modelLeaf{has: map[string]string{}}
			}

			// The script's view of the store: the stack itself, or a
			// client of the daemon serving it. Its one-key gets and puts
			// are getOne and putOne over the range methods.
			var target Store = st
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
					got := make([][]byte, len(keys))
					target.GetMany(bg, keys, digests, got)
					for i, p := range got {
						if (p != nil) != wantOK[i] || (p != nil && !bytes.Equal(p, Encode(result(want[i])))) {
							t.Fatalf("step %d: GetMany key %d (%v) = %x; model says %q, %v", step, i, keys[i], p, want[i], wantOK[i])
						}
					}
				case op == 10 && daemonStore != nil:
					// A sibling replica publishes to the shared daemon: the
					// entry exists in kcached and nowhere local.
					daemonStore.Put(bg, k, result(msg))
					model.back.has[id] = msg
				case op < 5 || op == 10: // get
					want, wantOK := model.get(id)
					got, ok := getOne(bg, target, k)
					if ok != wantOK || (ok && got.Reports[0].Message != want) {
						t.Fatalf("step %d: Get(%v) = %v, %v; model says %q, %v", step, k, got, ok, want, wantOK)
					}
				case op == 5: // put
					model.put(id, msg)
					putOne(target, k, result(msg))
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
					target.PutMany(bg, keys, digests, encodeAll(rs...))
				case op < 9: // the scheduler's miss path: probe, then compute
					want, wantOK := model.get(id)
					got, ok := getOne(bg, target, k)
					if ok != wantOK || (ok && got.Reports[0].Message != want) {
						t.Fatalf("step %d: probe(%v) = %v, %v; model says %q, %v", step, k, got, ok, want, wantOK)
					}
					if ok {
						break
					}
					model.put(id, msg)
					putOne(target, k, result(msg))
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
						// kcached is invalidated off this goroutine; the
						// script is sequential, so wait for it to land.
						invalidations++
						eventually(t, "the daemon to see the invalidation",
							func() bool { return daemon.invalidates.Load() == invalidations })
					}
				}
			}

			for i, l := range st.leaves() {
				ml, got := model.leaves()[i], l.Store.Stats()
				if got.Hits != ml.hits || got.Misses != ml.misses || got.Puts != ml.puts {
					t.Errorf("%s books = %+v, model = %+v", l.Name, got, *ml)
				}
				if i == 1 {
					// kcached's entries are the daemon's books.
					if ds := daemonStore.Stats(); ds.Entries != len(ml.has) {
						t.Errorf("daemon holds %d entries, model says %d", ds.Entries, len(ml.has))
					}
					continue
				}
				if got.Invalidated != ml.invalidated || got.Entries != len(ml.has) {
					t.Errorf("%s books = %+v, model = %+v (%d entries)", l.Name, got, *ml, len(ml.has))
				}
			}
			// The stack's entries are the front's.
			if got := st.Stats(); got.Hits != model.hits || got.Misses != model.misses || got.Puts != model.puts ||
				got.Entries != len(model.front.has) || got.Evictions != 0 {
				t.Errorf("stack stats = %+v; model hits=%d misses=%d puts=%d entries=%d",
					got, model.hits, model.misses, model.puts, len(model.front.has))
			}
		})
	}
}
