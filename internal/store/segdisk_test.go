package store

import (
	"encoding/json"
	"reflect"
	"testing"

	"knighter/internal/store/segment"
)

func newTestSegDisk(t *testing.T, dir string, opts ...SegmentDiskOption) *SegmentDisk {
	t.Helper()
	// Tests control sync points; no background flusher.
	opts = append([]SegmentDiskOption{func(o *segment.Options) { o.SyncInterval = -1 }}, opts...)
	d, err := NewSegmentDisk(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func sameResult(t *testing.T, got, want interface{}) bool {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	return string(g) == string(w)
}

func TestSegmentDiskRoundTrip(t *testing.T) {
	d := newTestSegDisk(t, t.TempDir())

	r := result("segdisk")
	d.Put(bg, fkey("fA", "ck1"), r)
	got, ok := d.Get(bg, fkey("fA", "ck1"))
	if !ok || !sameResult(t, got, r) {
		t.Fatalf("round trip failed: ok=%v got=%+v", ok, got)
	}
	if _, ok := d.Get(bg, fkey("fA", "ck2")); ok {
		t.Fatal("hit on a key never put")
	}
	st := d.Stats()
	if st.Entries != 1 || st.Puts != 1 || st.Hits != 1 || st.Misses != 1 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Get hands back an independent result: mutating it must not change
	// what the next Get sees.
	got.Reports[0].Message = "mutated"
	again, _ := d.Get(bg, fkey("fA", "ck1"))
	if again.Reports[0].Message != r.Reports[0].Message {
		t.Fatal("Get returned a shared result")
	}
}

func TestSegmentDiskInvalidatePersists(t *testing.T) {
	dir := t.TempDir()
	d := newTestSegDisk(t, dir)
	d.Put(bg, fkey("fA", "ck1"), result("a1"))
	d.Put(bg, fkey("fA", "ck2"), result("a2"))
	d.Put(bg, fkey("fB", "ck1"), result("b1"))
	if n := d.InvalidateFuncs([]string{"fA", "missing"}); n != 2 {
		t.Fatalf("invalidated %d entries, want 2", n)
	}
	st := d.Stats()
	if st.Entries != 1 || st.Invalidated != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The tombstone is in the log: a reopen must not resurrect fA.
	d2 := newTestSegDisk(t, dir)
	if _, ok := d2.Get(bg, fkey("fA", "ck1")); ok {
		t.Fatal("invalidated entry resurrected after reopen")
	}
	if _, ok := d2.Get(bg, fkey("fB", "ck1")); !ok {
		t.Fatal("surviving entry lost after reopen")
	}
}

func TestSegmentDiskNilAndUncacheable(t *testing.T) {
	d := newTestSegDisk(t, t.TempDir())
	d.Put(bg, fkey("fA", "ck"), nil)
	if st := d.Stats(); st.Puts != 0 || st.Entries != 0 {
		t.Fatalf("nil Put stored something: %+v", st)
	}
}

func TestSegmentDiskStatsMatchEngineBooks(t *testing.T) {
	d := newTestSegDisk(t, t.TempDir(), SegmentDiskMaxBytes(1))
	for i := 0; i < 8; i++ {
		d.Put(bg, fkey(string(rune('a'+i)), "ck"), result("x"))
	}
	// A 1-byte budget evicts everything on compaction; Entries/Bytes
	// must be exactly zero afterwards, never negative.
	d.eng.Compact(0)
	st := d.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("post-evict-all stats = %+v", st)
	}
	if st.Evictions != 8 {
		t.Fatalf("evictions = %d want 8", st.Evictions)
	}
	if !reflect.DeepEqual(st.Entries, 0) {
		t.Fatalf("entries %v", st.Entries)
	}
}
