package segment

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// testOptions disables the background flusher so tests control sync
// points explicitly.
func testOptions() Options {
	return Options{SyncInterval: -1}
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func mustPut(t *testing.T, s *Store, id, fn string, payload []byte) {
	t.Helper()
	if err := s.Put(id, fn, payload); err != nil {
		t.Fatalf("Put(%s): %v", id, err)
	}
}

func checkIntegrity(t *testing.T, s *Store) {
	t.Helper()
	if err := s.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// liveSet snapshots id -> payload for the whole live index.
func liveSet(t *testing.T, s *Store) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, id := range s.liveIDs() {
		p, ok := s.Get(id)
		if !ok {
			t.Fatalf("walked id %q not gettable", id)
		}
		out[id] = string(p)
	}
	return out
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()

	mustPut(t, s, "a", "f1", []byte("hello"))
	mustPut(t, s, "b", "f1", []byte("world"))
	mustPut(t, s, "c", "f2", []byte(""))

	for id, want := range map[string]string{"a": "hello", "b": "world", "c": ""} {
		got, ok := s.Get(id)
		if !ok || string(got) != want {
			t.Fatalf("Get(%s) = %q,%v want %q", id, got, ok, want)
		}
	}
	if _, ok := s.Get("nope"); ok {
		t.Fatal("Get(nope) hit")
	}

	st := s.Stats()
	if st.Entries != 3 || st.Bytes != int64(len("hello")+len("world")) || st.Puts != 3 {
		t.Fatalf("stats = %+v", st)
	}
	checkIntegrity(t, s)
}

func TestOverwriteReplacesAndAccounts(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()

	mustPut(t, s, "a", "f1", []byte("short"))
	mustPut(t, s, "a", "f1", []byte("a longer payload"))
	got, ok := s.Get("a")
	if !ok || string(got) != "a longer payload" {
		t.Fatalf("Get(a) = %q,%v", got, ok)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Bytes != int64(len("a longer payload")) {
		t.Fatalf("stats after overwrite = %+v", st)
	}
	// Overwrite may even move the entry to a different func token; the
	// old token's index entry must not linger.
	mustPut(t, s, "a", "f2", []byte("moved"))
	if n := s.InvalidateFunc("f1"); n != 0 {
		t.Fatalf("InvalidateFunc(f1) dropped %d entries after the id moved to f2", n)
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("entry lost after func move")
	}
	checkIntegrity(t, s)
}

func TestReopenRecoversIndex(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	want := map[string]string{}
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("id%02d", i)
		fn := fmt.Sprintf("f%d", i%5)
		pay := fmt.Sprintf("payload-%d", i)
		mustPut(t, s, id, fn, []byte(pay))
		want[id] = pay
	}
	before := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, testOptions())
	defer s2.Close()
	got := liveSet(t, s2)
	if len(got) != len(want) {
		t.Fatalf("reopen recovered %d entries, want %d", len(got), len(want))
	}
	for id, pay := range want {
		if got[id] != pay {
			t.Fatalf("reopen Get(%s) = %q want %q", id, got[id], pay)
		}
	}
	after := s2.Stats()
	if after.Entries != before.Entries || after.Bytes != before.Bytes {
		t.Fatalf("reopen stats %+v != pre-close %+v", after, before)
	}
	checkIntegrity(t, s2)
}

func TestTombstoneSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	mustPut(t, s, "a", "f1", []byte("x"))
	mustPut(t, s, "b", "f1", []byte("y"))
	mustPut(t, s, "c", "f2", []byte("z"))
	if n := s.InvalidateFunc("f1"); n != 2 {
		t.Fatalf("InvalidateFunc = %d want 2", n)
	}
	s.Close()

	s2 := mustOpen(t, dir, testOptions())
	defer s2.Close()
	if _, ok := s2.Get("a"); ok {
		t.Fatal("invalidated entry resurrected by replay")
	}
	if _, ok := s2.Get("b"); ok {
		t.Fatal("invalidated entry resurrected by replay")
	}
	if got, ok := s2.Get("c"); !ok || string(got) != "z" {
		t.Fatalf("untouched entry lost: %q,%v", got, ok)
	}
	checkIntegrity(t, s2)
}

func TestTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	mustPut(t, s, "a", "f1", []byte("committed"))
	s.Close()

	// Simulate a crash mid-append: garbage bytes (a partial record) on
	// the tail of the last segment.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) == 0 {
		t.Fatal("no segment files")
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	info, _ := os.Stat(last)
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x4b, 0x53, 0x47, 0x31, 0xff, 0x00}) // magic + torn length
	f.Close()

	s2 := mustOpen(t, dir, testOptions())
	defer s2.Close()
	if got, ok := s2.Get("a"); !ok || string(got) != "committed" {
		t.Fatalf("committed entry lost after torn tail: %q,%v", got, ok)
	}
	// The tail must be truncated so new appends start on a clean frame.
	if info2, _ := os.Stat(last); info2.Size() != info.Size() {
		t.Fatalf("torn tail not truncated: %d != %d", info2.Size(), info.Size())
	}
	mustPut(t, s2, "b", "f1", []byte("after-crash"))
	s2.Close()

	s3 := mustOpen(t, dir, testOptions())
	defer s3.Close()
	for id, want := range map[string]string{"a": "committed", "b": "after-crash"} {
		if got, ok := s3.Get(id); !ok || string(got) != want {
			t.Fatalf("Get(%s) = %q,%v want %q", id, got, ok, want)
		}
	}
	checkIntegrity(t, s3)
}

func TestCorruptRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	mustPut(t, s, "a", "f1", []byte("first"))
	mustPut(t, s, "b", "f1", []byte("second"))
	s.Close()

	// Flip a payload byte of the first record: its CRC fails, and since
	// framing past a corrupt record cannot be trusted, recovery keeps
	// only what it could verify before the damage.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	sort.Strings(segs)
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+20] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, testOptions())
	defer s2.Close()
	if _, ok := s2.Get("a"); ok {
		t.Fatal("corrupt record served")
	}
	checkIntegrity(t, s2)
}

func TestCompactTTLAndBudgetBooks(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{SyncInterval: -1, MaxBytes: 30})
	defer s.Close()

	old := time.Now().Add(-2 * time.Hour)
	if err := s.PutAt("old1", "f1", []byte("0123456789"), old); err != nil {
		t.Fatal(err)
	}
	if err := s.PutAt("old2", "f2", []byte("0123456789"), old); err != nil {
		t.Fatal(err)
	}
	// Fresh entries: 4 x 10 bytes = 40 live > 30 budget after TTL, so
	// the oldest fresh entry must be evicted too.
	base := time.Now().Add(-time.Minute)
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("new%d", i)
		if err := s.PutAt(id, "f3", []byte("0123456789"), base.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}

	res := s.Compact(time.Hour)
	if res.Expired != 2 {
		t.Fatalf("Expired = %d want 2 (res %+v)", res.Expired, res)
	}
	if res.Evicted != 1 {
		t.Fatalf("Evicted = %d want 1 (res %+v)", res.Evicted, res)
	}
	st := s.Stats()
	if st.Entries != 3 || st.Bytes != 30 {
		t.Fatalf("post-compact stats %+v", st)
	}
	if st.Expired != 2 || st.Evicted != 1 {
		t.Fatalf("cumulative books %+v", st)
	}
	if _, ok := s.Get("old1"); ok {
		t.Fatal("expired entry still served")
	}
	if _, ok := s.Get("new0"); ok {
		t.Fatal("evicted (oldest) entry still served")
	}
	if _, ok := s.Get("new3"); !ok {
		t.Fatal("newest entry lost")
	}
	checkIntegrity(t, s)
}

func TestCompactRewritesDeadSegments(t *testing.T) {
	dir := t.TempDir()
	// One record per segment: any append rotates once the active segment
	// holds anything.
	s := mustOpen(t, dir, Options{SyncInterval: -1, SegmentMaxBytes: 1})
	for i := 0; i < 20; i++ {
		mustPut(t, s, fmt.Sprintf("id%02d", i), "f1", bytes.Repeat([]byte("x"), 100))
	}
	// Overwrite all but the last five: 15 segments become fully dead.
	for i := 0; i < 15; i++ {
		mustPut(t, s, fmt.Sprintf("id%02d", i), "f1", []byte("v2"))
	}
	before := s.Stats()
	res := s.Compact(0)
	if res.Removed == 0 {
		t.Fatalf("compaction removed no segments (res %+v)", res)
	}
	st := s.Stats()
	if st.DiskBytes >= before.DiskBytes {
		t.Fatalf("DiskBytes %d not reduced from %d", st.DiskBytes, before.DiskBytes)
	}
	if st.Entries != 20 {
		t.Fatalf("live entries %d changed by rewrite", st.Entries)
	}
	want := liveSet(t, s)
	checkIntegrity(t, s)
	s.Close()

	s2 := mustOpen(t, dir, testOptions())
	defer s2.Close()
	got := liveSet(t, s2)
	if len(got) != len(want) {
		t.Fatalf("reopen after compaction: %d entries want %d", len(got), len(want))
	}
	for id, pay := range want {
		if got[id] != pay {
			t.Fatalf("reopen Get(%s) = %q want %q", id, got[id], pay)
		}
	}
	checkIntegrity(t, s2)
}

// TestCompactForwardsTombstones builds the resurrection scenario: a
// dead put of func F sits in a surviving old segment, and the tombstone
// that killed it sits in a mostly-dead segment that compaction removes.
// Without tombstone forwarding, replay of the survivor would resurrect
// the dead entry after a restart.
func TestCompactForwardsTombstones(t *testing.T) {
	dir := t.TempDir()
	// Uniform record sizing so the test can steer segment boundaries:
	// 5-byte ids, 1-byte func tokens, 10-byte payloads.
	recSize := int64(headerSize + 9 + 8 + 5 + 1 + 10)
	pay := func(s string) []byte { return []byte(fmt.Sprintf("%-10s", s))[:10] }
	s := mustOpen(t, dir, Options{
		SyncInterval:        -1,
		SegmentMaxBytes:     2 * recSize,
		CompactDeadFraction: 0.6,
	})

	// seg1: keep1 (lives forever) + dead1/F (killed by the tombstone).
	mustPut(t, s, "keep1", "G", pay("keep"))
	mustPut(t, s, "dead1", "F", pay("stale"))
	// seg2: tombstone F + live2/F + fill1 (live2 re-put later makes this
	// segment mostly dead).
	if n := s.InvalidateFunc("F"); n != 1 {
		t.Fatalf("InvalidateFunc = %d", n)
	}
	mustPut(t, s, "live2", "F", pay("old"))
	mustPut(t, s, "fill1", "H", pay("fill"))
	// seg3: fill2 + live2 v2 (supersedes seg2's copy).
	mustPut(t, s, "fill2", "H", pay("fill"))
	mustPut(t, s, "live2", "F", pay("fresh"))
	// seg4 (active): fill3.
	mustPut(t, s, "fill3", "H", pay("fill"))

	res := s.Compact(0)
	if res.Removed == 0 {
		t.Fatalf("no segment removed (res %+v); dead-segment setup is off", res)
	}
	// seg1 must survive: it still holds keep1 and the dead F record.
	if _, err := os.Stat(s.segPath(1)); err != nil {
		t.Fatalf("seg1 did not survive compaction: %v", err)
	}
	checkIntegrity(t, s)
	s.Close()

	s2 := mustOpen(t, dir, testOptions())
	defer s2.Close()
	if _, ok := s2.Get("dead1"); ok {
		t.Fatal("dead entry resurrected: tombstone was not forwarded past the removed segment")
	}
	for id, want := range map[string]string{
		"keep1": string(pay("keep")),
		"live2": string(pay("fresh")),
		"fill1": string(pay("fill")),
		"fill2": string(pay("fill")),
		"fill3": string(pay("fill")),
	} {
		if got, ok := s2.Get(id); !ok || string(got) != want {
			t.Fatalf("Get(%s) = %q,%v want %q", id, got, ok, want)
		}
	}
	checkIntegrity(t, s2)
}

// TestCompactSkipsRefsRelocatedByForwarding is the regression for a
// corruption bug: tombstone forwarding (while processing an early
// victim) re-appends live entries of the tombstoned func and updates
// their refs in place — including entries living in a LATER victim of
// the same pass. That victim's copy loop then saw the ref's new
// active-segment offset and copied garbage from its own file,
// repointing the index at it and leaving an unreplayable frame in the
// log. The copy loop must skip refs that no longer point into the
// victim.
func TestCompactSkipsRefsRelocatedByForwarding(t *testing.T) {
	dir := t.TempDir()
	// Uniform sizing: 5-byte ids, 1-byte func tokens, 10-byte payloads →
	// 45-byte put records, three per segment.
	recSize := int64(headerSize + 9 + 8 + 5 + 1 + 10)
	pay := func(s string) []byte { return []byte(fmt.Sprintf("%-10s", s))[:10] }
	s := mustOpen(t, dir, Options{
		SyncInterval:        -1,
		SegmentMaxBytes:     3 * recSize,
		CompactDeadFraction: 0.5,
	})

	// seg1 (survivor, dead fraction 1/3): keep1 + keep2 + dead1/F.
	mustPut(t, s, "keep1", "G", pay("keep"))
	mustPut(t, s, "keep2", "G", pay("keep"))
	mustPut(t, s, "dead1", "F", pay("stale"))
	// seg2 (victim, fully dead): tombstone F + junk1..3 v1.
	if n := s.InvalidateFunc("F"); n != 1 {
		t.Fatalf("InvalidateFunc = %d", n)
	}
	mustPut(t, s, "junk1", "H", pay("v1"))
	mustPut(t, s, "junk2", "H", pay("v1"))
	mustPut(t, s, "junk3", "H", pay("v1"))
	// seg3 (victim, dead fraction 2/3): liveF/F — the entry forwarding
	// will relocate — plus junk4/junk5 v1.
	mustPut(t, s, "liveF", "F", pay("fresh"))
	mustPut(t, s, "junk4", "H", pay("v1"))
	mustPut(t, s, "junk5", "H", pay("v1"))
	// seg4 (survivor): junk1..3 v2 kill seg2's copies.
	mustPut(t, s, "junk1", "H", pay("v2"))
	mustPut(t, s, "junk2", "H", pay("v2"))
	mustPut(t, s, "junk3", "H", pay("v2"))
	// seg5 (active): junk4/junk5 v2 kill seg3's copies.
	mustPut(t, s, "junk4", "H", pay("v2"))
	mustPut(t, s, "junk5", "H", pay("v2"))

	res := s.Compact(0)
	// Both seg2 (tombstone holder) and seg3 (home of the relocated entry)
	// must go: a pass that kept seg3 mishandled the relocated ref.
	if res.Removed != 2 {
		t.Fatalf("Removed = %d want 2 (res %+v)", res.Removed, res)
	}
	if got, ok := s.Get("liveF"); !ok || string(got) != string(pay("fresh")) {
		t.Fatalf("relocated entry corrupted by victim copy: %q,%v", got, ok)
	}
	want := liveSet(t, s)
	checkIntegrity(t, s)
	s.Close()

	// Replay must agree byte-for-byte: a garbage frame appended by the
	// bug truncates recovery of everything after it.
	s2 := mustOpen(t, dir, testOptions())
	defer s2.Close()
	got := liveSet(t, s2)
	if len(got) != len(want) {
		t.Fatalf("reopen: %d entries want %d", len(got), len(want))
	}
	for id, p := range want {
		if got[id] != p {
			t.Fatalf("reopen Get(%s) = %q want %q", id, got[id], p)
		}
	}
	if _, ok := s2.Get("dead1"); ok {
		t.Fatal("dead entry resurrected after compaction")
	}
	checkIntegrity(t, s2)
}

// TestCompactKeptVictimStillForwardsTombstones is the regression for a
// dropped-tombstone bug: survivors were computed up front excluding ALL
// victims, but a victim whose copy fails is kept on disk. If that kept
// victim is older than a removed victim holding a tombstone, the
// tombstone was skipped as unnecessary — and replay of the kept segment
// resurrected the dead entries after restart. A kept victim must count
// as a survivor for every later victim's forwarding decision.
func TestCompactKeptVictimStillForwardsTombstones(t *testing.T) {
	dir := t.TempDir()
	recSize := int64(headerSize + 9 + 8 + 5 + 1 + 10)
	pay := func(s string) []byte { return []byte(fmt.Sprintf("%-10s", s))[:10] }
	s := mustOpen(t, dir, Options{
		SyncInterval:        -1,
		SegmentMaxBytes:     2 * recSize,
		CompactDeadFraction: 0.5,
	})

	// seg1 (victim whose copy will fail): dead1/F first, live1/G second.
	mustPut(t, s, "dead1", "F", pay("stale"))
	mustPut(t, s, "live1", "G", pay("keep"))
	// seg2 (victim, fully dead): tombstone F + junkA/junkB v1.
	if n := s.InvalidateFunc("F"); n != 1 {
		t.Fatalf("InvalidateFunc = %d", n)
	}
	mustPut(t, s, "junkA", "H", pay("v1"))
	mustPut(t, s, "junkB", "H", pay("v1"))
	// seg3 (survivor): junkA/junkB v2.
	mustPut(t, s, "junkA", "H", pay("v2"))
	mustPut(t, s, "junkB", "H", pay("v2"))
	// seg4 (active).
	mustPut(t, s, "fill1", "H", pay("fill"))

	// Make seg1 dirty enough to be a victim (dead1 is dead: fraction
	// 1/2) and make its copy fail: tear live1's record off the tail, so
	// readRecord short-reads. dead1's record stays intact and replayable.
	if err := os.Truncate(s.segPath(1), recSize+10); err != nil {
		t.Fatal(err)
	}

	res := s.Compact(0)
	// seg2 removed; seg1 kept (copy failed).
	if res.Removed != 1 {
		t.Fatalf("Removed = %d want 1 (res %+v)", res.Removed, res)
	}
	if _, err := os.Stat(s.segPath(1)); err != nil {
		t.Fatalf("failed-copy victim was deleted: %v", err)
	}
	if _, err := os.Stat(s.segPath(2)); !os.IsNotExist(err) {
		t.Fatalf("dead victim not deleted: %v", err)
	}
	checkIntegrity(t, s)
	s.Close()

	s2 := mustOpen(t, dir, testOptions())
	defer s2.Close()
	// The kept seg1 replays dead1/F; the forwarded tombstone must kill it.
	if _, ok := s2.Get("dead1"); ok {
		t.Fatal("dead entry resurrected: tombstone dropped because its survivor was a kept victim")
	}
	for id, want := range map[string]string{
		"junkA": string(pay("v2")),
		"junkB": string(pay("v2")),
		"fill1": string(pay("fill")),
	} {
		if got, ok := s2.Get(id); !ok || string(got) != want {
			t.Fatalf("Get(%s) = %q,%v want %q", id, got, ok, want)
		}
	}
	checkIntegrity(t, s2)
}

// TestPutRejectsOversizedRecord: a record recovery would refuse to
// replay must never be written — on restart its length field reads as
// corruption and truncates every later record in the segment.
func TestPutRejectsOversizedRecord(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()
	if err := s.Put("big", "f", make([]byte, maxRecordBytes)); err != ErrRecordTooLarge {
		t.Fatalf("oversized Put err = %v want ErrRecordTooLarge", err)
	}
	st := s.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.DiskBytes != 0 {
		t.Fatalf("oversized Put left state behind: %+v", st)
	}
	mustPut(t, s, "ok", "f", []byte("fits"))
	if got, ok := s.Get("ok"); !ok || string(got) != "fits" {
		t.Fatalf("Get(ok) = %q,%v after rejected put", got, ok)
	}
	checkIntegrity(t, s)
}

func TestInvalidateFuncsBatch(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()
	for i := 0; i < 10; i++ {
		mustPut(t, s, fmt.Sprintf("id%d", i), fmt.Sprintf("f%d", i%3), []byte("p"))
	}
	n := s.InvalidateFuncs([]string{"f0", "f2", "missing"})
	// f0 holds ids 0,3,6,9; f2 holds 2,5,8.
	if n != 7 {
		t.Fatalf("InvalidateFuncs = %d want 7", n)
	}
	st := s.Stats()
	if st.Entries != 3 || st.Invalidated != 7 {
		t.Fatalf("stats %+v", st)
	}
	checkIntegrity(t, s)
}

func TestCloseThenOps(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	mustPut(t, s, "a", "f", []byte("x"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("Get after Close hit")
	}
	if err := s.Put("b", "f", []byte("y")); err == nil {
		t.Fatal("Put after Close succeeded")
	}
	if n := s.InvalidateFunc("f"); n != 0 {
		t.Fatalf("InvalidateFunc after Close = %d", n)
	}
}

// TestCompactLoopStopsOnContextCancel: the compaction loop honors the
// context-aware contract from day one — the daemons thread their signal
// context through it, so a graceful drain never races a sweep.
func TestCompactLoopStopsOnContextCancel(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()
	var sweeps atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	s.StartCompactLoop(ctx, 0, 2*time.Millisecond, func(time.Duration, CompactResult) {
		sweeps.Add(1)
	})
	deadline := time.Now().Add(2 * time.Second)
	for sweeps.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sweeps.Load() < 3 {
		t.Fatalf("compaction loop barely ran: %d sweeps", sweeps.Load())
	}
	cancel()
	// One sweep may be in flight at cancel time; after it lands, the
	// count must freeze.
	time.Sleep(20 * time.Millisecond)
	frozen := sweeps.Load()
	time.Sleep(50 * time.Millisecond)
	if got := sweeps.Load(); got != frozen {
		t.Fatalf("compaction loop kept sweeping after cancel: %d -> %d", frozen, got)
	}
}

func TestFlushLoopSyncsDirtySegments(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SyncInterval: 5 * time.Millisecond})
	mustPut(t, s, "a", "f", []byte("x"))
	deadline := time.Now().Add(2 * time.Second)
	for s.dirty.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.dirty.Load() {
		t.Fatal("flusher never cleared the dirty flag")
	}
	s.Close()
}
