package shard

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"knighter/internal/api"
	"knighter/internal/checker"
	"knighter/internal/engine"
	"knighter/internal/kernel"
	"knighter/internal/minic"
	"knighter/internal/scan"
)

// fnvOwner is Owner as hash/fnv computes it.
func fnvOwner(count int, path string) int {
	h := fnv.New64a()
	h.Write([]byte(path))
	return int(h.Sum64() % uint64(count))
}

// TestOwnerMatchesHashFNV pins Owner bit for bit to FNV-1a 64 from
// hash/fnv, over every corpus path at seeds 1 and 2 and over random
// strings, for the shard counts a fleet runs: the benchmark picks the
// files it toggles with Owner, and every replica must agree on it.
func TestOwnerMatchesHashFNV(t *testing.T) {
	var paths []string
	for _, seed := range []int64{1, 2} {
		for _, f := range kernel.Generate(kernel.Config{Seed: seed, Scale: 1}).Files {
			paths = append(paths, f.Path)
		}
	}
	if len(paths) < 600 {
		t.Fatalf("%d corpus paths at seeds 1 and 2, want the two scale-1 corpora", len(paths))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		paths = append(paths, string(b))
	}
	for _, count := range []int{2, 3, 5, 7, 16} {
		ring := Ring{Count: count}
		for _, p := range paths {
			if got, want := ring.Owner(p), fnvOwner(count, p); got != want {
				t.Fatalf("Owner(%q) over %d shards = %d, hash/fnv says %d", p, count, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { Ring{Count: 2}.Owner(paths[0]) }); n != 0 {
		t.Fatalf("Owner allocates %v times per call, want 0", n)
	}
}

// TestTableResolvesOnlyItsOwnPartitions: a table resolves each of its
// own references, and refuses one from a table over another path list
// or another shard count, and any reference it does not hold exactly.
func TestTableResolvesOnlyItsOwnPartitions(t *testing.T) {
	paths := scatterPaths()
	table := Ring{Count: 3}.Table(paths)
	for s, part := range table.Parts {
		if !reflect.DeepEqual(part, Ring{Count: 3}.Partition(paths)[s]) {
			t.Fatalf("table partition %d differs from Ring.Partition", s)
		}
		ref := table.Ref(s)
		pos, err := table.Resolve(ref)
		if err != nil || ref.Files != len(part) || len(pos) != len(part) {
			t.Fatalf("Resolve(Ref(%d)) = %v, %v (ref %+v)", s, pos, err, ref)
		}
		for j, i := range pos {
			if paths[i] != part[j] {
				t.Fatalf("partition %d: position %d is %s, want %s", s, i, paths[i], part[j])
			}
		}
	}
	others := map[string]*Table{
		"one path fewer": Ring{Count: 3}.Table(paths[1:]),
		"two shards":     Ring{Count: 2}.Table(paths),
	}
	for name, other := range others {
		for s := range other.Parts {
			if _, err := table.Resolve(other.Ref(s)); err == nil && !reflect.DeepEqual(other.Parts[s], table.Parts[s]) {
				t.Fatalf("%s: partition %d with other paths resolved", name, s)
			}
		}
	}
	bad := table.Ref(0)
	bad.Files++
	for _, ref := range []api.Partition{bad, {Index: 3}, {Index: -1}, {Index: 1, Files: table.Ref(1).Files, Digest: table.Ref(0).Digest}} {
		if _, err := table.Resolve(ref); err == nil {
			t.Fatalf("Resolve(%+v) succeeded", ref)
		}
	}
}

// wireResult is a partial with reports over files, traces and runtime
// errors on some of them, and every counter and flag set from k.
func wireResult(k int, files []string) *scan.Result {
	res := &scan.Result{
		FilesScanned: len(files), FuncsScanned: 3 * len(files), CacheHits: k, CacheMisses: 2 * k,
		Generation: int64(k * 1000), Truncated: k%2 == 1, Canceled: k%3 == 1,
	}
	for i, f := range files {
		var cut scan.FileCut
		for r := 0; r < (i+k)%3; r++ {
			rep := &checker.Report{
				Checker: fmt.Sprintf("knighter.c%d", k), BugType: "Null-Pointer-Dereference",
				Message: "deref of " + f, File: f, Func: fmt.Sprintf("fn_%d", r),
				Pos: minic.Pos{File: f, Line: 10 + r, Col: 2}, RegionAt: "p",
			}
			if r == 1 {
				rep.Trace = []checker.TraceStep{{Pos: minic.Pos{File: f, Line: 3, Col: 1}, Note: "alloc"}}
			}
			res.Reports = append(res.Reports, rep)
			cut.Reports++
		}
		if i%5 == k%5 {
			res.RuntimeErrs = append(res.RuntimeErrs, engine.RuntimeErr{Func: "fn", Checker: "c", Panic: "boom " + f})
			cut.RuntimeErrs++
		}
		res.FileCuts = append(res.FileCuts, cut)
	}
	return res
}

// TestSubBatchReplyRoundTrips: a reply decodes to the partials it
// encodes, traces included or dropped as asked, and decoded replies
// map onto the same wire responses as the partials they encode.
func TestSubBatchReplyRoundTrips(t *testing.T) {
	paths := scatterPaths()
	results := []*scan.Result{wireResult(0, nil), wireResult(1, paths[:7]), wireResult(2, paths), wireResult(4, paths[3:4])}
	got, err := DecodeSubBatch(EncodeSubBatch(results, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(results) {
		t.Fatalf("%d entries back, want %d", len(got), len(results))
	}
	for i, res := range results {
		if !reflect.DeepEqual(got[i], res) {
			t.Fatalf("entry %d:\n got %+v\nwant %+v", i, got[i], res)
		}
	}
	bare, err := DecodeSubBatch(EncodeSubBatch(results, false))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		for _, rep := range bare[i].Reports {
			if len(rep.Trace) != 0 {
				t.Fatalf("entry %d: a trace travelled without include_trace", i)
			}
		}
		for _, trace := range []bool{false, true} {
			want := api.ScanResult("n", res, trace, true)
			from := got[i]
			if !trace {
				from = bare[i]
			}
			if g := api.ScanResult("n", from, trace, true); !reflect.DeepEqual(g, want) {
				t.Fatalf("entry %d, trace %v: wire response differs after the round trip", i, trace)
			}
		}
	}
}

// FuzzSubBatchReply: decoding arbitrary bytes never panics, and what
// decodes re-encodes to exactly its bytes, so every encoded reply
// decodes back to itself.
func FuzzSubBatchReply(f *testing.F) {
	paths := scatterPaths()
	f.Add(EncodeSubBatch(nil, true))
	f.Add(EncodeSubBatch([]*scan.Result{wireResult(0, nil)}, true))
	f.Add(EncodeSubBatch([]*scan.Result{wireResult(1, paths[:5]), wireResult(2, paths)}, true))
	f.Add(EncodeSubBatch([]*scan.Result{wireResult(3, paths[:2])}, false))
	f.Add([]byte{subBatchCodec, 1, 0, 0, 0, 0, 0, 4, 0, 3, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		results, err := DecodeSubBatch(data)
		if err != nil {
			return
		}
		if again := EncodeSubBatch(results, true); !bytes.Equal(again, data) {
			t.Fatalf("decoded reply re-encodes differently:\n in %x\nout %x", data, again)
		}
	})
}
