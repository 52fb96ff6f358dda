package scan

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/kernel"
	"knighter/internal/minic"
	"knighter/internal/store"
)

// fuzzScale keeps each fuzz iteration's corpus small enough that one
// run (generate + mutate + two full scans) stays well under a second.
const fuzzScale = 0.02

// fuzzCorpusTemplate is generated once; each fuzz iteration clones it
// (sources are strings, so a fresh []*SourceFile is a full logical copy)
// rather than paying kernel.Generate again.
var (
	fuzzTemplateOnce sync.Once
	fuzzTemplate     *kernel.Corpus
)

func fuzzCorpus() *kernel.Corpus {
	fuzzTemplateOnce.Do(func() {
		fuzzTemplate = kernel.Generate(kernel.Config{Seed: 1, Scale: fuzzScale})
	})
	clone := *fuzzTemplate
	clone.Files = make([]*kernel.SourceFile, len(fuzzTemplate.Files))
	for i, f := range fuzzTemplate.Files {
		cp := *f
		clone.Files[i] = &cp
	}
	return &clone
}

// fuzzTweakFunc renders fn with an inert local declaration whose name is
// derived from variant, so different variants produce different content
// hashes while analysis results stay position-shifted but valid.
// variant%4 == 0 returns the canonical rendering unchanged — the
// "mutation that changes nothing" case, which must cost zero misses.
func fuzzTweakFunc(fn *minic.FuncDecl, variant byte) (string, error) {
	src := minic.FormatFunc(fn)
	if variant%4 == 0 {
		return src, nil
	}
	brace := strings.Index(src, "{")
	if brace < 0 {
		return "", fmt.Errorf("no body in rendered function %s", fn.Name)
	}
	return src[:brace+1] + fmt.Sprintf("\n\tint fz_%d;", variant%32) + src[brace+1:], nil
}

// fuzzReplaceSrc renders file f whole, optionally dropping its last
// function (variant%2 == 1 and the file has more than one), exercising
// the delete-a-function invalidation path.
func fuzzReplaceSrc(f *minic.File, variant byte) string {
	funcs := f.Funcs
	if variant%2 == 1 && len(funcs) > 1 {
		funcs = funcs[:len(funcs)-1]
	}
	return minic.FormatFile(&minic.File{
		Name: f.Name, Structs: f.Structs, Globals: f.Globals, Funcs: funcs,
	})
}

// FuzzMutationEquivalence is the property-testing harness behind every
// corpus-mutation path: an arbitrary interleaving of one-change
// changesets (function patch, file replace), multi-file changesets,
// and warm scans must leave the incremental scheduler
// byte-identical to a cold scan of the final corpus. Any missed
// invalidation, hash-memo leak, or half-applied changeset shows up as a
// stale cache entry and fails the final comparison.
//
// The byte stream is interpreted as (opcode, fileSel, variant) triples;
// every derived operation is valid by construction, so the harness
// explores mutation interleavings rather than parser error paths (those
// have their own tests).
func FuzzMutationEquivalence(f *testing.F) {
	// Seeds: a no-op, each single op kind, a scan-interleaved sequence,
	// and a changeset-heavy sequence (deterministic corpus, so these
	// replay identically everywhere).
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1})
	f.Add([]byte{1, 3, 1, 1, 4, 2})
	f.Add([]byte{3, 0, 0, 0, 1, 5, 3, 0, 0, 2, 2, 3})
	f.Add([]byte{2, 0, 1, 2, 5, 3, 2, 9, 0, 3, 0, 0, 2, 7, 2})
	f.Add([]byte{0, 1, 0, 1, 1, 1, 2, 2, 6, 3, 0, 0, 0, 1, 9, 1, 2, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		cb, err := NewCodebase(fuzzCorpus())
		if err != nil {
			t.Fatal(err)
		}
		inc := NewIncremental(cb, store.NewMemory(0))
		ck := compileChecker(t)

		// Concurrent snapshot readers: while the mutation sequence runs,
		// each reader repeatedly pins whatever generation is live and
		// scans it lock-free. Every result is verified after the join
		// against a cold parse of that generation's recorded sources — a
		// reader must see exactly its admission-time corpus, bit for bit,
		// no matter which commits raced past it.
		byGen := map[int64]*kernel.Corpus{cb.Generation(): corpusAt(cb)}
		type pinnedScan struct {
			gen int64
			res *Result
		}
		var (
			readers  sync.WaitGroup
			scansMu  sync.Mutex
			scans    []pinnedScan
			stopRead = make(chan struct{})
		)
		all := make([]int, len(cb.Files()))
		for i := range all {
			all[i] = i
		}
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for n := 0; n < 3; n++ {
					snap := cb.Pin()
					res := inc.RunBatchAt(snap.Snapshot, []checker.Checker{ck}, all, Options{Workers: 1})[0]
					gen := snap.Generation()
					snap.Release()
					scansMu.Lock()
					scans = append(scans, pinnedScan{gen, res})
					scansMu.Unlock()
					select {
					case <-stopRead:
						return
					default:
					}
				}
			}()
		}

		const maxOps = 6
		for ops := 0; len(data) >= 3 && ops < maxOps; ops++ {
			kind, fileSel, variant := data[0]%4, data[1], data[2]
			data = data[3:]
			i := int(fileSel) % len(cb.Files())
			switch kind {
			case 0: // single-function patch
				funcs := cb.Files()[i].Funcs
				if len(funcs) == 0 {
					continue
				}
				j := int(variant) % len(funcs)
				src, err := fuzzTweakFunc(funcs[j], variant)
				if err != nil {
					t.Fatal(err)
				}
				applyOne(t, inc, Change{Path: cb.Files()[i].Name, Func: funcs[j].Name, Source: src})
			case 1: // whole-file replace
				applyOne(t, inc, Change{Path: cb.Files()[i].Name, Source: fuzzReplaceSrc(cb.Files()[i], variant)})
			case 2: // multi-file changeset: replace file i, patch file i2
				i2 := (i + 1 + int(variant)%3) % len(cb.Files())
				changes := []Change{{Path: cb.Files()[i].Name, Source: fuzzReplaceSrc(cb.Files()[i], variant)}}
				if i2 != i && len(cb.Files()[i2].Funcs) > 0 {
					funcs := cb.Files()[i2].Funcs
					j := int(variant) % len(funcs)
					src, err := fuzzTweakFunc(funcs[j], variant+1)
					if err != nil {
						t.Fatal(err)
					}
					changes = append(changes, Change{Path: cb.Files()[i2].Name, Func: funcs[j].Name, Source: src})
				}
				if _, err := inc.ApplyChangeset(changes); err != nil {
					t.Fatal(err)
				}
			case 3: // warm the cache mid-sequence, so later mutations must
				// really invalidate entries rather than never populate them
				inc.RunFiles([]int{i}, []checker.Checker{ck}, Options{Workers: 2})
			}
			if _, ok := byGen[cb.Generation()]; !ok {
				byGen[cb.Generation()] = corpusAt(cb)
			}
		}

		close(stopRead)
		readers.Wait()

		// Each pinned reader saw exactly its admission-time generation:
		// its result is byte-identical to a cold, uncached scan of the
		// sources recorded when that generation committed.
		coldByGen := map[int64]string{}
		for _, ps := range scans {
			if ps.res.Generation != ps.gen {
				t.Fatalf("pinned reader at generation %d got result stamped %d", ps.gen, ps.res.Generation)
			}
			want, ok := coldByGen[ps.gen]
			if !ok {
				src, recorded := byGen[ps.gen]
				if !recorded {
					t.Fatalf("reader pinned generation %d, which no mutation recorded", ps.gen)
				}
				coldCb, err := NewCodebase(src)
				if err != nil {
					t.Fatalf("generation %d does not re-parse: %v", ps.gen, err)
				}
				want = resultBytes(t, coldCb.RunOne(ck, Options{Workers: 1}))
				coldByGen[ps.gen] = want
			}
			if got := resultBytes(t, ps.res); got != want {
				t.Fatalf("pinned reader diverged from cold scan of generation %d:\nreader: %s\ncold:   %s", ps.gen, got, want)
			}
		}

		// The property: however the sequence interleaved, the incremental
		// scan of the mutated corpus — through whatever cache state the
		// sequence left behind — is byte-identical to a cold, uncached
		// scan of a freshly parsed copy of the same sources.
		got := resultBytes(t, inc.RunOne(ck, Options{Workers: 1}))
		coldCb, err := NewCodebase(cb.Corpus)
		if err != nil {
			t.Fatalf("final corpus does not re-parse: %v", err)
		}
		want := resultBytes(t, coldCb.RunOne(ck, Options{Workers: 1}))
		if got != want {
			t.Fatalf("incremental scan diverged from cold scan after mutation sequence:\nincremental: %s\ncold:        %s", got, want)
		}
		// And a second pass must be all hits, still byte-identical.
		warm := inc.RunOne(ck, Options{Workers: 1})
		if warm.CacheMisses != 0 {
			t.Fatalf("fully-warm re-scan missed %d times", warm.CacheMisses)
		}
		if resultBytes(t, warm) != want {
			t.Fatal("warm re-scan diverged from cold scan")
		}
	})
}
