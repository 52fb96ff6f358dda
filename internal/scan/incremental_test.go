package scan

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/engine"
	"knighter/internal/kernel"
	"knighter/internal/minic"
	"knighter/internal/store"
)

// resultBytes serializes everything observable about a scan result so
// two results can be compared byte-for-byte.
func resultBytes(t *testing.T, r *Result) string {
	t.Helper()
	data, err := json.Marshal(struct {
		Reports      []*checker.Report
		RuntimeErrs  []engine.RuntimeErr
		FilesScanned int
		FuncsScanned int
		Truncated    bool
	}{r.Reports, r.RuntimeErrs, r.FilesScanned, r.FuncsScanned, r.Truncated})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// storedPayload is what st holds under k, nil for nothing: a one-key
// range probe.
func storedPayload(st store.Store, k store.Key) []byte {
	var out [1][]byte
	st.GetMany(context.Background(), []store.Key{k}, []store.Digest{k.Digest()}, out[:])
	return out[0]
}

func TestIncrementalMatchesUncachedScan(t *testing.T) {
	cb := buildCodebase(t)
	ck := compileChecker(t)
	plain := cb.RunOne(ck, Options{Workers: 1})

	inc := NewIncremental(cb, store.NewMemory(0))
	cold := inc.RunOne(ck, Options{Workers: 1})
	if cold.CacheHits != 0 || cold.CacheMisses == 0 {
		t.Fatalf("cold scan: hits=%d misses=%d", cold.CacheHits, cold.CacheMisses)
	}
	warm := inc.RunOne(ck, Options{Workers: 1})
	if warm.CacheMisses != 0 {
		t.Fatalf("warm scan missed %d times", warm.CacheMisses)
	}
	if warm.CacheHits != cold.CacheMisses {
		t.Fatalf("warm hits = %d, want %d", warm.CacheHits, cold.CacheMisses)
	}

	want := resultBytes(t, plain)
	if got := resultBytes(t, cold); got != want {
		t.Fatal("cold incremental scan differs from uncached scan")
	}
	if got := resultBytes(t, warm); got != want {
		t.Fatal("warm incremental scan differs from uncached scan")
	}
}

func TestIncrementalDeterministicAcrossWorkersAndCacheState(t *testing.T) {
	cb := buildCodebase(t)
	ck := compileChecker(t)
	base := cb.RunOne(ck, Options{Workers: 1})
	want := resultBytes(t, base)

	if got := resultBytes(t, cb.RunOne(ck, Options{Workers: 8})); got != want {
		t.Fatal("Workers=8 uncached scan differs from Workers=1")
	}
	for _, workers := range []int{1, 8} {
		inc := NewIncremental(cb, store.NewMemory(0))
		cold := inc.RunOne(ck, Options{Workers: workers})
		warm := inc.RunOne(ck, Options{Workers: workers})
		if got := resultBytes(t, cold); got != want {
			t.Fatalf("cold incremental workers=%d differs", workers)
		}
		if got := resultBytes(t, warm); got != want {
			t.Fatalf("warm incremental workers=%d differs", workers)
		}
	}
}

// oneFuncCorpus splits the test corpus into single-function files, each
// keeping its file's structs and globals, so that the first n files
// hold exactly n units.
func oneFuncCorpus(t *testing.T, n int) *kernel.Corpus {
	t.Helper()
	var files []*kernel.SourceFile
	for _, f := range buildCodebase(t).Files() {
		for j, fn := range f.Funcs {
			if len(files) == n {
				return &kernel.Corpus{Files: files}
			}
			files = append(files, &kernel.SourceFile{
				Path: fmt.Sprintf("%s.%d.c", strings.TrimSuffix(f.Name, ".c"), j),
				Src:  minic.FormatFile(&minic.File{Name: f.Name, Structs: f.Structs, Globals: f.Globals, Funcs: []*minic.FuncDecl{fn}}),
			})
		}
	}
	t.Fatalf("test corpus has %d functions, want %d", len(files), n)
	return nil
}

// TestRangeBoundariesMatchUncachedScan: file subsets of 1, R-1, R, R+1
// and 2R+1 units (R = rangeSize) — a short range, an exact one, a range
// and one unit, two and one unit — scanned cold then warm by three
// workers, through the plain memory tier and through a stack, each
// equal Codebase.Run over the same files.
func TestRangeBoundariesMatchUncachedScan(t *testing.T) {
	corpus := oneFuncCorpus(t, 2*rangeSize+1)
	cb, err := NewCodebase(corpus)
	if err != nil {
		t.Fatal(err)
	}
	ck := compileChecker(t)
	reports := 0
	for _, n := range []int{1, rangeSize - 1, rangeSize, rangeSize + 1, 2*rangeSize + 1} {
		sub, err := NewCodebase(&kernel.Corpus{Files: corpus.Files[:n]})
		if err != nil {
			t.Fatal(err)
		}
		plain := sub.RunOne(ck, Options{Workers: 1})
		reports += len(plain.Reports)
		want := resultBytes(t, plain)
		files := make([]int, n)
		for i := range files {
			files[i] = i
		}
		for name, st := range map[string]store.Store{
			"memory": store.NewMemory(0),
			"stack":  store.NewStack(nil, store.Tier{Name: "memory", Store: store.NewMemory(0)}, nil),
		} {
			inc := NewIncremental(cb, st)
			for pass, wantHits := range []int{0, n} {
				res := inc.RunFiles(files, []checker.Checker{ck}, Options{Workers: 3})
				if res.CacheHits != wantHits || res.CacheMisses != n-wantHits {
					t.Fatalf("%d units, %s, pass %d: hits=%d misses=%d, want %d/%d",
						n, name, pass, res.CacheHits, res.CacheMisses, wantHits, n-wantHits)
				}
				if got := resultBytes(t, res); got != want {
					t.Fatalf("%d units, %s, pass %d: differs from the uncached scan", n, name, pass)
				}
			}
		}
	}
	if reports == 0 {
		t.Fatal("no subset has a report: the comparison would only compare empty lists")
	}
}

// TestWarmPassAllocatesPerRange pins what a warm pass allocates besides
// the reports it decodes: its key digests are assembled on the stack
// from halves memoized per file version and per pass, and a hit that
// carries nothing the merge keeps decodes into the worker's scratch and
// allocates nothing, so the count and the bytes grow with ranges, not
// functions. The checker reports nothing, so every hit is a report-free
// result. Over the scale-0.25 corpus (745 functions, 12 ranges) a warm
// pass makes 52 allocations; with a digest per key and a heap
// result per hit it made 803. In bytes it allocates under 64 per
// function; decoding every hit into a slab of results cost 122.
func TestWarmPassAllocatesPerRange(t *testing.T) {
	cb, err := NewCodebase(kernel.Generate(kernel.Config{Seed: 1, Scale: 0.25}))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := ckdsl.CompileSource(`checker quiet {
  bugtype "Null-Pointer-Dereference"
  source { call "no_such_alloc" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
}`)
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(cb, store.NewMemory(0))
	opts := Options{Workers: 2}
	if r := inc.RunOne(ck, opts); r.CacheMisses != cb.NumFuncs() || len(r.Reports) != 0 {
		t.Fatalf("cold pass: %d misses of %d functions, %d reports; want all misses, no reports", r.CacheMisses, cb.NumFuncs(), len(r.Reports))
	}
	// One allocation per eight functions: 93 here, with room for what
	// the runtime and the race detector add across Go versions.
	bound := float64(cb.NumFuncs() / 8)
	if n := testing.AllocsPerRun(20, func() { inc.RunOne(ck, opts) }); n > bound {
		t.Fatalf("a warm pass over %d functions made %.0f allocations, want <= %.0f", cb.NumFuncs(), n, bound)
	}
	const passes = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range passes {
		inc.RunOne(ck, opts)
	}
	runtime.ReadMemStats(&after)
	perFunc := float64(after.TotalAlloc-before.TotalAlloc) / passes / float64(cb.NumFuncs())
	if perFunc > 64 {
		t.Fatalf("a warm pass over %d functions allocated %.0f B per function, want <= 64", cb.NumFuncs(), perFunc)
	}
	t.Logf("a warm pass allocates %.0f B per function", perFunc)
}

func TestIncrementalMaxReportsAggregatesFully(t *testing.T) {
	cb := buildCodebase(t)
	ck := compileChecker(t)
	full := cb.RunOne(ck, Options{})
	totalFuncs := full.FuncsScanned

	for name, run := range map[string]func() *Result{
		"plain":       func() *Result { return cb.RunOne(ck, Options{MaxReports: 2}) },
		"incremental": func() *Result { return NewIncremental(cb, nil).RunOne(ck, Options{MaxReports: 2}) },
	} {
		res := run()
		if len(res.Reports) != 2 || !res.Truncated {
			t.Fatalf("%s: reports=%d truncated=%v", name, len(res.Reports), res.Truncated)
		}
		// The truncated result must still account for the whole scan.
		if res.FuncsScanned != totalFuncs {
			t.Fatalf("%s: FuncsScanned=%d, want %d", name, res.FuncsScanned, totalFuncs)
		}
		if res.FilesScanned != len(cb.Files()) {
			t.Fatalf("%s: FilesScanned=%d, want %d", name, res.FilesScanned, len(cb.Files()))
		}
	}
}

func TestIncrementalKeysSeparateCheckersAndEngineOptions(t *testing.T) {
	cb := buildCodebase(t)
	ck1 := compileChecker(t)
	ck2, err := ckdsl.CompileSource(`
checker scan_other {
  bugtype "Null-Pointer-Dereference"
  track aliases
  source { call "kzalloc" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(cb, store.NewMemory(0))
	inc.RunOne(ck1, Options{})
	// A different checker must not hit ck1's entries.
	if res := inc.RunOne(ck2, Options{}); res.CacheHits != 0 {
		t.Fatalf("checker fingerprint collision: %d hits", res.CacheHits)
	}
	// Different engine bounds must not hit either.
	if res := inc.RunOne(ck1, Options{Engine: engine.Options{MaxPaths: 7}}); res.CacheHits != 0 {
		t.Fatalf("engine fingerprint collision: %d hits", res.CacheHits)
	}
	// Zero options and explicit defaults are the same configuration.
	if res := inc.RunOne(ck1, Options{Engine: engine.Options{
		MaxBlockVisits: 2, MaxPaths: 512, MaxSteps: 20000, MaxTrace: 24,
	}}); res.CacheMisses != 0 {
		t.Fatalf("explicit-default engine options missed %d times", res.CacheMisses)
	}
}

// TestOneCheckerKeyKeepsItsBytes pins a checker's store key: the
// entries kcached directories, warm replicas and refinement wrote under
// it must stay hits.
func TestOneCheckerKeyKeepsItsBytes(t *testing.T) {
	fp := checkerFingerprint(compileChecker(t))
	if fp != "3954e3eb3ef2dfccb9ccc54a41d4daca" {
		t.Fatalf("checker fingerprint %s changed", fp)
	}
	d := store.Key{FuncHash: store.Hash("func"), CheckerFP: fp, EngineFP: Options{}.Engine.Fingerprint()}.Digest()
	if got := fmt.Sprintf("%x", d[:]); got != "e36a7c03d19d899c43e31612b44fe8fc389782d926d150e9a8b3c2d651275ac7" {
		t.Fatalf("key digest %s changed", got)
	}
}

// pinSrc exercises what the generated corpus never prints: globals, an
// array global with an initializer, a non-static function, __free, casts,
// sizeof of a type, string and char literals, a ternary, a switch, goto
// and a label, a for with a declaration and an empty for.
const pinSrc = `struct pin_dev {
	int id;
	char name[16];
	struct pin_dev *next;
};

int pin_count = 0;
u8 pin_table[8];
static const char *pin_label = "pin";

long pin_probe(struct pin_dev *dev, unsigned flags, size_t len)
{
	void *buf __free(kfree) = kzalloc(sizeof(struct pin_dev), GFP_KERNEL);
	unsigned long mask = 0xFFUL;
	char c = '\n';
	int i;
	if (!dev || len > 16)
		return -EINVAL;
	for (i = 0; i < 8; i++)
		pin_table[i] = (u8)(dev->id + i) % 2;
	switch (flags) {
	case 1:
	case 2:
		mask |= 1 << flags;
		break;
	default:
		return flags ? -EIO : 0;
	}
	while (dev->next != NULL)
		dev = dev->next;
	if (c == 'x')
		goto out;
	dev->name[0] = *pin_label;
	printk("%s: %d\n", pin_label, -dev->id);
	for (int j = 0; j < 2; j++) {
		len -= sizeof(dev->id);
		if (&dev->name[j] == NULL)
			continue;
		else
			break;
	}
	for (;;)
		;
out:
	return (long)mask & ~0x1;
}
`

// TestFuncHashKeepsItsBytes pins function hashes: every kcached entry
// and every warm replica's memory is addressed by them, so a change to
// how a hash is computed — the printer's bytes, the framing, the
// position — orphans them all while every other test stays green. It
// pins three functions of the seed-1, scale-0.25 corpus, a digest of
// every function hash in that corpus, and a hand-written function with
// what the corpus never prints.
func TestFuncHashKeepsItsBytes(t *testing.T) {
	cb, err := NewCodebase(kernel.Generate(kernel.Config{Seed: 1, Scale: 0.25}))
	if err != nil {
		t.Fatal(err)
	}
	last := len(cb.Files()) - 1
	for _, c := range []struct {
		file, fn int
		want     string
	}{
		{0, 0, "9a9b63f27cbdf6c541d3f7963fa6a363"},
		{0, 1, "b711fdfb1875573a45a4e076fe4019d1"},
		{last, len(cb.Files()[last].Funcs) - 1, "7b13653d78a496d774fcdbf9bcc51b59"},
	} {
		if got := cb.FuncHash(c.file, c.fn); got != c.want {
			t.Errorf("FuncHash(%d, %d) = %s, pinned %s", c.file, c.fn, got, c.want)
		}
	}
	h := sha256.New()
	for i, f := range cb.Files() {
		for j := range f.Funcs {
			fmt.Fprintln(h, cb.FuncHash(i, j))
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != "c0d0623231b2ea045ec5be39002770bc9c02b212439be2623644a7731a6ba332" {
		t.Errorf("corpus function hashes digest to %s, pinned c0d0623231b2ea045ec5be39002770bc9c02b212439be2623644a7731a6ba332", got)
	}

	pin, err := NewCodebase(&kernel.Corpus{Files: []*kernel.SourceFile{{Path: "drivers/pin.c", Src: pinSrc}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := pin.FuncHash(0, 0); got != "94bd03046e056426c85234415e4ea0f4" {
		t.Errorf("FuncHash of pin_probe = %s, pinned 94bd03046e056426c85234415e4ea0f4", got)
	}
}

func TestIncrementalRunFileWarmsOnlyThatFile(t *testing.T) {
	cb := buildCodebase(t)
	ck := compileChecker(t)
	inc := NewIncremental(cb, store.NewMemory(0))

	one := inc.RunFiles([]int{0}, []checker.Checker{ck}, Options{})
	if one.FilesScanned != 1 || one.FuncsScanned != len(cb.Files()[0].Funcs) {
		t.Fatalf("scan of file 0 scanned files=%d funcs=%d", one.FilesScanned, one.FuncsScanned)
	}
	again := inc.RunFiles([]int{0}, []checker.Checker{ck}, Options{})
	if again.CacheMisses != 0 {
		t.Fatalf("re-scan of file 0 missed %d times", again.CacheMisses)
	}
	full := inc.RunOne(ck, Options{})
	if full.CacheHits != len(cb.Files()[0].Funcs) {
		t.Fatalf("full scan hit %d entries, want %d (file 0 only)", full.CacheHits, len(cb.Files()[0].Funcs))
	}
}

func TestFuncHashSensitivity(t *testing.T) {
	cb := buildCodebase(t)
	if cb.FuncHash(0, 0) != cb.FuncHash(0, 0) {
		t.Fatal("FuncHash not deterministic")
	}
	if len(cb.Files()[0].Funcs) > 1 && cb.FuncHash(0, 0) == cb.FuncHash(0, 1) {
		t.Fatal("distinct functions share a hash")
	}
	if cb.FileIndex(cb.Files()[0].Name) != 0 {
		t.Fatal("FileIndex broken")
	}
	if cb.FileIndex("no/such/file.c") != -1 {
		t.Fatal("FileIndex found a nonexistent file")
	}
}
