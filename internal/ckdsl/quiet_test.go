package ckdsl_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/engine"
	"knighter/internal/kernel"
	"knighter/internal/llm"
	"knighter/internal/minic"
	"knighter/internal/synth"
)

// quietWitness has one function per footprint gate that the corpus does
// not witness for the synthesized checkers: each is loud for the gate
// spec that names it, and a QuietOn blind to that gate would call it
// quiet. qw_compare and qw_mul_plain are quiet witnesses: a comparison
// alone wakes no boundcheck guard, and a call with no product at the
// sink's argument wakes no mul-overflow sink. The qw_free_*, qw_copy_*,
// qw_scan_* and qw_alloc_* functions witness the dataflow rules (flow.go)
// for the qw_dfree, qw_unterm and qw_leak specs: call after call, and may
// still hold.
const quietWitness = `
struct qw_dev {
	int len;
	char *buf;
};

int qw_compare(int n)
{
	if (n < 8)
		return 1;
	return 0;
}

int qw_bound(char *src, int n)
{
	char buf[8];
	if (n < 8)
		copy_from_user(buf, src, n);
	return 0;
}

int qw_index(int a)
{
	char buf[4];
	buf[4] = a;
	return buf[0];
}

int qw_uninit(int a)
{
	int x;
	if (a)
		x = a;
	return x;
}

int qw_cleanup(int a)
{
	char *p __free(kfree);
	return a;
}

int qw_likely(struct qw_dev *d)
{
	struct qw_dev *p = likely(d);
	return p->len;
}

int qw_mul(int n)
{
	char *p = kmalloc(n * 8);
	return p != 0;
}

int qw_mul_plain(int n)
{
	char *p = kmalloc(n);
	return p != 0;
}

int qw_mul_short(int n)
{
	char *p = kmalloc();
	return n;
}

int qw_free_paths(char *p, int a)
{
	if (a)
		kfree(p);
	else
		kfree(p);
	return 0;
}

int qw_free_two(char *p, char *q)
{
	kfree(p);
	kfree(q);
	return 0;
}

int qw_free_loop(char *p, int n)
{
	while (n--)
		kfree(p);
	return 0;
}

int qw_free_none(int a)
{
	kfree();
	return a;
}

int qw_copy_scan(char *src, int n)
{
	char buf[16];
	copy_from_user(buf, src, n);
	sscanf(buf, "%d", &n);
	return n;
}

int qw_scan_copy(char *src, int n)
{
	char buf[16];
	sscanf(buf, "%d", &n);
	copy_from_user(buf, src, n);
	return n;
}

int qw_alloc_free(int n)
{
	char *p = kmalloc(n);
	if (!p)
		return -ENOMEM;
	kfree(p);
	return 0;
}

int qw_alloc_leak(int n)
{
	char *p = kmalloc(n);
	if (!p)
		return -ENOMEM;
	if (n > 8)
		return -EINVAL;
	kfree(p);
	return 0;
}

int qw_alloc_copy(int n)
{
	char *p = kmalloc(n);
	char *q;
	if (!p)
		return -ENOMEM;
	q = p;
	kfree(q);
	return 0;
}

int qw_alloc_store(struct qw_dev *d, int n)
{
	char *p = kmalloc(n);
	d->buf = p;
	return 0;
}

int qw_alloc_overwrite(char *q, int n)
{
	char *p = kmalloc(n);
	p = q;
	kfree(p);
	return 0;
}

int qw_alloc_addr(int n)
{
	char *p = kmalloc(n);
	char **pp = &p;
	kfree(*pp);
	return 0;
}

int qw_alloc_shadow(int n)
{
	char *p = kmalloc(n);
	kfree(p);
	if (n) {
		char *p = kmalloc(n);
		kfree(p);
	}
	return 0;
}

int qw_alloc_star(int n)
{
	char *q;
	char **pp = &q;
	char *p = kmalloc(n);
	*pp = p;
	return 0;
}
`

// gateSpecs each depend on one gate: a call of its callee under a
// boundcheck guard, an index under 'index constant-oob', an
// uninitialized local under plain and cleanup-only 'decl uninit', a
// one-argument likely bound to a local under a syntactic nullable source,
// a product at, or no, argument 0 under a mul-overflow sink, and the
// dataflow rules: a kfree after a kfree (qw_dfree) and an sscanf after a
// copy_from_user (qw_unterm) under Rule A, a kmalloc that may still be
// held at a return (qw_leak) under Rule B.
var gateSpecs = []string{`checker qw_bound {
  bugtype "Buffer-Overflow"
  guard { boundcheck }
  sink { call "copy_from_user" size-arg 2 buf-arg 0 slack 0 }
}`, `checker qw_oob {
  bugtype "Out-of-Bounds"
  sink { index constant-oob }
}`, `checker qw_uninit {
  bugtype "Uninitialized-Use"
  source { decl uninit }
  guard { assign initializes }
  sink { use uninit }
}`, `checker qw_cleanup {
  bugtype "Uninitialized-Use"
  source { decl uninit cleanup-only }
  guard { assign initializes }
  sink { end-of-function cleanup uninit }
}`, `checker qw_likely {
  bugtype "Null-Pointer-Dereference"
  source { call "likely" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
}`, `checker qw_mul {
  bugtype "Integer-Overflow"
  guard { boundcheck }
  sink { mul-overflow into "kmalloc" arg 0 bits 32 }
}`, `checker qw_dfree {
  bugtype "Double-Free"
  track aliases
  source { call "kfree" frees arg 0 }
  sink { call "kfree" arg 0 freed }
}`, `checker qw_unterm {
  bugtype "Misuse"
  source { call "copy_from_user" writes arg 0 unterminated }
  guard { terminate elem zero }
  sink { call "sscanf" arg 0 unterminated }
}`, `checker qw_leak {
  bugtype "Memory-Leak"
  track aliases
  source { call "kmalloc" yields alloc }
  guard { call "kfree" releases arg 0 }
  sink { end-of-function holding alloc }
}`}

// TestQuietWitnesses pins which witness functions each gate spec is
// quiet on: loud exactly on the witnesses it names, among them
// qw_mul_short for qw_mul and qw_free_none for qw_dfree and qw_leak,
// whose callbacks panic there.
func TestQuietWitnesses(t *testing.T) {
	w, err := minic.ParseFile("drivers/qw/witness.c", quietWitness)
	if err != nil {
		t.Fatal(err)
	}
	loud := map[string][]string{
		"qw_bound":   {"qw_bound", "qw_copy_scan", "qw_scan_copy"},
		"qw_oob":     {"qw_index"},
		"qw_uninit":  {"qw_uninit", "qw_cleanup", "qw_alloc_copy", "qw_alloc_star"},
		"qw_cleanup": {"qw_cleanup"},
		"qw_likely":  {"qw_likely"},
		"qw_mul":     {"qw_mul", "qw_mul_short"},
		"qw_dfree":   {"qw_free_two", "qw_free_loop", "qw_free_none", "qw_alloc_shadow"},
		"qw_unterm":  {"qw_copy_scan"},
		"qw_leak": {"qw_mul", "qw_mul_plain", "qw_mul_short", "qw_free_none", "qw_alloc_leak",
			"qw_alloc_overwrite", "qw_alloc_addr", "qw_alloc_shadow", "qw_alloc_star"},
	}
	var fp minic.Footprint
	for _, src := range gateSpecs {
		ck := mustCompile(t, src)
		for _, fn := range w.Funcs {
			fp.Reset(fn)
			if want := !slices.Contains(loud[ck.Spec().Name], fn.Name); ck.QuietOn(&fp) != want {
				t.Errorf("%s on %s: QuietOn = %v, want %v", ck.Name(), fn.Name, !want, want)
			}
		}
	}
}

// checkQuiet holds ck, which calls fn quiet, to checker.Quieter's
// contract: explored, it reports nothing on fn and panics nowhere, so
// the no-checker answer the scan scheduler stores for the pair, unexplored,
// is the explored one.
func checkQuiet(t testing.TB, f *minic.File, fn *minic.FuncDecl, ck *ckdsl.Compiled) {
	t.Helper()
	if r := engine.AnalyzeFunc(f, fn, engine.Options{Checkers: []checker.Checker{ck}}); len(r.Reports) > 0 || len(r.RuntimeErrs) > 0 {
		t.Fatalf("%s is quiet on %s, but explored it reports %v and fails %v", ck.Name(), fn.Name, r.Reports, r.RuntimeErrs)
	}
}

func parseFiles(t testing.TB, corpus *kernel.Corpus) []*minic.File {
	t.Helper()
	w, err := minic.ParseFile("drivers/qw/witness.c", quietWitness)
	if err != nil {
		t.Fatal(err)
	}
	files := []*minic.File{w}
	for _, sf := range corpus.Files {
		f, err := minic.ParseFile(sf.Path, sf.Src)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

func mustCompile(t testing.TB, src string) *ckdsl.Compiled {
	t.Helper()
	ck, err := ckdsl.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// TestQuietMatchesBaseline is QuietOn's soundness oracle. Over the
// scale-1 corpus at seeds 1 and 2 plus the witness file, for the valid
// checkers the pipeline synthesizes from that seed's hand commits plus
// the gate specs, every function a checker calls quiet keeps
// checker.Quieter's contract (checkQuiet).
func TestQuietMatchesBaseline(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		files := parseFiles(t, kernel.Generate(kernel.Config{Seed: seed, Scale: 1}))
		var cks []*ckdsl.Compiled
		pipe := synth.NewPipeline(llm.NewOracle(llm.O3Mini), synth.Options{})
		for _, c := range kernel.BuildHandCommits(seed + 10).All() {
			if out := pipe.GenChecker(c); out.Valid {
				ck, err := ckdsl.Compile(out.Spec)
				if err != nil {
					t.Fatal(err)
				}
				cks = append(cks, ck)
			}
		}
		synthesized := len(cks)
		for _, src := range gateSpecs {
			cks = append(cks, mustCompile(t, src))
		}
		quiet, pairs := 0, 0
		var fp minic.Footprint
		for _, f := range files {
			for _, fn := range f.Funcs {
				fp.Reset(fn)
				for _, ck := range cks {
					pairs++
					if !ck.QuietOn(&fp) {
						continue
					}
					quiet++
					checkQuiet(t, f, fn, ck)
				}
			}
		}
		t.Logf("seed %d: %d synthesized checkers, %d of %d pairs quiet", seed, synthesized, quiet, pairs)
		if synthesized < 30 || quiet == 0 || quiet == pairs {
			t.Fatalf("seed %d: %d synthesized checkers, %d of %d pairs quiet: the oracle compares too little", seed, synthesized, quiet, pairs)
		}
	}
}

// unit is one function of a parsed file.
type unit struct {
	file *minic.File
	fn   *minic.FuncDecl
}

var (
	fuzzUnitsOnce sync.Once
	fuzzUnits     []unit
)

// FuzzQuietMatchesBaseline is the oracle on random specs: randomSpec
// names callees drawn from a function's own calls and from decoys, and
// draws the dataflow rules' shapes some of the time; wherever the spec is
// quiet on the function it must keep checker.Quieter's contract there
// (checkQuiet). The functions are the witness file's, first, then a
// small corpus's.
func FuzzQuietMatchesBaseline(f *testing.F) {
	// Specs on a witness function for one gate each: a boundcheck guard
	// quiet on qw_compare (0) and loud on qw_bound (1), constant-oob on
	// qw_index (2), plain decl uninit on qw_uninit (3), cleanup-only decl
	// uninit on qw_cleanup (4), a likely source on qw_likely (5), and a
	// kmalloc mul-overflow sink loud on qw_mul (6), quiet on qw_mul_plain
	// (7) and loud on qw_mul_short (8).
	f.Add(int64(0), uint16(0))
	f.Add(int64(0), uint16(1))
	f.Add(int64(11), uint16(2))
	f.Add(int64(3), uint16(3))
	f.Add(int64(16), uint16(4))
	f.Add(int64(2), uint16(5))
	f.Add(int64(608), uint16(6))
	f.Add(int64(608), uint16(7))
	f.Add(int64(126), uint16(8))
	// Specs of the dataflow rules' shapes on each of their witnesses, with
	// the verdict TestQuietWitnesses pins for the matching gate spec: a
	// kfree double-free spec quiet on qw_free_paths (9) and loud on
	// qw_free_two (10), qw_free_loop (11) and qw_free_none (12); a
	// copy_from_user/sscanf spec loud on qw_copy_scan (13) and quiet on
	// qw_scan_copy (14); a kmalloc leak spec quiet on qw_alloc_free (15),
	// qw_alloc_copy (17) and qw_alloc_store (18) and loud on
	// qw_alloc_leak (16), qw_alloc_overwrite (19), qw_alloc_addr (20),
	// qw_alloc_shadow (21) and qw_alloc_star (22).
	f.Add(int64(737), uint16(9))
	f.Add(int64(546), uint16(10))
	f.Add(int64(546), uint16(11))
	f.Add(int64(546), uint16(12))
	f.Add(int64(301), uint16(13))
	f.Add(int64(48), uint16(14))
	f.Add(int64(91), uint16(15))
	f.Add(int64(91), uint16(16))
	f.Add(int64(91), uint16(17))
	f.Add(int64(2), uint16(18))
	f.Add(int64(91), uint16(19))
	f.Add(int64(91), uint16(20))
	f.Add(int64(91), uint16(21))
	f.Add(int64(2), uint16(22))
	f.Fuzz(func(t *testing.T, seed int64, pick uint16) {
		fuzzUnitsOnce.Do(func() {
			for _, f := range parseFiles(t, kernel.Generate(kernel.Config{Seed: 1, Scale: 0.05})) {
				for _, fn := range f.Funcs {
					fuzzUnits = append(fuzzUnits, unit{f, fn})
				}
			}
		})
		u := fuzzUnits[int(pick)%len(fuzzUnits)]
		var fp minic.Footprint
		fp.Reset(u.fn)
		callees := append(slices.Clone(fp.Callees), "kzalloc", "kfree", "copy_from_user", "spin_lock", "likely")
		ck, err := ckdsl.Compile(ckdsl.RandomSpec(rand.New(rand.NewSource(seed)), callees))
		if err != nil {
			t.Fatal(err)
		}
		if ck.QuietOn(&fp) {
			checkQuiet(t, u.file, u.fn, ck)
		}
	})
}
