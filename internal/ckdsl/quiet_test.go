package ckdsl_test

import (
	"encoding/json"
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
	"knighter/internal/store"
	"knighter/internal/sym"
	"knighter/internal/synth"
)

// quietWitness has one function per footprint gate that the corpus does
// not witness for the synthesized checkers: each is loud for the gate
// spec that names it, and a QuietOn blind to that gate would call it
// quiet. qw_compare and qw_mul_plain are quiet witnesses: a comparison
// alone wakes no boundcheck guard, and a call with no product at the
// sink's argument wakes no mul-overflow sink.
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
`

// gateSpecs each depend on one gate: a call of its callee under a
// boundcheck guard, an index under 'index constant-oob', an
// uninitialized local under plain and cleanup-only 'decl uninit', a
// one-argument likely bound to a local under a syntactic nullable source,
// and a product at, or no, argument 0 under a mul-overflow sink.
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
}`}

// TestQuietWitnesses pins which witness functions each gate spec is
// quiet on: loud exactly on the witness it names, and on qw_mul_short
// for qw_mul, whose sink panics there.
func TestQuietWitnesses(t *testing.T) {
	w, err := minic.ParseFile("drivers/qw/witness.c", quietWitness)
	if err != nil {
		t.Fatal(err)
	}
	loud := map[string][]string{
		"qw_bound":   {"qw_bound"},
		"qw_oob":     {"qw_index"},
		"qw_uninit":  {"qw_uninit", "qw_cleanup"},
		"qw_cleanup": {"qw_cleanup"},
		"qw_likely":  {"qw_likely"},
		"qw_mul":     {"qw_mul", "qw_mul_short"},
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

// spy delegates every callback to a Compiled checker and records any
// callback that hands back a different state or allocates in the arena.
type spy struct {
	*ckdsl.Compiled
	broken []string
}

func (s *spy) watch(c *checker.Context, callback string, fire func()) {
	st, size := c.State(), c.Arena().Size()
	fire()
	if c.State() != st {
		s.broken = append(s.broken, callback+" changed the state")
	}
	if c.Arena().Size() != size {
		s.broken = append(s.broken, callback+" allocated in the arena")
	}
}

func (s *spy) CheckDecl(d *minic.DeclStmt, r sym.RegionID, c *checker.Context) {
	s.watch(c, "CheckDecl", func() { s.Compiled.CheckDecl(d, r, c) })
}

func (s *spy) CheckPreCall(ev *checker.CallEvent, c *checker.Context) {
	s.watch(c, "CheckPreCall", func() { s.Compiled.CheckPreCall(ev, c) })
}

func (s *spy) CheckPostCall(ev *checker.CallEvent, c *checker.Context) {
	s.watch(c, "CheckPostCall", func() { s.Compiled.CheckPostCall(ev, c) })
}

func (s *spy) CheckBind(ev *checker.BindEvent, c *checker.Context) {
	s.watch(c, "CheckBind", func() { s.Compiled.CheckBind(ev, c) })
}

func (s *spy) CheckBranchCondition(cond minic.Expr, c *checker.Context) {
	s.watch(c, "CheckBranchCondition", func() { s.Compiled.CheckBranchCondition(cond, c) })
}

func (s *spy) CheckLocation(ac *checker.Access, c *checker.Context) {
	s.watch(c, "CheckLocation", func() { s.Compiled.CheckLocation(ac, c) })
}

func (s *spy) CheckEndFunction(ev *checker.ReturnEvent, c *checker.Context) {
	s.watch(c, "CheckEndFunction", func() { s.Compiled.CheckEndFunction(ev, c) })
}

// outcome is a result as a client and as the store see it.
type outcome struct{ json, codec string }

func outcomeOf(t testing.TB, r *engine.Result) outcome {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return outcome{string(data), string(store.Encode(r))}
}

// checkQuiet analyzes fn with ck, which calls it quiet, behind a spy: no
// callback may change the state or allocate, and the result must equal
// the no-checker baseline as JSON and as codec bytes, so ck neither
// reported nor panicked.
func checkQuiet(t testing.TB, f *minic.File, fn *minic.FuncDecl, ck *ckdsl.Compiled, base outcome) {
	t.Helper()
	s := &spy{Compiled: ck}
	got := outcomeOf(t, engine.AnalyzeFunc(f, fn, engine.Options{Checkers: []checker.Checker{s}}))
	if len(s.broken) > 0 || got != base {
		t.Fatalf("%s is quiet on %s, but %v\n got %s\nwant %s", ck.Name(), fn.Name, s.broken, got.json, base.json)
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
// the gate specs, every function a checker calls quiet gets its
// baseline's result with that checker (checkQuiet).
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
				var base *outcome
				for _, ck := range cks {
					pairs++
					if !ck.QuietOn(&fp) {
						continue
					}
					if base == nil {
						o := outcomeOf(t, engine.AnalyzeFunc(f, fn, engine.Options{}))
						base = &o
					}
					quiet++
					checkQuiet(t, f, fn, ck, *base)
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
// wherever the spec is quiet on the function it must leave it as the
// baseline does. The functions are the witness file's, first, then a
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
			checkQuiet(t, u.file, u.fn, ck, outcomeOf(t, engine.AnalyzeFunc(u.file, u.fn, engine.Options{})))
		}
	})
}
