package ckdsl_test

import (
	"strings"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/engine"
	"knighter/internal/kernel"
	"knighter/internal/minic"
)

// callRecorder records the callee of every CheckPreCall on a path, in a
// fact of the path's state, and the whole sequence when the path returns.
type callRecorder struct{ paths [][]string }

func (*callRecorder) Name() string    { return "test.CallRecorder" }
func (*callRecorder) BugType() string { return "None" }

func (*callRecorder) CheckPreCall(ev *checker.CallEvent, c *checker.Context) {
	seq, _ := c.State().Fact("test:calls", "seq")
	s, _ := seq.(string)
	c.SetState(c.State().SetFact("test:calls", "seq", s+ev.Callee+" "))
}

func (r *callRecorder) CheckEndFunction(_ *checker.ReturnEvent, c *checker.Context) {
	seq, _ := c.State().Fact("test:calls", "seq")
	s, _ := seq.(string)
	r.paths = append(r.paths, strings.Fields(s))
}

// orderFile has one function per construct whose event order the pass
// must share with the evaluator.
const orderFile = `
struct od { int n; char *buf; char arr[4]; struct od *next; };

int od_args(int n) { return f(g(n), h(n)); }
int od_store(struct od *d, int n) { d->buf[a(n)] = b(n); return 0; }
int od_store_member(struct od *d, int n) { get(d)->n = val(n); return 0; }
int od_dot(struct od s, int n) { s.arr[idx(n)] = 1; return s.n; }
int od_cond(int n) { return c(n) ? t(n) : e(n); }
int od_logic(int n) { if (l(n) && r(n) || o(n)) return 1; return 0; }
int od_sizeof(int n) { return sizeof(s(n)) + k(n); }
int od_likely(int n) { if (unlikely(u(n))) return likely(v(n), n); return 0; }
int od_addr(struct od *d, int n) { return use(&d->arr[i(n)], &(base(d)->n)); }
int od_step(struct od *d, int n) { d->arr[p(n)]++; --d->arr[q(n)]; d->n += w(n); return 0; }
int od_deref(struct od *d) { return *ptr(d) + deref(d)->n; }
int od_decl(int n) { int x = one(n); int y; y = two(x); return y; }
int od_loop(int n) { int i; for (i = init(n); cond(i); i = post(i)) body(i); return done(n); }
int od_while(int n) { while (w(n--)) if (brk(n)) break; return 0; }
int od_goto(int n) { if (g1(n)) goto out; g2(n); out: g3(n); return 0; }
int od_cast(int n) { return cast((long)inner(n)); }
int od_nested(int n) { return a(b(c(n), d(n)), e(f(n))); }
int od_paren(int n) { (p1(n)); return ((p2(n))); }
`

// TestFlowEventOrderMatchesEngine holds the pass's per-block call order
// to the engine: the calls the engine fires on each explored path, in
// order, must spell a path through the pass's blocks, from the entry to a
// return. It covers every construct whose order the pass models, the
// witness file and a small corpus.
func TestFlowEventOrderMatchesEngine(t *testing.T) {
	od, err := minic.ParseFile("drivers/od/order.c", orderFile)
	if err != nil {
		t.Fatal(err)
	}
	files := append([]*minic.File{od}, parseFiles(t, kernel.Generate(kernel.Config{Seed: 1, Scale: 0.05}))...)
	checked := 0
	for _, f := range files {
		for _, fn := range f.Funcs {
			calls, succs, returns, ok := ckdsl.BlockCalls(fn)
			if !ok {
				t.Fatalf("%s: the pass does not model it", fn.Name)
			}
			rec := &callRecorder{}
			engine.AnalyzeFunc(f, fn, engine.Options{Checkers: []checker.Checker{rec}})
			if len(rec.paths) == 0 {
				t.Fatalf("%s: no path returned", fn.Name)
			}
			for _, path := range rec.paths {
				if !spells(calls, succs, returns, path) {
					t.Fatalf("%s: the engine's calls %v are no path through the pass's blocks %v (successors %v)", fn.Name, path, calls, succs)
				}
				checked++
			}
		}
	}
	t.Logf("%d engine paths checked", checked)
}

// spells reports whether path is the concatenation of the call lists of
// the blocks of a CFG path from block 0 to a returning block.
func spells(calls [][]string, succs [][]int32, returns []bool, path []string) bool {
	type at struct{ block, i int32 }
	// closure adds s and every state reachable from it without a call.
	var closure func(set map[at]bool, s at)
	closure = func(set map[at]bool, s at) {
		if set[s] {
			return
		}
		set[s] = true
		if int(s.i) == len(calls[s.block]) {
			for _, n := range succs[s.block] {
				closure(set, at{n, 0})
			}
		}
	}
	cur := map[at]bool{}
	closure(cur, at{0, 0})
	for _, callee := range path {
		next := map[at]bool{}
		for s := range cur {
			if int(s.i) < len(calls[s.block]) && calls[s.block][s.i] == callee {
				closure(next, at{s.block, s.i + 1})
			}
		}
		cur = next
	}
	for s := range cur {
		if int(s.i) == len(calls[s.block]) && returns[s.block] {
			return true
		}
	}
	return false
}
