// Package engine implements the path-sensitive symbolic execution core —
// the reproduction's analog of the Clang Static Analyzer (paper §2.1).
//
// It walks each function's CFG, threading immutable sym.States along
// every feasible path (an exploded graph), dispatches checker callbacks
// at program points, applies branch constraints, bounds loops, and
// collects deduplicated bug reports.
//
// A pass explores one function for one checker: AnalyzeFuncEach lowers
// a function's CFG once and runs one pass per checker over it, one after
// another, on a pooled scratch. The passes share the lowered CFG and
// nothing else — no state, no budget — and a checker panic ends only its
// own pass, so each checker's Result is exactly its solo Result.
// AnalyzeFunc with several checkers folds their passes (Fold).
//
// The engine explores every checker it is given. Skipping a checker
// that cannot act on a function is the caller's decision: the scan
// scheduler's quiet gate makes it before it calls the engine, so every
// direct call here is an ungated exploration.
//
// Checkers do not share an exploration: exploring the few functions two
// are loud on in lockstep cost more bookkeeping than it saved.
package engine

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"knighter/internal/cfg"
	"knighter/internal/checker"
	"knighter/internal/minic"
	"knighter/internal/sym"
)

// Options configures an analysis run.
type Options struct {
	Checkers []checker.Checker
	// MaxBlockVisits bounds per-path loop iterations (default 2).
	MaxBlockVisits int
	// MaxPaths bounds the number of completed paths per function
	// (default 512).
	MaxPaths int
	// MaxSteps is a global per-function work bound (default 20000).
	MaxSteps int
	// MaxTrace bounds the recorded path-trace length (default 24).
	MaxTrace int
	// Ctx, when non-nil, lets the caller abort analysis early: its
	// cancellation is checked both between frames and — via the
	// evaluator's amortized check — in the middle of a single enormous
	// block, yielding a truncated result flagged Canceled. Unlike the
	// Max* bounds it is an operational guard, not a semantic one, so it
	// is excluded from Fingerprint, and canceled results must never be
	// cached: they reflect where the caller gave up, not what the
	// function contains.
	Ctx context.Context
}

func (o Options) withDefaults() Options {
	if o.MaxBlockVisits <= 0 {
		o.MaxBlockVisits = 2
	}
	if o.MaxPaths <= 0 {
		o.MaxPaths = 512
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 20000
	}
	if o.MaxTrace <= 0 {
		o.MaxTrace = 24
	}
	return o
}

// Result accumulates the outcome of analyzing one or more functions.
type Result struct {
	Reports   []*checker.Report
	Paths     int
	Steps     int
	Truncated bool
	// Canceled marks a result cut short by Options.Ctx cancellation.
	// It reflects the caller's circumstances, not the function's
	// content, and must never be cached.
	Canceled bool `json:",omitempty"`
	// RuntimeErrs records checker crashes ("the analyzer encountered
	// problems on source files"), keyed by function.
	RuntimeErrs []RuntimeErr
}

// RuntimeErr describes a checker crash during analysis of a function.
type RuntimeErr struct {
	Func    string
	Checker string
	Panic   string
}

func (e RuntimeErr) Error() string {
	return fmt.Sprintf("analyzer crash in %s (checker %s): %s", e.Func, e.Checker, e.Panic)
}

// Merge folds other into r. Only a merge that brings reports keys the
// reports r already holds, so folding a file's report-less functions
// costs nothing per report.
func (r *Result) Merge(other *Result) {
	if len(other.Reports) > 0 {
		seen := make(map[string]bool, len(r.Reports)+len(other.Reports))
		for _, rep := range r.Reports {
			seen[rep.Key()] = true
		}
		for _, rep := range other.Reports {
			if !seen[rep.Key()] {
				seen[rep.Key()] = true
				r.Reports = append(r.Reports, rep)
			}
		}
	}
	r.Paths += other.Paths
	r.Steps += other.Steps
	r.Truncated = r.Truncated || other.Truncated
	r.Canceled = r.Canceled || other.Canceled
	r.RuntimeErrs = append(r.RuntimeErrs, other.RuntimeErrs...)
}

// AnalyzeFile analyzes every function in the file.
func AnalyzeFile(file *minic.File, opts Options) *Result {
	total := &Result{}
	for _, fn := range file.Funcs {
		total.Merge(AnalyzeFunc(file, fn, opts))
	}
	return total
}

// AnalyzeFunc analyzes a single function: one pass per checker, folded
// (Fold), or one with no checker when there is none. A checker panic is
// recovered and recorded as a RuntimeErr on the result (the analog of
// CSA's "the analyzer encountered problems on source files").
func AnalyzeFunc(file *minic.File, fn *minic.FuncDecl, opts Options) *Result {
	cks := opts.Checkers
	if len(cks) == 0 {
		cks = []checker.Checker{nil}
	}
	return Fold(AnalyzeFuncEach(file, fn, cks, opts))
}

// AnalyzeFuncEach analyzes fn once per checker, each in a pass of its
// own, over one lowered CFG: results[i] is exactly what AnalyzeFunc
// returns for checkers[i] alone (opts.Checkers is ignored). A nil
// checker's pass explores the function with no checker.
func AnalyzeFuncEach(file *minic.File, fn *minic.FuncDecl, checkers []checker.Checker, opts Options) []*Result {
	opts = opts.withDefaults()
	results := make([]*Result, len(checkers))
	for i := range results {
		results[i] = &Result{}
	}
	// Every exit path — early cancel, CFG failure, sentinel, checker
	// crash, clean finish — is counted from one place.
	defer func() {
		for _, res := range results {
			countOutcome(res)
		}
	}()
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		// Already canceled: do not even build the CFG.
		for _, res := range results {
			res.Truncated, res.Canceled = true, true
		}
		return results
	}
	g := graphPool.Get().(*graph)
	defer g.release()
	if err := g.lower(fn); err != nil {
		// Malformed control flow: skip the function (parity with CSA,
		// which skips bodies it cannot lower).
		return results
	}
	for i, ck := range checkers {
		ex := newExec(file, fn, g, opts, ck, results[i])
		ex.explore() // recovers every panic, so the scratch always goes back
		ex.release(ex.evals)
	}
	return results
}

// Fold is the one answer of several passes over the same code: the
// results merged in order (Result.Merge), then the reports stably
// sorted as each pass sorts its own. One result is returned as it is.
// AnalyzeFunc and a multi-checker scan fold with it.
func Fold(results []*Result) *Result {
	if len(results) == 1 {
		return results[0]
	}
	out := &Result{}
	for _, r := range results {
		out.Merge(r)
	}
	sortReports(out.Reports)
	return out
}

// sortReports orders reports by file, line and checker, keeping the
// order of equal ones.
func sortReports(reps []*checker.Report) {
	slices.SortStableFunc(reps, func(a, b *checker.Report) int {
		return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Pos.Line, b.Pos.Line), strings.Compare(a.Checker, b.Checker))
	})
}

// graph is one call's lowered CFG, shared by every pass of the call,
// with the text its branches put into path traces, rendered the first
// time a pass needs it. AnalyzeFuncEach lowers into one drawn from
// graphPool and gives it back with no syntax left in it, so a cold
// function does not pay to build a graph.
type graph struct {
	cfg.Graph
	text []branchText // per Exprs index
}

// branchText is what a branch condition renders to: the condition and
// the trace note for assuming it false (note[0]) or true (note[1]). Empty
// until rendered.
type branchText struct {
	cond string
	note [2]string
}

var graphPool = sync.Pool{New: func() any { return new(graph) }}

func (g *graph) lower(fn *minic.FuncDecl) error {
	if err := g.Lower(fn); err != nil {
		return err
	}
	if cap(g.text) < len(g.Exprs) {
		g.text = make([]branchText, len(g.Exprs))
	}
	g.text = g.text[:len(g.Exprs)]
	clear(g.text)
	return nil
}

// note returns the trace note for assuming t's condition holds (yes) or
// not.
func (g *graph) note(t *cfg.Term, yes bool) string {
	bt, k, word := &g.text[t.Expr], 0, "false"
	if yes {
		k, word = 1, "true"
	}
	if bt.note[k] == "" {
		if bt.cond == "" {
			bt.cond = minic.FormatExpr(g.Exprs[t.Expr])
		}
		bt.note[k] = "assuming '" + bt.cond + "' is " + word
	}
	return bt.note[k]
}

// release returns g to the pool under scratch's rule (maxPooledEntries)
// once it holds no syntax, or drops a graph that served an unusually
// large function.
func (g *graph) release() {
	if cap(g.Blocks) > maxPooledEntries || cap(g.Stmts) > maxPooledEntries || cap(g.Exprs) > maxPooledEntries {
		return
	}
	g.Reset()
	clear(g.text[:cap(g.text)])
	g.text = g.text[:0]
	graphPool.Put(g)
}

// scratch is the working set a pass fills and empties: the arena and the
// tables kept beside it. Passes take one from scratchPool and give it back
// cleared, so a cold function pays for the paths it explores and not for
// building these again.
//
// Invariant: nothing that outlives a pass points into its scratch.
// Results hold reports, and a report carries only strings and positions
// (region descriptions are rendered when it is made, traces copied); the
// checker context that does hold the arena and the tables is made per
// pass, and a checker must not retain it past its callback. The passes of
// one call hand the scratch on to each other like any other passes.
type scratch struct {
	arena   *sym.Arena
	decls   map[string]minic.Type // declared types of params/locals/globals
	visited map[visitKey]struct{}
	// localDeclared tracks names declared as locals so uninitialized
	// loads can be flagged.
	localDeclared map[string]bool
	values        map[minic.Expr]sym.Value // the statement value cache pathCtx holds
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{
		arena:         sym.NewArena(),
		decls:         map[string]minic.Type{},
		visited:       map[visitKey]struct{}{},
		localDeclared: map[string]bool{},
		values:        map[minic.Expr]sym.Value{},
	}
}}

// maxPooledEntries bounds the pass a scratch may come back from and
// still be pooled. clear costs O(capacity), and a map keeps the capacity
// of the largest size it reached, so one unusually large pass must not
// tax every later pass that draws its scratch. visited holds at most one
// entry per step, the value cache at most one statement's evaluations,
// the arena one entry per region and symbol. The kernel corpus peaks at
// 12 steps, 25 evaluations and 16 arena entries: 256 covers its largest
// function many times over, and a pass cut at the evaluator's first
// cancellation check (evalCheckInterval). A map grown to 256 entries
// clears in ≈ 0.7 µs (4 µs at 1024; Go 1.24, 2-core Xeon), under a tenth
// of a median cold function.
const maxPooledEntries = 256

// release clears the scratch and returns it to the pool, or drops it when
// the pass that used it (evals expression evaluations) outgrew
// maxPooledEntries.
func (sc *scratch) release(evals int) {
	if len(sc.visited) > maxPooledEntries || len(sc.decls) > maxPooledEntries ||
		sc.arena.Size() > maxPooledEntries || evals > maxPooledEntries {
		return
	}
	sc.arena.Reset()
	clear(sc.decls)
	clear(sc.visited)
	clear(sc.localDeclared)
	clear(sc.values)
	scratchPool.Put(sc)
}

// cancelAbort is the panic sentinel the evaluator throws when
// Options.Ctx is canceled in the middle of a block, unwinding straight
// out of an arbitrarily deep expression walk. It is recovered in
// explore, never escapes the package, and must not be confused with a
// checker crash.
type cancelAbort struct{}

// visitKey identifies an exploded node: the block and the state's
// fingerprint.
type visitKey struct {
	block int32
	fp    sym.Fingerprint
}

// exec is one pass: the analysis of one function for one checker, with
// the machinery shared across all its paths.
type exec struct {
	*scratch
	file    *minic.File
	fn      *minic.FuncDecl
	graph   *graph
	opts    Options
	ck      checker.Checker // the pass's; nil fires no callback
	ctx     *checker.Context
	res     *Result
	reports map[string]struct{} // keys of res.Reports
	pc      pathCtx             // the frame being executed
	// done is the caller's cancellation signal (nil = none).
	done <-chan struct{}
	// evals counts expression evaluations; every evalCheckInterval of
	// them done is re-checked, so even one enormous block — which the
	// frame-level check in run() only sees at entry — stops soon after
	// its caller gives up.
	evals int
}

func newExec(file *minic.File, fn *minic.FuncDecl, graph *graph, opts Options, ck checker.Checker, res *Result) *exec {
	ex := &exec{
		scratch: scratchPool.Get().(*scratch),
		file:    file,
		fn:      fn,
		graph:   graph,
		opts:    opts,
		ck:      ck,
		res:     res,
	}
	ex.pc.values = ex.values
	if opts.Ctx != nil {
		ex.done = opts.Ctx.Done()
	}
	ex.ctx = checker.NewContext(ex.arena, nil, nil, nil, fn.Name, file.Name, minic.Pos{}, ex.decls, ex.addReport)
	return ex
}

// explore runs the pass to its end and seals its result.
func (ex *exec) explore() {
	res := ex.res
	defer func() {
		switch p := recover().(type) {
		case nil:
		case cancelAbort:
			// The caller's context was canceled mid-block (client
			// disconnect, shutdown): truncated exactly like a
			// frame-level cancel, and equally uncacheable.
			res.Truncated, res.Canceled = true, true
		default:
			// The pass's checker crashed: the analysis ends here, with
			// the reports it made so far.
			re := RuntimeErr{Func: ex.fn.Name, Panic: fmt.Sprint(p)}
			if ex.ck != nil {
				re.Checker = ex.ck.Name()
			}
			res.RuntimeErrs = append(res.RuntimeErrs, re)
		}
		// One stable sort on exit orders the reports as a stable sort
		// after every emission would have.
		sortReports(res.Reports)
	}()
	res.Truncated, res.Canceled = ex.run()
}

// frame is one pending exploded node: a CFG block (its index) to execute
// with an incoming state. A frame owns its visits slice.
type frame struct {
	block  int32
	state  *sym.State
	visits []int32 // per block ID, how often this path entered it
	trace  []checker.TraceStep
}

// run explores the function and reports how the exploration ended.
func (ex *exec) run() (truncated, canceled bool) {
	init := sym.NewState()
	// Bind parameters to fresh symbols.
	for _, p := range ex.fn.Params {
		r := ex.arena.VarRegion(p.Name, p.Pos)
		s := ex.arena.NewSymbol("param:"+p.Name, p.Pos)
		init = init.BindRegion(r, sym.MakeSym(s))
		if isUnsignedType(p.Type) && !p.Type.IsPointer() {
			init = init.WithRange(s, sym.FullRange.AtLeast(0))
		}
		ex.decls[p.Name] = p.Type
		if p.Type.IsArray() {
			ex.arena.SetArrayLen(r, p.Type.ArrayLen)
		}
	}
	for _, g := range ex.file.Globals {
		ex.decls[g.Name] = g.Type
	}
	g := ex.graph
	stack := []frame{{block: 0, state: init, visits: make([]int32, len(g.Blocks))}}
	for len(stack) > 0 {
		ex.res.Steps++
		if ex.res.Steps > ex.opts.MaxSteps || ex.res.Paths >= ex.opts.MaxPaths {
			return true, false
		}
		// The cancellation check is amortized over 16 steps so paths do
		// not pay a channel poll per frame.
		if ex.res.Steps&15 == 1 && ex.canceled() {
			return true, true
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		f.visits[f.block]++
		if int(f.visits[f.block]) > ex.opts.MaxBlockVisits {
			continue // loop bound reached; abandon path
		}
		if ex.seen(&f) {
			continue // already explored this block with this state
		}

		pc := &ex.pc
		pc.state, pc.trace = f.state, f.trace
		for _, s := range g.BlockStmts(f.block) {
			clear(pc.values)
			ex.execStmt(pc, s)
		}
		switch t := &g.Blocks[f.block].Term; t.Kind {
		case cfg.Return:
			clear(pc.values)
			var rv sym.Value
			x := g.Expr(t)
			if x != nil {
				rv = ex.evalExpr(pc, x)
			}
			if ec, ok := ex.ck.(checker.EndFunctionChecker); ok {
				ev := &checker.ReturnEvent{Expr: x, Value: rv, Pos: t.Pos}
				ex.fire(pc, t.Pos, func(c *checker.Context) { ec.CheckEndFunction(ev, c) })
			}
			ex.res.Paths++
		case cfg.Jump:
			stack = append(stack, frame{block: t.Succ[0], state: pc.state, visits: f.visits, trace: pc.trace})
		case cfg.Branch:
			cond := g.Expr(t)
			clear(pc.values)
			ex.evalExpr(pc, cond) // populate value cache (with side effects once)
			if bc, ok := ex.ck.(checker.BranchChecker); ok {
				ex.fire(pc, t.Pos, func(c *checker.Context) { bc.CheckBranchCondition(cond, c) })
			}
			// Both arms are computed before either is pushed: the first to
			// be pushed gets a copy of the visits a frame owns, the second
			// inherits this frame's.
			no, yes := ex.assume(pc, cond, false), ex.assume(pc, cond, true)
			if no != nil {
				tr := appendTrace(ex.opts, pc.trace, checker.TraceStep{Pos: t.Pos, Note: g.note(t, false)})
				visits := f.visits
				if yes != nil {
					visits = append([]int32(nil), visits...)
				}
				stack = append(stack, frame{block: t.Succ[1], state: no, visits: visits, trace: tr})
			} else {
				ex.res.Paths++
			}
			if yes != nil {
				tr := appendTrace(ex.opts, pc.trace, checker.TraceStep{Pos: t.Pos, Note: g.note(t, true)})
				stack = append(stack, frame{block: t.Succ[0], state: yes, visits: f.visits, trace: tr})
			} else {
				ex.res.Paths++
			}
		}
	}
	return false, false
}

// seen reports whether the pass has already explored f's block with f's
// state, recording the visit if not.
func (ex *exec) seen(f *frame) bool {
	vk := visitKey{block: f.block, fp: f.state.Fingerprint()}
	if _, ok := ex.visited[vk]; ok {
		return true
	}
	ex.visited[vk] = struct{}{}
	return false
}

// canceled reports (non-blockingly) whether the caller's context is done.
func (ex *exec) canceled() bool {
	if ex.done == nil {
		return false
	}
	select {
	case <-ex.done:
		return true
	default:
		return false
	}
}

// appendTrace appends without sharing backing arrays between paths.
func appendTrace(opts Options, trace []checker.TraceStep, step checker.TraceStep) []checker.TraceStep {
	if len(trace) >= opts.MaxTrace {
		return trace
	}
	out := make([]checker.TraceStep, len(trace), len(trace)+1)
	copy(out, trace)
	return append(out, step)
}

// pathCtx is the mutable evaluation context for one block execution on
// one path: the state and the current statement's value cache.
type pathCtx struct {
	state  *sym.State
	values map[minic.Expr]sym.Value
	trace  []checker.TraceStep
}

// fire runs one callback of the pass's checker on the event at pos, on
// the path's state, and takes up the state the callback leaves.
func (ex *exec) fire(pc *pathCtx, pos minic.Pos, callback func(*checker.Context)) {
	ex.ctx.Rebind(pc.state, pc.values, pc.trace, pos)
	callback(ex.ctx)
	pc.state = ex.ctx.State()
}

// addReport is the pass's report sink: one report per checker and site.
func (ex *exec) addReport(rep *checker.Report) {
	k := rep.Key()
	if _, dup := ex.reports[k]; dup {
		return
	}
	if ex.reports == nil {
		ex.reports = map[string]struct{}{}
	}
	ex.reports[k] = struct{}{}
	ex.res.Reports = append(ex.res.Reports, rep)
}

// execStmt executes one simple statement on the current path.
func (ex *exec) execStmt(pc *pathCtx, s minic.Stmt) {
	switch st := s.(type) {
	case *minic.DeclStmt:
		r := ex.arena.VarRegion(st.Name, st.Pos)
		ex.decls[st.Name] = st.Type
		ex.localDeclared[st.Name] = true
		if st.Type.IsArray() {
			ex.arena.SetArrayLen(r, st.Type.ArrayLen)
		}
		if dc, ok := ex.ck.(checker.DeclChecker); ok {
			ex.fire(pc, st.Pos, func(c *checker.Context) { dc.CheckDecl(st, r, c) })
		}
		if st.Init != nil {
			v := ex.evalExpr(pc, st.Init)
			if bc, ok := ex.ck.(checker.BindChecker); ok {
				ev := &checker.BindEvent{Region: r, Value: v, IsInit: true, RHS: st.Init, Pos: st.Pos}
				ex.fire(pc, st.Pos, func(c *checker.Context) { bc.CheckBind(ev, c) })
			}
			pc.state = pc.state.BindRegion(r, v)
		}
	case *minic.ExprStmt:
		ex.evalExpr(pc, st.X)
	default:
		// cfg lowering leaves only Decl/Expr statements in blocks.
	}
}
