package ckdsl

import (
	"slices"
	"strings"
	"sync"

	"knighter/internal/cfg"
	"knighter/internal/minic"
)

// quietRule proves a spec quiet on functions that call its callees, with
// one pass over the function's CFG (QuietOn). Two spec shapes have one:
//
//   - Rule A, call after call: every sink is 'call … freed|locked|
//     unterminated' and every source a call source that is no 'yields'.
//     Such a sink reads a fact that only a 'frees', 'writes' or 'locks'
//     source sets, in CheckPostCall, and reads it in CheckPreCall, before
//     the same call's CheckPostCall. So the spec can report only where a
//     sink's callee is called strictly after a setter's in evaluation
//     order (callAfterCall).
//   - Rule B, may still hold: every source is 'yields alloc' and every
//     sink 'end-of-function holding alloc'. The sink reports an
//     allocation still held, and not known NULL, at a return; the pass
//     proves none can be (mayStillHold).
//
// Guards of any kind may ride along: none reports, and the only one that
// can panic, 'call … releases arg N', reads its argument strictly like
// the sources and sinks do, which QuietOn checks on the footprint
// (strict).
type quietRule struct {
	afterCall bool // Rule A; Rule B otherwise
	// setters and sinks are Rule A's callees: those of the sources that
	// set a fact a sink reads, and those of the sinks.
	setters, sinks []string
	// allocs are Rule B's callees: those of the 'yields alloc' sources.
	allocs []string
	// strict are the calls the spec's callbacks index the arguments of
	// without a bounds check: reading one a call lacks panics.
	strict []calleeArg
	// key names what the verdict depends on besides the function: the
	// rule and its callee sets. It is built once, as an interface value,
	// so that memo hits allocate nothing.
	key any
}

type calleeArg struct {
	callee string
	arg    int
}

// newQuietRule returns spec's rule, or nil when it has neither shape.
func newQuietRule(spec *Spec) *quietRule {
	a, b := len(spec.Sinks) > 0, len(spec.Sinks) > 0
	r := &quietRule{}
	for _, src := range spec.Sources {
		switch src.Kind {
		case SrcCallFrees, SrcCallWrites, SrcCallLocks:
			r.setters = append(r.setters, src.Callee)
			b = false
		case SrcCallUnlocks, SrcCallDerives:
			b = false
		case SrcCallYields:
			a = false
			b = b && src.Yields == "alloc"
			r.allocs = append(r.allocs, src.Callee)
		default:
			a, b = false, false
		}
		switch src.Kind {
		case SrcCallFrees, SrcCallLocks, SrcCallUnlocks, SrcCallDerives:
			r.strict = append(r.strict, calleeArg{src.Callee, src.Arg})
		}
	}
	for _, g := range spec.Guards {
		if g.Kind == GuardCallReleases {
			r.strict = append(r.strict, calleeArg{g.Callee, g.Arg})
		}
	}
	for _, sk := range spec.Sinks {
		switch sk.Kind {
		case SinkCallArgFreed, SinkCallArgLocked, SinkCallArgUnterminated:
			r.sinks = append(r.sinks, sk.Callee)
			b = false
		case SinkEndHeld:
			a = false
			b = b && sk.Holding == "alloc"
		default:
			a, b = false, false
		}
		switch sk.Kind {
		case SinkCallArgFreed, SinkCallArgLocked, SinkCallArgNegative, SinkMulOverflow:
			r.strict = append(r.strict, calleeArg{sk.Callee, sk.Arg})
		case SinkCopyOverflow:
			r.strict = append(r.strict, calleeArg{sk.Callee, sk.SizeArg})
		}
	}
	switch {
	case a:
		r.afterCall = true
		r.setters, r.sinks = sortedSet(r.setters), sortedSet(r.sinks)
		r.key = "A\x00" + strings.Join(r.setters, ",") + "\x00" + strings.Join(r.sinks, ",")
	case b:
		r.allocs = sortedSet(r.allocs)
		r.key = "B\x00" + strings.Join(r.allocs, ",")
	default:
		return nil
	}
	return r
}

func sortedSet(s []string) []string {
	slices.Sort(s)
	return slices.Compact(s)
}

// quietOn decides the rule on the function of fp, memoized on fp.
func (r *quietRule) quietOn(fp *minic.Footprint) bool {
	for _, s := range r.strict {
		if fp.ShortCall(s.callee, s.arg) {
			return false
		}
	}
	if v, ok := fp.Verdict(r.key); ok {
		return v
	}
	v := r.why(fp.Func()) == ""
	fp.SetVerdict(r.key, v)
	return v
}

// why returns why the rule cannot call fn quiet, or "" when it can.
func (r *quietRule) why(fn *minic.FuncDecl) string {
	if fn == nil {
		return loudUnmodeled // a footprint made of no function
	}
	fl := flowPool.Get().(*flow)
	defer fl.release()
	if !fl.build(fn) {
		return loudUnmodeled
	}
	if r.afterCall {
		if fl.callAfterCall(r.setters, r.sinks) {
			return loudCallAfterCall
		}
		return ""
	}
	return fl.mayStillHold(fn, r.allocs)
}

// Why the pass gives up: each makes the spec loud.
const (
	loudUnmodeled     = "construct not modeled"
	loudCallAfterCall = "sink call reachable after a setter call"
	loudHeldAtReturn  = "allocation may be held at a return"
	loudUnbound       = "allocation neither bound to a variable nor released"
	loudRealloc       = "allocation site reached again while still held"
	loudOverwritten   = "only holder of a held allocation overwritten"
	loudAddress       = "address of a holder taken"
	loudDeclared      = "local declared twice or shadowing a parameter"
	loudUndeclared    = "holder used where its declaration may not have run"
	loudBudget        = "too large or too many iterations"
)

// opKind is what one event of the evaluator does.
type opKind uint8

const (
	opCall opKind = iota // a call event, its arguments' events before it
	opDecl               // a declaration starts: its name is a local from here on
	opBind               // a plain store of rhs into lhs, or into decl's variable
	opStep               // lhs gets a value computed from its own: ++, --, +=, ...
	opAddr               // &lhs
	opEnd                // a statement ends
)

// op is one event of a block, in the order engine/eval.go produces it.
type op struct {
	kind     opKind
	call     *minic.CallExpr
	lhs, rhs minic.Expr
	decl     *minic.DeclStmt
	site     int32 // Rule B: the allocation site an opCall is, or -1
}

// flow is the pass's working set: the function's CFG and each block's
// events. Passes draw one from flowPool and give it back.
type flow struct {
	g    cfg.Graph
	ops  []op
	at   []int32 // block b's events are ops[at[b]:at[b+1]]
	term []int32 // ... of which those from term[b] on are its terminator's
	ok   bool    // build met nothing it does not model

	reach []bool // Rule A

	// Rule B.
	names        []string // the function's variables, by index
	local        uint64   // the variables a DeclStmt declares
	sites        []*minic.CallExpr
	in           []holdState // per block, its entry state once seen
	seen, queued []bool
	vars         []int32 // backing store of every holdState's vars
	work         []int32
	// Across the whole pass: variables that ever hold a site, whose
	// address is taken, and that are used where their declaration may not
	// have run.
	everHeld, addr, loose uint64
	pending               uint64 // sites allocated in this statement and not yet consumed
}

var flowPool = sync.Pool{New: func() any { return new(flow) }}

// release gives fl back to flowPool holding no syntax, or drops one that
// served an unusually large function.
func (fl *flow) release() {
	if cap(fl.ops) > 4096 || cap(fl.g.Blocks) > 4096 {
		return
	}
	fl.g.Reset()
	clear(fl.ops[:cap(fl.ops)])
	clear(fl.sites[:cap(fl.sites)])
	clear(fl.names[:cap(fl.names)])
	fl.ops, fl.sites, fl.names = fl.ops[:0], fl.sites[:0], fl.names[:0]
	flowPool.Put(fl)
}

// build lowers fn and lists every block's events.
func (fl *flow) build(fn *minic.FuncDecl) bool {
	if fl.g.Lower(fn) != nil {
		return false
	}
	fl.ops, fl.at, fl.term, fl.ok = fl.ops[:0], fl.at[:0], fl.term[:0], true
	for b := range fl.g.Blocks {
		fl.at = append(fl.at, int32(len(fl.ops)))
		for _, s := range fl.g.BlockStmts(int32(b)) {
			switch st := s.(type) {
			case *minic.DeclStmt:
				fl.emit(op{kind: opDecl, decl: st})
				if st.Init != nil {
					fl.expr(st.Init)
					fl.emit(op{kind: opBind, decl: st, rhs: st.Init})
				}
			case *minic.ExprStmt:
				fl.expr(st.X)
			default:
				return false
			}
			fl.emit(op{kind: opEnd})
		}
		fl.term = append(fl.term, int32(len(fl.ops)))
		if x := fl.g.Expr(&fl.g.Blocks[b].Term); x != nil {
			fl.expr(x)
		}
	}
	fl.at = append(fl.at, int32(len(fl.ops)))
	return fl.ok
}

func (fl *flow) emit(o op) {
	o.site = -1
	fl.ops = append(fl.ops, o)
}

// annotation reports whether call is a one-argument likely or unlikely,
// which the evaluator unwraps without a call event.
func annotation(call *minic.CallExpr) bool {
	return (call.Fun == "likely" || call.Fun == "unlikely") && len(call.Args) == 1
}

// expr lists e's events as evalExprUncached produces them: operands
// before their operator, a call's arguments before it, a store's
// right-hand side before its left, every operand of ?:, && and ||, none
// inside sizeof.
func (fl *flow) expr(e minic.Expr) {
	switch x := e.(type) {
	case *minic.IntLit, *minic.CharLit, *minic.StrLit, *minic.Ident, *minic.SizeofExpr:
	case *minic.ParenExpr:
		fl.expr(x.X)
	case *minic.CastExpr:
		fl.expr(x.X)
	case *minic.UnaryExpr:
		switch x.Op {
		case minic.Amp:
			if fl.lvalue(x.X) {
				fl.emit(op{kind: opAddr, lhs: x.X})
			}
		case minic.Inc, minic.Dec:
			if fl.lvalue(x.X) {
				fl.emit(op{kind: opStep, lhs: x.X})
			}
		default:
			fl.expr(x.X)
		}
	case *minic.PostfixExpr:
		if fl.lvalue(x.X) {
			fl.emit(op{kind: opStep, lhs: x.X})
		}
	case *minic.BinaryExpr:
		fl.expr(x.X)
		fl.expr(x.Y)
	case *minic.AssignExpr:
		fl.expr(x.RHS)
		if fl.lvalue(x.LHS) {
			if x.Op == minic.Assign {
				fl.emit(op{kind: opBind, lhs: x.LHS, rhs: x.RHS})
			} else {
				fl.emit(op{kind: opStep, lhs: x.LHS})
			}
		}
	case *minic.CondExpr:
		fl.expr(x.Cond)
		fl.expr(x.Then)
		fl.expr(x.Else)
	case *minic.CallExpr:
		if annotation(x) {
			fl.expr(x.Args[0])
			return
		}
		for _, a := range x.Args {
			fl.expr(a)
		}
		fl.emit(op{kind: opCall, call: x})
	case *minic.MemberExpr:
		fl.member(x)
	case *minic.IndexExpr:
		fl.expr(x.Idx)
		fl.expr(x.X)
	default:
		fl.ok = false
	}
}

// member lists the events of resolving x's field region (memberRegion).
func (fl *flow) member(x *minic.MemberExpr) {
	if x.Arrow || !fl.lvalue(x.X) {
		fl.expr(x.X)
	}
}

// lvalue lists the events of resolving e as a store target and reports
// whether it is one (lvalueRegion); a non-lvalue produces no events.
func (fl *flow) lvalue(e minic.Expr) bool {
	switch x := minic.Unparen(e).(type) {
	case *minic.Ident:
		return true
	case *minic.MemberExpr:
		fl.member(x)
		return true
	case *minic.IndexExpr:
		fl.expr(x.Idx)
		fl.expr(x.X)
		return true
	case *minic.UnaryExpr:
		if x.Op == minic.Star {
			fl.expr(x.X)
			return true
		}
	case *minic.CastExpr:
		return fl.lvalue(x.X)
	}
	return false
}

// callAfterCall reports whether a call of a sink can follow a call of a
// setter: later in the setter's block, or anywhere reachable from the
// block's successors, the block itself included when it is on a cycle.
func (fl *flow) callAfterCall(setters, sinks []string) bool {
	n := len(fl.g.Blocks)
	fl.reach = append(fl.reach[:0], make([]bool, n)...)
	reach := fl.reach // a sink call in the block or reachable from it
	for b := range n {
		for _, o := range fl.ops[fl.at[b]:fl.at[b+1]] {
			if o.kind == opCall && slices.Contains(sinks, o.call.Fun) {
				reach[b] = true
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for b := n - 1; b >= 0; b-- {
			if reach[b] {
				continue
			}
			for _, s := range fl.g.Blocks[b].Term.Succs() {
				if reach[s] {
					reach[b], changed = true, true
					break
				}
			}
		}
	}
	for b := range n {
		setter := false
		for _, o := range fl.ops[fl.at[b]:fl.at[b+1]] {
			if o.kind != opCall {
				continue
			}
			if setter && slices.Contains(sinks, o.call.Fun) {
				return true
			}
			setter = setter || slices.Contains(setters, o.call.Fun)
		}
		if setter {
			for _, s := range fl.g.Blocks[b].Term.Succs() {
				if reach[s] {
					return true
				}
			}
		}
	}
	return false
}

// Rule B's abstract values of a variable: the site it holds (≥ 0), none,
// or top (unknown).
const (
	none int32 = -1
	top  int32 = -2
)

// holdState is Rule B's state at a program point: the sites whose
// latest allocation may still be held, the locals declared on every path
// here, and what each variable holds.
type holdState struct {
	held, declared uint64
	vars           []int32
}

// bit is i's bit in a set of sites or variables; 0 for an i outside
// 0..63.
func bit(i int32) uint64 { return 1 << uint(i) }

// mayStillHold runs Rule B over fn's events, allocs being the callees
// that yield an allocation. It returns why an allocation may be held at
// a return, or "" when none can.
func (fl *flow) mayStillHold(fn *minic.FuncDecl, allocs []string) string {
	fl.names, fl.local, fl.sites = fl.names[:0], 0, fl.sites[:0]
	fl.everHeld, fl.addr, fl.loose, fl.pending = 0, 0, 0, 0
	for _, p := range fn.Params {
		fl.intern(p.Name)
	}
	params := len(fl.names)
	for i := range fl.ops {
		o := &fl.ops[i]
		switch {
		case o.kind == opDecl:
			v := fl.intern(o.decl.Name)
			if int(v) < params || fl.local&bit(v) != 0 {
				return loudDeclared
			}
			fl.local |= bit(v)
		case o.kind == opCall && slices.Contains(allocs, o.call.Fun):
			if len(fl.sites) == 64 {
				return loudBudget
			}
			o.site = int32(len(fl.sites))
			fl.sites = append(fl.sites, o.call)
		}
	}
	minic.WalkExprs(fn.Body, func(e minic.Expr) {
		if id, ok := e.(*minic.Ident); ok {
			fl.intern(id.Name)
		}
	})
	if len(fl.names) > 64 {
		return loudBudget
	}

	n, nv := len(fl.g.Blocks), len(fl.names)
	fl.in = append(fl.in[:0], make([]holdState, n)...)
	fl.seen = append(fl.seen[:0], make([]bool, n)...)
	fl.queued = append(fl.queued[:0], make([]bool, n)...)
	fl.vars = append(fl.vars[:0], make([]int32, (n+1)*nv)...)
	for b := range fl.in {
		fl.in[b].vars = fl.vars[b*nv : (b+1)*nv]
	}
	cur := holdState{vars: fl.vars[n*nv:]}
	entry := &fl.in[0]
	for i := range entry.vars {
		entry.vars[i] = none
	}
	fl.seen[0], fl.queued[0], fl.work = true, true, append(fl.work[:0], 0)
	for budget := 64 * (n + 4); len(fl.work) > 0; budget-- {
		if budget == 0 {
			return loudBudget
		}
		b := fl.work[len(fl.work)-1]
		fl.work, fl.queued[b] = fl.work[:len(fl.work)-1], false
		cur.held, cur.declared = fl.in[b].held, fl.in[b].declared
		copy(cur.vars, fl.in[b].vars)
		pure := true
		for i, o := range fl.ops[fl.at[b]:fl.at[b+1]] {
			if why := fl.step(&cur, &o); why != "" {
				return why
			}
			if int32(i) >= fl.term[b]-fl.at[b] && (o.kind == opBind || o.kind == opStep) {
				pure = false
			}
		}
		t := &fl.g.Blocks[b].Term
		if t.Kind == cfg.Return {
			if x := fl.g.Expr(t); x != nil {
				fl.consume(&cur, x)
			}
		}
		if fl.pending != 0 {
			return loudUnbound
		}
		switch t.Kind {
		case cfg.Return:
			if cur.held != 0 {
				return loudHeldAtReturn
			}
		case cfg.Jump:
			fl.join(t.Succ[0], &cur, 0)
		case cfg.Branch:
			cond := fl.g.Expr(t)
			for k, yes := range [2]bool{true, false} {
				var drop uint64
				if pure {
					drop = fl.nulls(&cur, cond, yes)
				}
				fl.join(t.Succ[k], &cur, drop)
			}
		}
	}
	if held := fl.everHeld; held&fl.addr != 0 {
		return loudAddress
	} else if held&fl.loose != 0 {
		return loudUndeclared
	}
	return ""
}

// intern returns name's variable index, adding it if new; a named
// constant is no variable, and gets -1. Past 64 variables, whose bits
// are 0, mayStillHold gives up once interning is done.
func (fl *flow) intern(name string) int32 {
	if v := fl.varOf(name); v >= 0 {
		return v
	}
	if _, ok := minic.Constant(name); ok {
		return -1
	}
	fl.names = append(fl.names, name)
	return int32(len(fl.names) - 1)
}

func (fl *flow) varOf(name string) int32 {
	return int32(slices.Index(fl.names, name))
}

// step applies one event to st, or returns why the pass gives up.
func (fl *flow) step(st *holdState, o *op) string {
	switch o.kind {
	case opDecl:
		st.declared |= bit(fl.varOf(o.decl.Name))
	case opBind:
		v, fresh := fl.value(st, o.rhs)
		if o.decl != nil {
			return fl.write(st, fl.varOf(o.decl.Name), v, fresh)
		}
		switch x := stripCasts(o.lhs).(type) {
		case *minic.Ident:
			i := fl.varOf(x.Name)
			if i < 0 {
				return loudUnmodeled // a store to a named constant
			}
			return fl.write(st, i, v, fresh)
		case *minic.MemberExpr, *minic.IndexExpr:
			// A field, element or global is no variable region: the
			// store publishes the allocation (CheckBind's escape).
			if v >= 0 {
				st.held &^= bit(v)
				fl.pending &^= bit(v)
			}
		}
		// A store through *p may land in a variable or anywhere else: it
		// releases nothing, and leaves a fresh allocation unconsumed.
	case opStep:
		if id, ok := stripCasts(o.lhs).(*minic.Ident); ok {
			if i := fl.varOf(id.Name); i >= 0 {
				return fl.write(st, i, none, false)
			}
		}
	case opAddr:
		if id, ok := stripCasts(o.lhs).(*minic.Ident); ok {
			if i := fl.varOf(id.Name); i >= 0 {
				fl.addr |= bit(i)
			}
		}
	case opCall:
		if s := o.site; s >= 0 {
			// An allocation source releases none of its arguments.
			if st.held&bit(s) != 0 {
				return loudRealloc
			}
			for i, v := range st.vars {
				if v == s {
					st.vars[i] = none // the site's earlier allocation, gone
				}
			}
			st.held |= bit(s)
			fl.pending |= bit(s)
			return ""
		}
		// Any other call releases every allocation passed to it
		// (CheckPostCall's escape).
		for _, a := range o.call.Args {
			fl.consume(st, a)
		}
	case opEnd:
		if fl.pending != 0 {
			return loudUnbound
		}
	}
	return ""
}

// consume releases the allocation e evaluates to, if the pass knows it.
func (fl *flow) consume(st *holdState, e minic.Expr) {
	if v, _ := fl.value(st, e); v >= 0 {
		st.held &^= bit(v)
		fl.pending &^= bit(v)
	}
}

// value returns what e evaluates to, after parentheses, casts and
// annotations: the site a variable holds, or a site's fresh allocation
// (fresh), or none.
func (fl *flow) value(st *holdState, e minic.Expr) (v int32, fresh bool) {
	switch x := strip(e).(type) {
	case *minic.Ident:
		if i := fl.varOf(x.Name); i >= 0 {
			fl.use(st, i)
			return st.vars[i], false
		}
	case *minic.CallExpr:
		if s := slices.Index(fl.sites, x); s >= 0 {
			return int32(s), true
		}
	}
	return none, false
}

// write stores v in variable i. A fresh allocation is consumed by it.
func (fl *flow) write(st *holdState, i int32, v int32, fresh bool) string {
	fl.use(st, i)
	if fresh {
		fl.pending &^= bit(v)
	}
	if old := st.vars[i]; old != v && fl.onlyHolder(st, i, old, v) {
		return loudOverwritten
	}
	if v != none {
		fl.everHeld |= bit(i)
	}
	st.vars[i] = v
	return ""
}

// onlyHolder reports whether variable i, holding old, may be all that
// holds a site still held other than v, which it is about to hold. Such a
// site can no longer be released: the pass gives up at once instead of
// at the return it reaches.
func (fl *flow) onlyHolder(st *holdState, i, old, v int32) bool {
	for s := int32(0); s < int32(len(fl.sites)); s++ {
		if st.held&bit(s) == 0 || s == v || old != top && old != s {
			continue
		}
		held := false
		for j, w := range st.vars {
			held = held || w == s && int32(j) != i
		}
		if !held {
			return true
		}
	}
	return false
}

// use notes a use of variable i: a local used where its declaration may
// not have run names another region than its declared one.
func (fl *flow) use(st *holdState, i int32) {
	if fl.local&bit(i) != 0 && st.declared&bit(i) == 0 {
		fl.loose |= bit(i)
	}
}

// join merges st into block b's entry state, with the sites in drop
// known NULL on the edge, and queues b when that changes it.
func (fl *flow) join(b int32, st *holdState, drop uint64) {
	in := &fl.in[b]
	held := st.held &^ drop
	if !fl.seen[b] {
		fl.seen[b] = true
		in.held, in.declared = held, st.declared
		copy(in.vars, st.vars)
	} else {
		changed := in.held|held != in.held || in.declared&st.declared != in.declared
		in.held |= held
		in.declared &= st.declared
		for i, v := range st.vars {
			if in.vars[i] != v && in.vars[i] != top {
				in.vars[i], changed = top, true
			}
		}
		if !changed {
			return
		}
	}
	if !fl.queued[b] {
		fl.queued[b] = true
		fl.work = append(fl.work, b)
	}
}

// nulls returns the sites that branch taken on cond makes known NULL, as
// assumeIn refines them: a variable holding the site tested by !p, p,
// p == NULL or p != NULL, through likely/unlikely, && and ||.
func (fl *flow) nulls(st *holdState, cond minic.Expr, branch bool) uint64 {
	switch x := minic.UnwrapCalls(cond, "unlikely", "likely").(type) {
	case *minic.UnaryExpr:
		if x.Op == minic.Bang {
			return fl.nulls(st, x.X, !branch)
		}
		return 0
	case *minic.BinaryExpr:
		switch x.Op {
		case minic.AmpAmp:
			if branch {
				return fl.nulls(st, x.X, true) | fl.nulls(st, x.Y, true)
			}
		case minic.PipePipe:
			if !branch {
				return fl.nulls(st, x.X, false) | fl.nulls(st, x.Y, false)
			}
		case minic.EqEq, minic.NotEq:
			if (x.Op == minic.EqEq) != branch {
				return 0
			}
			if nullConst(x.Y) {
				return fl.nullVar(st, x.X)
			}
			if nullConst(x.X) {
				return fl.nullVar(st, x.Y)
			}
		}
		return 0
	default:
		if !branch {
			return fl.nullVar(st, x)
		}
		return 0
	}
}

// nullVar returns the site of the variable e is, if it holds one. (A
// fresh allocation in a condition has already made the pass give up.)
func (fl *flow) nullVar(st *holdState, e minic.Expr) uint64 {
	if v, _ := fl.value(st, e); v >= 0 {
		return bit(v)
	}
	return 0
}

// nullConst reports whether e is the constant 0: 0, NULL or false.
func nullConst(e minic.Expr) bool {
	switch x := stripCasts(e).(type) {
	case *minic.IntLit:
		return x.Val == 0
	case *minic.Ident:
		c, ok := minic.Constant(x.Name)
		return ok && c == 0
	}
	return false
}

// stripCasts strips parentheses and casts, which evaluate to their
// operand's value and resolve to its region.
func stripCasts(e minic.Expr) minic.Expr {
	for {
		switch x := e.(type) {
		case *minic.ParenExpr:
			e = x.X
		case *minic.CastExpr:
			e = x.X
		default:
			return e
		}
	}
}

// strip is stripCasts that also sees through annotations.
func strip(e minic.Expr) minic.Expr {
	for {
		e = stripCasts(e)
		c, ok := e.(*minic.CallExpr)
		if !ok || !annotation(c) {
			return e
		}
		e = c.Args[0]
	}
}
