// Package checker defines the checker-facing API of the analyzer: the
// callback interfaces checkers implement, the events they receive, the
// context through which they read/update program state, and bug reports.
//
// It mirrors the Clang Static Analyzer checker surface the paper's
// synthesized artifacts program against (checkPostCall, checkBind,
// checkBranchCondition, checkLocation, ... — paper §2.1).
package checker

import (
	"fmt"
	"strconv"

	"knighter/internal/minic"
	"knighter/internal/sym"
)

// Checker is the base interface; concrete behaviour comes from the
// optional callback interfaces below, which the engine discovers by type
// assertion (the analog of CSA's Checker<check::PostCall, ...> template).
type Checker interface {
	// Name identifies the checker in reports (e.g. "knighter.NPDDevmKzalloc").
	Name() string
	// BugType is the headline category for reports from this checker.
	BugType() string
}

// Fingerprinter is implemented by checkers whose behaviour is fully
// determined by a canonical serialization (e.g. a compiled DSL spec).
// The function-level scan scheduler (scan.Incremental) keys every stored
// result by it and requires it of every checker it scans; the uncached
// Codebase.Run does not. Two checkers with equal fingerprints must
// produce identical results on identical input.
type Fingerprinter interface {
	// Fingerprint returns a stable content hash of the checker's
	// semantics.
	Fingerprint() string
}

// Quieter is implemented by checkers that can tell, from a function's
// footprint (and the function it names, minic.Footprint.Func), that they
// stay silent on it. The contract: QuietOn(fp) true means that on every
// path of the function's CFG the checker reports nothing and panics
// nowhere. The scan scheduler supplies the rest: a rider is one checker,
// and before it calls the engine it answers every rider whose checker is
// quiet on the function with no reports and no runtime errors,
// unexplored — all a stored result holds — so the answer cannot time out
// or crash. The engine itself explores every checker it is given.
type Quieter interface {
	QuietOn(fp *minic.Footprint) bool
}

// PostCallChecker runs after a call expression is evaluated.
type PostCallChecker interface {
	CheckPostCall(ev *CallEvent, c *Context)
}

// PreCallChecker runs before a call's effects are applied (arguments are
// already evaluated).
type PreCallChecker interface {
	CheckPreCall(ev *CallEvent, c *Context)
}

// BranchChecker runs on every branch condition before the path splits.
type BranchChecker interface {
	CheckBranchCondition(cond minic.Expr, c *Context)
}

// LocationChecker runs on every memory access (loads and stores).
type LocationChecker interface {
	CheckLocation(ac *Access, c *Context)
}

// BindChecker runs when a value is stored to a region (assignments and
// initializations).
type BindChecker interface {
	CheckBind(bind *BindEvent, c *Context)
}

// DeclChecker runs when a local variable declaration is processed.
type DeclChecker interface {
	CheckDecl(d *minic.DeclStmt, region sym.RegionID, c *Context)
}

// EndFunctionChecker runs when a path reaches a return.
type EndFunctionChecker interface {
	CheckEndFunction(ret *ReturnEvent, c *Context)
}

// CallEvent describes an observed function call.
type CallEvent struct {
	Callee     string
	Expr       *minic.CallExpr
	Args       []sym.Value
	ArgRegions []sym.RegionID // region holding each argument lvalue (NoRegion if not an lvalue)
	// ArgPointees[i] is the region an argument points to: for &x it is
	// x's region; for a pointer-valued symbol it is its symbolic pointee.
	ArgPointees []sym.RegionID
	Ret         sym.Value
	Pos         minic.Pos
}

// ArgExpr returns the i-th argument expression, or nil.
func (ev *CallEvent) ArgExpr(i int) minic.Expr {
	if ev.Expr == nil || i < 0 || i >= len(ev.Expr.Args) {
		return nil
	}
	return ev.Expr.Args[i]
}

// Access describes a memory access (the analog of checkLocation).
type Access struct {
	// PtrValue is the pointer being dereferenced (Unknown for direct
	// variable accesses).
	PtrValue sym.Value
	// Pointee is the region being read or written.
	Pointee sym.RegionID
	IsLoad  bool
	// Direct is true for plain variable reads (no pointer dereference).
	Direct bool
	// FieldName is set for member accesses.
	FieldName string
	// Index and ArrayLen are set for array subscript accesses on
	// fixed-size arrays (ArrayLen 0 otherwise).
	Index    sym.Value
	ArrayLen int
	// UninitLoad marks a load from a declared-but-never-assigned local.
	UninitLoad bool
	Expr       minic.Expr
	Pos        minic.Pos
}

// BindEvent describes a store of a value into a region.
type BindEvent struct {
	Region sym.RegionID
	Value  sym.Value
	// IsInit is true when the bind comes from a declaration initializer.
	IsInit bool
	LHS    minic.Expr // nil for declaration initializers
	RHS    minic.Expr
	Pos    minic.Pos
}

// ReturnEvent describes the end of a path at a return statement.
type ReturnEvent struct {
	Expr  minic.Expr // may be nil
	Value sym.Value
	Pos   minic.Pos
}

// TraceStep is one step of a path trace attached to a report.
type TraceStep struct {
	Pos  minic.Pos
	Note string
}

// Report is a single bug report.
type Report struct {
	Checker  string
	BugType  string
	Message  string
	File     string
	Func     string
	Pos      minic.Pos
	RegionAt string // human-readable region description
	Trace    []TraceStep
}

// Key returns a deduplication key: one report per checker+site.
func (r *Report) Key() string {
	return r.Checker + "|" + r.File + "|" + strconv.Itoa(r.Pos.Line) + ":" + strconv.Itoa(r.Pos.Col)
}

func (r *Report) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s: %s (in %s)",
		r.File, r.Pos.Line, r.Pos.Col, r.Checker, r.BugType, r.Message, r.Func)
}

// Context is handed to every callback. It exposes the current program
// state (immutable; replace via SetState), the region arena, value lookup
// for already-evaluated expressions, and report emission.
type Context struct {
	arena  *sym.Arena
	state  *sym.State
	values map[minic.Expr]sym.Value
	trace  []TraceStep
	fn     string
	file   string
	pos    minic.Pos
	sink   func(*Report)
	// declTypes maps local/param names to their declared types, for
	// sizeof-style queries by checkers.
	declTypes map[string]minic.Type
}

// NewContext is used by the engine (and tests) to construct a context.
func NewContext(arena *sym.Arena, state *sym.State, values map[minic.Expr]sym.Value,
	trace []TraceStep, fn, file string, pos minic.Pos,
	declTypes map[string]minic.Type, sink func(*Report)) *Context {
	return &Context{arena: arena, state: state, values: values, trace: trace,
		fn: fn, file: file, pos: pos, declTypes: declTypes, sink: sink}
}

// Rebind points the context at the next event, so the engine can keep
// one Context per result sink instead of allocating one per callback. A
// checker must not retain its Context past the callback.
func (c *Context) Rebind(state *sym.State, values map[minic.Expr]sym.Value, trace []TraceStep, pos minic.Pos) {
	c.state, c.values, c.trace, c.pos = state, values, trace, pos
}

// Arena returns the region arena.
func (c *Context) Arena() *sym.Arena { return c.arena }

// State returns the current program state.
func (c *Context) State() *sym.State { return c.state }

// SetState replaces the program state; the engine picks up the change
// after the callback returns.
func (c *Context) SetState(s *sym.State) {
	if s != nil {
		c.state = s
	}
}

// ValueOf returns the evaluated value of an expression from the current
// statement's evaluation cache (sub-expressions of the event's expression
// are present).
func (c *Context) ValueOf(e minic.Expr) sym.Value {
	if v, ok := c.values[e]; ok {
		return v
	}
	// Strip wrappers the evaluator normalizes away.
	if v, ok := c.values[minic.Unparen(e)]; ok {
		return v
	}
	return sym.Unknown
}

// DeclType looks up the declared type of a named local or parameter.
func (c *Context) DeclType(name string) (minic.Type, bool) {
	t, ok := c.declTypes[name]
	return t, ok
}

// Describe renders a region path for report messages.
func (c *Context) Describe(r sym.RegionID) string { return c.arena.Describe(r) }

// Trace returns a copy of the current path trace.
func (c *Context) Trace() []TraceStep {
	out := make([]TraceStep, len(c.trace))
	copy(out, c.trace)
	return out
}

// Report emits a bug report at the event position.
func (c *Context) Report(ck Checker, msg string, region sym.RegionID) {
	c.ReportAt(ck, msg, region, c.pos)
}

// ReportAt emits a bug report at an explicit position.
func (c *Context) ReportAt(ck Checker, msg string, region sym.RegionID, pos minic.Pos) {
	r := &Report{
		Checker: ck.Name(),
		BugType: ck.BugType(),
		Message: msg,
		File:    c.file,
		Func:    c.fn,
		Pos:     pos,
		Trace:   c.Trace(),
	}
	if region != sym.NoRegion {
		r.RegionAt = c.arena.Describe(region)
	}
	c.sink(r)
}

// ValueKey returns a state-map key identifying what a pointer value
// refers to: symbols key by symbol id (so aliases created by assignment
// share tracking), locations by region id.
func ValueKey(v sym.Value) (string, bool) {
	switch v.Kind {
	case sym.KindSymbol:
		return sym.SymbolKey(v.Sym), true
	case sym.KindLoc:
		return sym.RegionKey(v.Reg), true
	default:
		return "", false
	}
}
