// Package smatch implements the expert-written baseline analyzer for the
// RQ3 orthogonality comparison (§5.3).
//
// Like the real Smatch, it is a rule-based, largely flow-insensitive
// analyzer with generic checks (unchecked pointer parameters, naive
// uninitialized reads, stack-frame size, ignored return values,
// cross-function deviation analysis). Crucially, it lacks the
// patch-derived domain knowledge KNighter extracts — it does not know
// that devm_kzalloc() can return NULL — so it produces a large volume of
// generic findings that are disjoint from the seeded vulnerabilities.
package smatch

import (
	"fmt"
	"sort"

	"knighter/internal/kernel"
	"knighter/internal/minic"
)

// Severity of a finding.
type Severity string

// Severities.
const (
	Error   Severity = "error"
	Warning Severity = "warn"
)

// Finding is one Smatch report.
type Finding struct {
	File     string
	Func     string
	Line     int
	Severity Severity
	Check    string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d %s() %s: [%s] %s", f.File, f.Line, f.Func, f.Severity, f.Check, f.Message)
}

// Result of a Smatch run.
type Result struct {
	Findings []Finding
}

// Errors counts error-severity findings.
func (r *Result) Errors() int { return r.count(Error) }

// Warnings counts warning-severity findings.
func (r *Result) Warnings() int { return r.count(Warning) }

func (r *Result) count(s Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == s {
			n++
		}
	}
	return n
}

// Run analyzes the whole corpus with every check.
func Run(c *kernel.Corpus) (*Result, error) {
	res := &Result{}
	// Deviation analysis needs corpus-wide call statistics first.
	stats := collectCallStats(c)
	for _, sf := range c.Files {
		f, err := minic.ParseFile(sf.Path, sf.Src)
		if err != nil {
			return nil, err
		}
		for _, fn := range f.Funcs {
			res.Findings = append(res.Findings, checkFunc(sf.Path, fn, stats)...)
		}
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return res, nil
}

// callStats records, per callee, how often its result is used vs dropped
// (the deviation-analysis substrate: "most callers check, you don't").
type callStats struct {
	used    map[string]int
	dropped map[string]int
}

func collectCallStats(c *kernel.Corpus) *callStats {
	st := &callStats{used: map[string]int{}, dropped: map[string]int{}}
	for _, sf := range c.Files {
		f, err := minic.ParseFile(sf.Path, sf.Src)
		if err != nil {
			continue
		}
		for _, fn := range f.Funcs {
			minic.WalkStmts(fn.Body, func(s minic.Stmt) {
				switch x := s.(type) {
				case *minic.ExprStmt:
					if call, ok := x.X.(*minic.CallExpr); ok {
						st.dropped[call.Fun]++
					} else {
						countUsedCalls(x.X, st)
					}
				case *minic.DeclStmt:
					if x.Init != nil {
						countUsedCalls(x.Init, st)
					}
				case *minic.ReturnStmt:
					if x.X != nil {
						countUsedCalls(x.X, st)
					}
				case *minic.IfStmt:
					countUsedCalls(x.Cond, st)
				}
			})
		}
	}
	return st
}

func countUsedCalls(e minic.Expr, st *callStats) {
	switch x := e.(type) {
	case *minic.CallExpr:
		st.used[x.Fun]++
		for _, a := range x.Args {
			countUsedCalls(a, st)
		}
	case *minic.AssignExpr:
		countUsedCalls(x.RHS, st)
	case *minic.BinaryExpr:
		countUsedCalls(x.X, st)
		countUsedCalls(x.Y, st)
	case *minic.UnaryExpr:
		countUsedCalls(x.X, st)
	case *minic.ParenExpr:
		countUsedCalls(x.X, st)
	}
}

func checkFunc(path string, fn *minic.FuncDecl, stats *callStats) []Finding {
	var out []Finding
	out = append(out, checkParamDeref(path, fn)...)
	out = append(out, checkStackFrame(path, fn)...)
	out = append(out, checkIgnoredReturn(path, fn, stats)...)
	out = append(out, checkLinearUninit(path, fn)...)
	out = append(out, checkSignedCompare(path, fn)...)
	return out
}

// checkParamDeref is the analog of Smatch's check_deref with static range
// analysis only: a pointer parameter dereferenced while the function
// never compares it against NULL. It has no allocator domain knowledge,
// so it fires on hardware-driver boilerplate, not on unchecked
// allocation results held in locals.
func checkParamDeref(path string, fn *minic.FuncDecl) []Finding {
	params := map[string]bool{}
	for _, p := range fn.Params {
		if p.Type.IsPointer() {
			params[p.Name] = true
		}
	}
	if len(params) == 0 {
		return nil
	}
	checked := map[string]bool{}
	minic.WalkStmts(fn.Body, func(s minic.Stmt) {
		ifs, ok := s.(*minic.IfStmt)
		if !ok {
			return
		}
		markNullChecked(ifs.Cond, checked)
	})
	// Address computations (&p->field) do not load through the pointer;
	// collect them so they are not counted as dereferences.
	addrOnly := map[minic.Expr]bool{}
	minic.WalkExprs(fn.Body, func(e minic.Expr) {
		if u, ok := e.(*minic.UnaryExpr); ok && u.Op == minic.Amp {
			if m, ok := minic.Unparen(u.X).(*minic.MemberExpr); ok {
				addrOnly[m] = true
			}
		}
	})
	var out []Finding
	seen := map[string]bool{}
	minic.WalkExprs(fn.Body, func(e minic.Expr) {
		m, ok := e.(*minic.MemberExpr)
		if !ok || !m.Arrow || addrOnly[m] {
			return
		}
		id, ok := minic.Unparen(m.X).(*minic.Ident)
		if !ok || !params[id.Name] || checked[id.Name] || seen[id.Name] {
			return
		}
		seen[id.Name] = true
		out = append(out, Finding{
			File: path, Func: fn.Name, Line: m.Pos.Line, Severity: Error,
			Check:   "check_deref",
			Message: fmt.Sprintf("parameter '%s' dereferenced without NULL test", id.Name),
		})
	})
	return out
}

func markNullChecked(cond minic.Expr, checked map[string]bool) {
	switch x := minic.UnwrapCalls(cond, "unlikely", "likely", "WARN_ON").(type) {
	case *minic.UnaryExpr:
		if x.Op == minic.Bang {
			if id, ok := minic.Unparen(x.X).(*minic.Ident); ok {
				checked[id.Name] = true
			}
		}
	case *minic.BinaryExpr:
		if x.Op == minic.EqEq || x.Op == minic.NotEq || x.Op == minic.AmpAmp || x.Op == minic.PipePipe {
			markNullChecked(x.X, checked)
			markNullChecked(x.Y, checked)
		}
	case *minic.Ident:
		checked[x.Name] = true
	}
}

// checkStackFrame flags large on-stack buffers (a classic kernel Smatch
// warning).
func checkStackFrame(path string, fn *minic.FuncDecl) []Finding {
	var out []Finding
	total := 0
	var firstPos minic.Pos
	minic.WalkStmts(fn.Body, func(s minic.Stmt) {
		d, ok := s.(*minic.DeclStmt)
		if !ok || !d.Type.IsArray() {
			return
		}
		sz := d.Type.ArrayLen
		if d.Type.Base == "u32" || d.Type.Base == "int" {
			sz *= 4
		}
		total += sz
		if firstPos.Line == 0 {
			firstPos = d.Pos
		}
	})
	if total > 60 {
		out = append(out, Finding{
			File: path, Func: fn.Name, Line: firstPos.Line, Severity: Warning,
			Check:   "check_stack",
			Message: fmt.Sprintf("function puts %d bytes on the stack", total),
		})
	}
	return out
}

// checkIgnoredReturn flags dropped return values of callees whose result
// is used by the overwhelming majority of other callers (deviation
// analysis in the style of Engler et al.).
func checkIgnoredReturn(path string, fn *minic.FuncDecl, stats *callStats) []Finding {
	var out []Finding
	minic.WalkStmts(fn.Body, func(s minic.Stmt) {
		es, ok := s.(*minic.ExprStmt)
		if !ok {
			return
		}
		call, ok := es.X.(*minic.CallExpr)
		if !ok {
			return
		}
		used, dropped := stats.used[call.Fun], stats.dropped[call.Fun]
		if used >= 8 && used >= 9*dropped {
			out = append(out, Finding{
				File: path, Func: fn.Name, Line: call.Pos.Line, Severity: Error,
				Check:   "unchecked_return",
				Message: fmt.Sprintf("return value of '%s' is usually checked (%d/%d callers)", call.Fun, used, used+dropped),
			})
		}
	})
	return out
}

// checkLinearUninit is a naive, flow-insensitive read-before-write scan:
// it walks statements in textual order and flags a variable read before
// any textual assignment. Control flow is ignored, which is what keeps it
// both noisy and blind to the path-sensitive seeded bugs.
func checkLinearUninit(path string, fn *minic.FuncDecl) []Finding {
	declared := map[string]minic.Pos{}
	assigned := map[string]bool{}
	var out []Finding
	reported := map[string]bool{}
	flag := func(reads map[string]minic.Pos) {
		for name, pos := range reads {
			if _, isLocal := declared[name]; isLocal && !assigned[name] && !reported[name] {
				reported[name] = true
				out = append(out, Finding{
					File: path, Func: fn.Name, Line: pos.Line, Severity: Error,
					Check:   "uninitialized",
					Message: fmt.Sprintf("'%s' read before textual assignment", name),
				})
			}
		}
	}
	minic.WalkStmts(fn.Body, func(s minic.Stmt) {
		switch x := s.(type) {
		case *minic.DeclStmt:
			if x.Init != nil || x.Type.IsArray() {
				assigned[x.Name] = true
			}
			declared[x.Name] = x.Pos
		case *minic.ExprStmt:
			switch ex := x.X.(type) {
			case *minic.AssignExpr:
				reads := map[string]minic.Pos{}
				identReads(ex.RHS, reads)
				flag(reads)
				if id, ok := minic.Unparen(ex.LHS).(*minic.Ident); ok {
					assigned[id.Name] = true
				}
			case *minic.CallExpr:
				// Out-parameters (&x) textually assign; flag plain
				// value reads only, then credit the out-params.
				reads := map[string]minic.Pos{}
				var outParams []string
				for _, a := range ex.Args {
					if u, ok := minic.Unparen(a).(*minic.UnaryExpr); ok && u.Op == minic.Amp {
						if id, ok := minic.Unparen(u.X).(*minic.Ident); ok {
							outParams = append(outParams, id.Name)
							continue
						}
					}
					identReads(a, reads)
				}
				flag(reads)
				for _, name := range outParams {
					assigned[name] = true
				}
			}
		case *minic.ReturnStmt:
			if x.X != nil {
				reads := map[string]minic.Pos{}
				identReads(x.X, reads)
				flag(reads)
			}
		}
	})
	return out
}

func identReads(e minic.Expr, reads map[string]minic.Pos) {
	switch x := e.(type) {
	case *minic.Ident:
		reads[x.Name] = x.Pos
	case *minic.BinaryExpr:
		identReads(x.X, reads)
		identReads(x.Y, reads)
	case *minic.UnaryExpr:
		identReads(x.X, reads)
	case *minic.ParenExpr:
		identReads(x.X, reads)
	case *minic.IndexExpr:
		identReads(x.X, reads)
		identReads(x.Idx, reads)
	case *minic.MemberExpr:
		identReads(x.X, reads)
	}
}

// checkSignedCompare flags int variables compared with '>' against
// sizeof-like large constants (a lint-style volume check).
func checkSignedCompare(path string, fn *minic.FuncDecl) []Finding {
	var out []Finding
	minic.WalkExprs(fn.Body, func(e minic.Expr) {
		b, ok := e.(*minic.BinaryExpr)
		if !ok || b.Op != minic.Gt {
			return
		}
		if lit, ok := minic.Unparen(b.Y).(*minic.IntLit); ok && lit.Val >= 128 {
			out = append(out, Finding{
				File: path, Func: fn.Name, Line: b.Pos.Line, Severity: Warning,
				Check:   "impossible_mask",
				Message: "comparison against large constant may be type-confused on 32-bit",
			})
		}
	})
	return out
}
