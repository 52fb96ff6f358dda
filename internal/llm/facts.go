package llm

import (
	"strings"

	"knighter/internal/minic"
	"knighter/internal/patch"
	"knighter/internal/vcs"
)

// DiffFacts is what patch reading extracts: the structural story of the
// fix. It is derived purely from the patch text and the pre-patch source
// (the same inputs the paper's pattern-analysis agent receives), never
// from dataset metadata.
type DiffFacts struct {
	// Kind is the inferred fix shape.
	Kind FixKind
	// Anchor is the API the pattern hangs on (allocator, free function,
	// lock function, producer, ...).
	Anchor string
	// Release is the paired releasing API (kfree for leaks, the unlock
	// function for locks).
	Release string
	// Derive is a secondary API whose result aliases the anchor's object
	// (e.g. netdev_priv for free_netdev).
	Derive string
	// Consumer is the sink API for misuse patterns (sscanf, request_irq).
	Consumer string
	// GuardedVar is the variable the added guard protects.
	GuardedVar string
}

// FixKind classifies the fix shape read out of the diff.
type FixKind int

// Fix shapes.
const (
	FixUnknown FixKind = iota
	FixAddNullCheck
	FixAddBoundBeforeMulAlloc
	FixAddIndexBound
	FixClampUserCopy
	FixFreeOnErrorPath
	FixMoveFreeLater
	FixClearOrDropDupFree
	FixInitCleanupPtr
	FixAddUnlockOnPath
	FixTerminateBuffer
	FixCheckSign
)

var fixKindNames = map[FixKind]string{
	FixUnknown: "unknown", FixAddNullCheck: "add-null-check",
	FixAddBoundBeforeMulAlloc: "bound-before-mul-alloc",
	FixAddIndexBound:          "add-index-bound",
	FixClampUserCopy:          "clamp-user-copy",
	FixFreeOnErrorPath:        "free-on-error-path",
	FixMoveFreeLater:          "move-free-later",
	FixClearOrDropDupFree:     "clear-or-drop-dup-free",
	FixInitCleanupPtr:         "init-cleanup-ptr",
	FixAddUnlockOnPath:        "add-unlock-on-path",
	FixTerminateBuffer:        "terminate-buffer",
	FixCheckSign:              "check-sign",
}

func (k FixKind) String() string { return fixKindNames[k] }

// ClassOf maps a fix shape to the bug-class taxonomy of Table 1.
func (k FixKind) ClassOf() string {
	switch k {
	case FixAddNullCheck:
		return "NPD"
	case FixAddBoundBeforeMulAlloc:
		return "Integer-Overflow"
	case FixAddIndexBound:
		return "Out-of-Bound"
	case FixClampUserCopy:
		return "Buffer-Overflow"
	case FixFreeOnErrorPath:
		return "Memory-Leak"
	case FixMoveFreeLater:
		return "Use-After-Free"
	case FixClearOrDropDupFree:
		return "Double-Free"
	case FixInitCleanupPtr:
		return "UBI"
	case FixAddUnlockOnPath:
		return "Concurrency"
	case FixTerminateBuffer, FixCheckSign:
		return "Misuse"
	}
	return "Unknown"
}

// unlockToLock maps an unlock API to its acquiring API.
var unlockToLock = map[string]string{
	"spin_unlock":            "spin_lock",
	"spin_unlock_irqrestore": "spin_lock_irqsave",
	"mutex_unlock":           "mutex_lock",
	"read_unlock":            "read_lock",
	"write_unlock":           "write_lock",
}

// freeLikeCalls are APIs that release an object, in a fixed scan order
// (longest names first so e.g. "kvfree" is never mistaken for "vfree").
var freeLikeCalls = []string{
	"x509_free_certificate", "crypto_free_shash", "dma_free_coherent",
	"fwnode_handle_put", "mmc_free_host", "sock_release", "usb_free_urb",
	"free_netdev", "bitmap_free", "put_device", "bio_put",
	"kvfree", "vfree", "kfree",
}

// countCalls counts occurrences of callee(argText) in src at identifier
// boundaries (so kvfree(x) does not count as vfree(x)).
func countCalls(src, callee, argText string) int {
	needle := callee + "(" + argText + ")"
	n := 0
	for i := 0; ; {
		j := strings.Index(src[i:], needle)
		if j < 0 {
			return n
		}
		at := i + j
		if at == 0 || !isIdentChar(src[at-1]) {
			n++
		}
		i = at + len(needle)
	}
}

func isIdentChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// ReadPatch analyzes a commit's diff plus pre-patch source and extracts
// DiffFacts. It is deterministic, structural patch reading — the ground
// truth the simulated LLM's pattern-analysis agent degrades from.
func ReadPatch(c *vcs.Commit) DiffFacts {
	diff := c.Diff()
	added := patch.AddedLines(diff)
	removed := patch.RemovedLines(diff)
	before, errB := minic.ParseFile(c.File, c.Before)
	if errB != nil {
		return DiffFacts{}
	}
	fn := before.LookupFunc(c.FuncName)
	if fn == nil && len(before.Funcs) > 0 {
		fn = before.Funcs[0]
	}

	joinAdd := strings.Join(added, "\n")

	// 1. UBI: an added "= NULL" initializer on a __free declaration.
	for _, l := range added {
		t := strings.TrimSpace(l)
		if strings.Contains(t, "__free(") && strings.Contains(t, "= NULL") {
			name := between(t, "__free(", ")")
			return DiffFacts{Kind: FixInitCleanupPtr, Anchor: name}
		}
	}

	// 2. UAF: a free-like call removed from one place and re-added later
	// (moved), with uses of the object (or data derived from it) in
	// between.
	if f := moveFreeFacts(added, removed, fn); f.Kind != FixUnknown {
		return f
	}

	// 3. Double-free: an added "x = NULL" after a free, or a removed
	// duplicate free call.
	if f := dupFreeFacts(added, removed, c.Before); f.Kind != FixUnknown {
		return f
	}

	// 4. Concurrency: an added unlock call on an early-return path.
	for _, l := range added {
		t := strings.TrimSpace(l)
		for unlock, lock := range unlockToLock {
			if strings.HasPrefix(t, unlock+"(") {
				return DiffFacts{Kind: FixAddUnlockOnPath, Anchor: lock, Release: unlock}
			}
		}
	}

	// 5. Memory leak: an added free-like call immediately before an
	// error return.
	if f := leakFacts(added, fn); f.Kind != FixUnknown {
		return f
	}

	// 6. Buffer termination: an added "buf[n] = 0;" line.
	for _, l := range added {
		t := strings.TrimSpace(l)
		if strings.Contains(t, "] = 0;") && !strings.Contains(t, "==") {
			if idx := strings.Index(t, "["); idx > 0 {
				buf := t[:idx]
				consumer := findConsumer(fn, buf, []string{"sscanf", "strim", "kstrtoul", "simple_strtol"})
				if consumer != "" {
					return DiffFacts{Kind: FixTerminateBuffer, Anchor: "copy_from_user", Consumer: consumer, GuardedVar: buf}
				}
			}
		}
	}

	// 7. Sign check: added "if (x < 0)" where x is produced by a call
	// and consumed by another call.
	if f := signFacts(added, fn); f.Kind != FixUnknown {
		return f
	}

	// 8. User-copy clamp: added min()/bound against sizeof before
	// copy_from_user.
	if strings.Contains(joinAdd, "min(") && strings.Contains(c.Before, "copy_from_user(") ||
		(strings.Contains(joinAdd, "sizeof(") && strings.Contains(joinAdd, "- 1") &&
			strings.Contains(c.Before, "copy_from_user(")) {
		return DiffFacts{Kind: FixClampUserCopy, Anchor: "copy_from_user"}
	}

	// 9. Null check: added "if (!x)" with an error return; anchor is the
	// call whose result x holds.
	if f := nullCheckFacts(added, fn); f.Kind != FixUnknown {
		return f
	}

	// 10. Integer overflow: added count bound before an alloc whose size
	// argument multiplies.
	if f := mulBoundFacts(added, fn, c.Before); f.Kind != FixUnknown {
		return f
	}

	// 11. Index bound: added "if (i >= N)" before a subscript use.
	if f := indexBoundFacts(added, fn); f.Kind != FixUnknown {
		return f
	}

	return DiffFacts{}
}

func between(s, a, b string) string {
	i := strings.Index(s, a)
	if i < 0 {
		return ""
	}
	rest := s[i+len(a):]
	j := strings.Index(rest, b)
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// calleeOfAssignTo scans the function body for "name = CALL(...)" and
// returns the callee.
func calleeOfAssignTo(fn *minic.FuncDecl, name string) string {
	if fn == nil {
		return ""
	}
	out := ""
	minic.WalkStmts(fn.Body, func(s minic.Stmt) {
		switch st := s.(type) {
		case *minic.DeclStmt:
			if st.Name == name {
				if call, ok := minic.Unparen(st.Init).(*minic.CallExpr); ok && st.Init != nil {
					out = call.Fun
				}
			}
		case *minic.ExprStmt:
			if as, ok := st.X.(*minic.AssignExpr); ok && as.Op == minic.Assign {
				if id, ok := minic.Unparen(as.LHS).(*minic.Ident); ok && id.Name == name {
					if call, ok := minic.Unparen(as.RHS).(*minic.CallExpr); ok {
						out = call.Fun
					}
				}
			}
		}
	})
	return out
}

func nullCheckFacts(added []string, fn *minic.FuncDecl) DiffFacts {
	for _, l := range added {
		t := strings.TrimSpace(l)
		if !strings.HasPrefix(t, "if (!") {
			continue
		}
		v := between(t, "if (!", ")")
		v = strings.TrimSpace(v)
		if v == "" || strings.ContainsAny(v, " <>=") {
			continue
		}
		anchor := calleeOfAssignTo(fn, v)
		if anchor != "" {
			return DiffFacts{Kind: FixAddNullCheck, Anchor: anchor, GuardedVar: v}
		}
	}
	return DiffFacts{}
}

func mulBoundFacts(added []string, fn *minic.FuncDecl, before string) DiffFacts {
	var bounded string
	for _, l := range added {
		t := strings.TrimSpace(l)
		if strings.HasPrefix(t, "if (") && strings.Contains(t, " > ") {
			bounded = strings.TrimSpace(between(t, "if (", " > "))
		}
	}
	if bounded == "" {
		return DiffFacts{}
	}
	// Find an allocation whose size argument multiplies the bounded var.
	anchor := ""
	if fn != nil {
		minic.WalkStmts(fn.Body, func(s minic.Stmt) {
			es, ok := s.(*minic.ExprStmt)
			if !ok {
				return
			}
			as, ok := es.X.(*minic.AssignExpr)
			if !ok {
				return
			}
			call, ok := minic.Unparen(as.RHS).(*minic.CallExpr)
			if !ok || len(call.Args) == 0 {
				return
			}
			if bin, ok := minic.Unparen(call.Args[0]).(*minic.BinaryExpr); ok && bin.Op == minic.Star {
				anchor = call.Fun
			}
		})
	}
	if anchor == "" {
		return DiffFacts{}
	}
	return DiffFacts{Kind: FixAddBoundBeforeMulAlloc, Anchor: anchor, GuardedVar: bounded}
}

func indexBoundFacts(added []string, fn *minic.FuncDecl) DiffFacts {
	var idx string
	for _, l := range added {
		t := strings.TrimSpace(l)
		if strings.HasPrefix(t, "if (") && strings.Contains(t, " >= ") {
			idx = strings.TrimSpace(between(t, "if (", " >= "))
		}
	}
	if idx == "" {
		return DiffFacts{}
	}
	anchor := calleeOfAssignTo(fn, idx)
	if anchor == "" {
		return DiffFacts{}
	}
	return DiffFacts{Kind: FixAddIndexBound, Anchor: anchor, GuardedVar: idx}
}

func leakFacts(added []string, fn *minic.FuncDecl) DiffFacts {
	for _, l := range added {
		t := strings.TrimSpace(l)
		for _, free := range freeLikeCalls {
			if strings.HasPrefix(t, free+"(") {
				v := strings.TrimSuffix(between(t, free+"(", ")"), ";")
				anchor := calleeOfAssignTo(fn, v)
				if anchor != "" && anchor != free {
					return DiffFacts{Kind: FixFreeOnErrorPath, Anchor: anchor, Release: free, GuardedVar: v}
				}
			}
		}
	}
	return DiffFacts{}
}

func moveFreeFacts(added, removed []string, fn *minic.FuncDecl) DiffFacts {
	// A "moved" line appears in both added and removed.
	for _, r := range removed {
		rt := strings.TrimSpace(r)
		for _, free := range freeLikeCalls {
			if !strings.HasPrefix(rt, free+"(") {
				continue
			}
			for _, a := range added {
				if strings.TrimSpace(a) == rt {
					freedVar := strings.TrimSuffix(between(rt, free+"(", ")"), ";")
					derive, _ := deriveOf(fn, freedVar)
					return DiffFacts{Kind: FixMoveFreeLater, Anchor: free, Derive: derive, GuardedVar: freedVar}
				}
			}
		}
	}
	return DiffFacts{}
}

// deriveOf finds "x = PRIV(y)" in fn where y is the given variable, i.e.
// a pointer derived from the freed object.
func deriveOf(fn *minic.FuncDecl, freed string) (string, string) {
	derive, derived := "", ""
	if fn == nil {
		return "", ""
	}
	minic.WalkStmts(fn.Body, func(s minic.Stmt) {
		d, ok := s.(*minic.DeclStmt)
		if !ok || d.Init == nil {
			return
		}
		call, ok := minic.Unparen(d.Init).(*minic.CallExpr)
		if !ok || len(call.Args) != 1 {
			return
		}
		if id, ok := minic.Unparen(call.Args[0]).(*minic.Ident); ok && id.Name == freed {
			derive, derived = call.Fun, d.Name
		}
	})
	return derive, derived
}

func dupFreeFacts(added, removed []string, before string) DiffFacts {
	// Style A: the fix NULLs the pointer after the first free.
	for _, a := range added {
		t := strings.TrimSpace(a)
		if strings.HasSuffix(t, "= NULL;") && !strings.Contains(t, "__free") {
			v := strings.TrimSpace(strings.TrimSuffix(t, "= NULL;"))
			for _, free := range freeLikeCalls {
				if countCalls(before, free, v) >= 2 {
					return DiffFacts{Kind: FixClearOrDropDupFree, Anchor: free, GuardedVar: v}
				}
			}
		}
	}
	// Style B: the fix removes the duplicated free call.
	for _, r := range removed {
		t := strings.TrimSpace(r)
		for _, free := range freeLikeCalls {
			if strings.HasPrefix(t, free+"(") {
				v := strings.TrimSuffix(between(t, free+"(", ")"), ";")
				if countCalls(before, free, v) >= 2 {
					return DiffFacts{Kind: FixClearOrDropDupFree, Anchor: free, GuardedVar: v}
				}
			}
		}
	}
	return DiffFacts{}
}

func signFacts(added []string, fn *minic.FuncDecl) DiffFacts {
	for _, l := range added {
		t := strings.TrimSpace(l)
		if !strings.HasPrefix(t, "if (") || !strings.Contains(t, " < 0)") {
			continue
		}
		v := strings.TrimSpace(between(t, "if (", " < 0)"))
		if v == "" {
			continue
		}
		producer := calleeOfAssignTo(fn, v)
		consumer := findConsumer(fn, v, []string{"request_irq", "devm_request_irq", "enable_irq"})
		if producer != "" && consumer != "" {
			return DiffFacts{Kind: FixCheckSign, Anchor: producer, Consumer: consumer, GuardedVar: v}
		}
	}
	return DiffFacts{}
}

// findConsumer locates a call in fn taking the named variable as its
// first argument, restricted to the candidate list (empty list = any).
func findConsumer(fn *minic.FuncDecl, v string, candidates []string) string {
	if fn == nil {
		return ""
	}
	out := ""
	isCandidate := func(name string) bool {
		if len(candidates) == 0 {
			return true
		}
		for _, c := range candidates {
			if c == name {
				return true
			}
		}
		return false
	}
	var scanExpr func(e minic.Expr)
	scanExpr = func(e minic.Expr) {
		call, ok := minic.Unparen(e).(*minic.CallExpr)
		if !ok {
			return
		}
		if len(call.Args) > 0 && isCandidate(call.Fun) {
			if id, ok := minic.Unparen(call.Args[0]).(*minic.Ident); ok && id.Name == v {
				out = call.Fun
			}
		}
		for _, a := range call.Args {
			scanExpr(a)
		}
	}
	minic.WalkStmts(fn.Body, func(s minic.Stmt) {
		switch st := s.(type) {
		case *minic.ExprStmt:
			scanExpr(st.X)
		case *minic.ReturnStmt:
			if st.X != nil {
				scanExpr(st.X)
			}
		case *minic.IfStmt:
			scanExpr(st.Cond)
		}
	})
	return out
}
