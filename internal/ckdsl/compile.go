package ckdsl

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"knighter/internal/checker"
	"knighter/internal/minic"
	"knighter/internal/sym"
)

// Compile validates a parsed Spec ("registration") and lowers it to an
// executable engine checker. Registration failures are CompileErrors —
// the same failure class as parse errors, mirroring a CSA checker that
// does not build.
func Compile(spec *Spec) (*Compiled, error) {
	if err := validate(spec); err != nil {
		return nil, err
	}
	dom := func(which string) string { return "ck:" + spec.Name + ":" + which }
	h := sha256.Sum256([]byte("ckdsl:v3:" + spec.String()))
	return &Compiled{spec: spec, rule: newQuietRule(spec), fp: hex.EncodeToString(h[:16]), dom: domains{
		track: dom("track"), desc: dom("desc"), derived: dom("derived"), lock: dom("lock"),
		unterm: dom("unterm"), uninit: dom("uninit"), bounded: dom("bounded"),
	}}, nil
}

// CompileSource parses and compiles DSL text in one step.
func CompileSource(src string) (*Compiled, error) {
	spec, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(spec)
}

// validate applies registration-time semantic checks: every sink must be
// fed by a compatible source, like a CSA checker whose callbacks
// reference program-state maps that were never registered.
func validate(spec *Spec) error {
	req := func(ok bool, line int, msg string) error {
		if ok {
			return nil
		}
		return &CompileError{Line: line, Msg: msg}
	}
	for _, sk := range spec.Sinks {
		var err error
		switch sk.Kind {
		case SinkDerefUnchecked:
			err = req(spec.yieldsAny("nullable"), sk.Line,
				"sink 'deref unchecked' requires a source yielding nullable")
		case SinkDerefFreed, SinkCallArgFreed:
			err = req(spec.hasSourceKind(SrcCallFrees), sk.Line,
				"freed-state sink requires a 'frees' source")
		case SinkCallArgLocked:
			err = req(spec.hasSourceKind(SrcCallLocks), sk.Line,
				"locked-state sink requires a 'locks' source")
		case SinkCallArgUnterminated:
			err = req(spec.hasSourceKind(SrcCallWrites), sk.Line,
				"unterminated-state sink requires a 'writes ... unterminated' source")
		case SinkIndexTainted:
			err = req(spec.yieldsAny("taint"), sk.Line,
				"sink 'index tainted' requires a source yielding taint")
		case SinkEndHeld:
			if sk.Holding == "alloc" {
				err = req(spec.yieldsAny("alloc"), sk.Line,
					"sink 'end-of-function holding alloc' requires a source yielding alloc")
			} else {
				err = req(spec.hasSourceKind(SrcCallLocks), sk.Line,
					"sink 'end-of-function holding locked' requires a 'locks' source")
			}
		case SinkUseUninit, SinkEndUninitCleanup:
			err = req(spec.hasSourceKind(SrcDeclUninit), sk.Line,
				"uninit sink requires a 'decl uninit' source")
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Compiled is an executable checker lowered from a Spec.
type Compiled struct {
	spec *Spec
	rule *quietRule // nil when the spec has no dataflow rule (flow.go)
	fp   string     // Fingerprint, hashed once at Compile
	dom  domains
}

// domains are the checker's fact domains, "ck:<name>:<which>", built once
// at Compile rather than on every callback.
type domains struct {
	track, desc, derived, lock, unterm, uninit, bounded string
}

// Spec returns the underlying spec.
func (ck *Compiled) Spec() *Spec { return ck.spec }

// Name implements checker.Checker.
func (ck *Compiled) Name() string { return "knighter." + ck.spec.Name }

// Fingerprint implements checker.Fingerprinter for the scan-service
// result cache. A Compiled checker's behaviour is fully determined by
// its spec, and Spec.String is canonical (parse∘print is the identity
// on semantics), so hashing the rendering is a sound semantic key: two
// refinement rounds that produce the same spec — the common case for
// rejected or no-op refinements — hit the same cache entries. It is
// hashed once, at Compile.
func (ck *Compiled) Fingerprint() string { return ck.fp }

// The scan scheduler keys every result by Fingerprint and skips the
// functions QuietOn clears: a renamed method must not compile.
var _ interface {
	checker.Fingerprinter
	checker.Quieter
} = (*Compiled)(nil)

// BugType implements checker.Checker.
func (ck *Compiled) BugType() string { return ck.spec.BugTypeName }

// QuietOn implements checker.Quieter: on every path of the function of
// fp the checker reports nothing and panics nowhere. Two proofs, the
// syntactic one first.
//
// Footprint: the checker is quiet on a function that calls no callee one
// of its rules names — for a 'mul-overflow' sink, none with a product at
// the sink's argument or too few arguments to have one — declares no
// uninitialized local its 'decl uninit' source tracks, and indexes
// nowhere when it has an 'index constant-oob' sink. Then no callback
// reports or panics there, callback by callback:
//   - CheckDecl sets a fact only for a 'decl uninit' source on an
//     initializer-less non-array declaration (with a cleanup when the
//     source is cleanup-only).
//   - CheckPostCall and CheckPreCall act only under a rule whose callee
//     is the event's, and every call event's callee is in the footprint;
//     the argument indexing that panics on a hallucinated index sits
//     behind those matches. The 'mul-overflow' sink reads its argument
//     strictly, which panics only on a call with too few arguments, and
//     reports only at a product there. CheckBind's syntactic nullable
//     source matches a right-hand-side call by name, which the footprint
//     also counts.
//   - CheckBranchCondition reports nothing and panics nowhere. The
//     'bounded' facts a boundcheck guard writes are read only by the
//     copy-overflow, negative-argument and mul-overflow sinks, which act
//     only at calls of their callees.
//   - Every other sink but 'index constant-oob' (whose access carries an
//     array length only on an index expression) reports only on a fact
//     that a source above sets, and CheckEndFunction reports only on one.
//
// Dataflow (flow.go), for a spec of one of two shapes whose footprint
// proof fails, where no call of a callee the spec reads an argument of
// strictly lacks that argument (minic.Footprint.ShortCall), so nothing
// panics:
//   - Rule A, call after call: every sink a 'call … freed|locked|
//     unterminated' and every source a call source but 'yields'. Such a
//     sink reports only when the fact it reads is set, and only a
//     'frees', 'writes' or 'locks' source sets it, after its call
//     (CheckPostCall); a sink reads it before its own call
//     (CheckPreCall). No guard reports. So the checker is quiet when no
//     call of a sink's callee follows a call of a setter's in the
//     evaluation order of any CFG path, loops included.
//   - Rule B, may still hold: every source a 'yields alloc' and every
//     sink an 'end-of-function holding alloc', which reports an
//     allocation still tracked and not known NULL at a return. A forward
//     may-analysis over the CFG tracks which allocation sites may still
//     be held and which variable holds which, and releases a site where
//     the engine's rules release it: passed to a call that is no
//     allocation source, stored through a field or element, returned,
//     or on the branch edge that makes its variable NULL. It gives up on
//     what it does not model (flow.go's loud* reasons). So the checker
//     is quiet when no site may be held at any return.
//
// A verdict depends only on the function and the rule's callee sets, so
// it is memoized on fp under a key built at Compile: every revision of a
// spec with the same callees shares it.
func (ck *Compiled) QuietOn(fp *minic.Footprint) bool {
	return ck.footprintQuiet(fp) || ck.rule != nil && ck.rule.quietOn(fp)
}

func (ck *Compiled) footprintQuiet(fp *minic.Footprint) bool {
	for _, src := range ck.spec.Sources {
		if src.Kind == SrcDeclUninit {
			if fp.UninitDecl && (!src.CleanupOnly || fp.UninitCleanup) {
				return false
			}
		} else if fp.Calls(src.Callee) {
			return false
		}
	}
	for _, g := range ck.spec.Guards {
		if fp.Calls(g.Callee) {
			return false
		}
	}
	for _, sk := range ck.spec.Sinks {
		switch {
		case sk.Kind == SinkMulOverflow:
			if fp.MulAt(sk.Callee, sk.Arg) {
				return false
			}
		case fp.Calls(sk.Callee), sk.Kind == SinkIndexConstOOB && fp.Index:
			return false
		}
	}
	return true
}

const (
	stNullableUnchecked = "nullable:unchecked"
	stNullableChecked   = "nullable:checked"
	stAllocHeld         = "alloc:held"
	stTaintUnchecked    = "taint:unchecked"
	stTaintChecked      = "taint:checked"
	stFreed             = "freed"
	stUninit            = "uninit"
	stUninitCleanup     = "uninit+cleanup"
	stInit              = "init"
	stUnterminated      = "unterminated"
)

// keyOf maps a value to a tracking key. In alias mode keys follow values
// (symbols), so aliases share state; in syntactic mode the caller uses
// exprKey instead.
func keyOf(v sym.Value) (string, bool) { return checker.ValueKey(v) }

func exprKey(e minic.Expr) string { return "e:" + minic.FormatExpr(minic.Unparen(e)) }

// baseOf returns the pointer expression a dereference expression derefs.
func baseOf(e minic.Expr) minic.Expr {
	switch x := minic.Unparen(e).(type) {
	case *minic.MemberExpr:
		return x.X
	case *minic.IndexExpr:
		return x.X
	case *minic.UnaryExpr:
		if x.Op == minic.Star {
			return x.X
		}
	}
	return nil
}

// keyForArg maps a call argument to a tracking key: by value in alias
// mode (so freeing NULL or a fresh pointer is recognized), by argument
// spelling in syntactic mode (which cannot see NULL-clearing — the
// aliasing false positives the paper attributes to weak checkers).
func (ck *Compiled) keyForArg(v sym.Value, expr minic.Expr) (string, bool) {
	if ck.spec.TrackAlias || expr == nil {
		return keyOf(v)
	}
	return exprKey(expr), true
}

// isBounded reports whether a boundcheck guard recorded a comparison
// involving this value on the current path.
func (ck *Compiled) isBounded(st *sym.State, v sym.Value) bool {
	if !ck.spec.hasGuardKind(GuardBoundCheck) {
		return false
	}
	key, ok := keyOf(v)
	if !ok {
		return false
	}
	_, bounded := st.Fact(ck.dom.bounded, key)
	return bounded
}

// symbolFromKey recovers a symbol value from a "s<N>" tracking key.
func symbolFromKey(key string) (sym.Value, bool) {
	var id int32
	if _, err := fmt.Sscanf(key, "s%d", &id); err == nil {
		return sym.MakeSym(sym.SymbolID(id)), true
	}
	return sym.Unknown, false
}

func (ck *Compiled) message(rule SinkRule, fallback string) string {
	if rule.Message != "" {
		return rule.Message
	}
	return fallback
}

// --- callbacks ---

// CheckDecl implements checker.DeclChecker.
func (ck *Compiled) CheckDecl(d *minic.DeclStmt, region sym.RegionID, c *checker.Context) {
	for _, src := range ck.spec.Sources {
		if src.Kind != SrcDeclUninit {
			continue
		}
		if d.Init != nil {
			continue
		}
		if src.CleanupOnly && d.Cleanup == "" {
			continue
		}
		// Track only pointers and plain ints (arrays are always
		// "initialized" storage for our purposes).
		if d.Type.IsArray() {
			continue
		}
		status := stUninit
		if d.Cleanup != "" {
			status = stUninitCleanup
		}
		c.SetState(c.State().SetRegionFact(ck.dom.uninit, region, status))
	}
}

// CheckPostCall implements checker.PostCallChecker: sources fire here.
func (ck *Compiled) CheckPostCall(ev *checker.CallEvent, c *checker.Context) {
	st := c.State()
	for _, src := range ck.spec.Sources {
		if src.Callee != ev.Callee {
			continue
		}
		switch src.Kind {
		case SrcCallYields:
			if ck.spec.TrackAlias || src.Yields != "nullable" {
				if key, ok := keyOf(ev.Ret); ok {
					var status string
					switch src.Yields {
					case "nullable":
						status = stNullableUnchecked
					case "alloc":
						status = stAllocHeld
					case "taint":
						status = stTaintUnchecked
					}
					st = st.SetFact(ck.dom.track, key, status)
					st = st.SetFact(ck.dom.desc, key, ev.Callee+"()")
				}
			}
			// Syntactic nullable tracking happens in CheckBind.
		case SrcCallFrees:
			v := ev.Args[src.Arg] // strict: hallucinated index crashes
			if key, ok := ck.keyForArg(v, ev.ArgExpr(src.Arg)); ok {
				st = st.SetFact(ck.dom.track, key, stFreed)
				st = st.SetFact(ck.dom.desc, key, ev.Callee+"()")
				// Propagate to derived pointers (e.g. private data
				// obtained via netdev_priv()).
				for _, child := range st.FactKeys(ck.dom.derived) {
					if parent, _ := st.Fact(ck.dom.derived, child); parent == key {
						st = st.SetFact(ck.dom.track, child, stFreed)
						st = st.SetFact(ck.dom.desc, child, "data derived from "+ev.Callee+"() argument")
					}
				}
			}
		case SrcCallLocks:
			v := ev.Args[src.Arg]
			if key, ok := keyOf(v); ok {
				st = st.SetFact(ck.dom.lock, key, "locked")
			}
		case SrcCallUnlocks:
			v := ev.Args[src.Arg]
			if key, ok := keyOf(v); ok {
				st = st.DelFact(ck.dom.lock, key)
			}
		case SrcCallDerives:
			pv := ev.Args[src.Arg]
			if pkey, ok := keyOf(pv); ok {
				if rkey, ok2 := keyOf(ev.Ret); ok2 {
					st = st.SetFact(ck.dom.derived, rkey, pkey)
				}
			}
		case SrcCallWrites:
			r := ck.argBufferRegion(ev, src.Arg)
			if r != sym.NoRegion {
				st = st.SetRegionFact(ck.dom.unterm, r, stUnterminated)
			}
		}
	}
	// Guards that neutralize on calls.
	for _, g := range ck.spec.Guards {
		if g.Kind == GuardCallReleases && g.Callee == ev.Callee {
			v := ev.Args[g.Arg]
			if key, ok := keyOf(v); ok {
				st = st.DelFact(ck.dom.track, key)
			}
		}
	}
	// Built-in escape rule for leak tracking: a held allocation passed to
	// any other function may be stored by the callee; stop tracking it.
	if ck.spec.yieldsAny("alloc") {
		for _, v := range ev.Args {
			if key, ok := keyOf(v); ok {
				if s, tracked := st.Fact(ck.dom.track, key); tracked && s == stAllocHeld && !ck.isAllocSource(ev.Callee) {
					st = st.DelFact(ck.dom.track, key)
				}
			}
		}
	}
	c.SetState(st)
}

func (ck *Compiled) isAllocSource(callee string) bool {
	for _, src := range ck.spec.Sources {
		if src.Kind == SrcCallYields && src.Yields == "alloc" && src.Callee == callee {
			return true
		}
	}
	return false
}

// CheckPreCall implements checker.PreCallChecker: call-argument sinks
// fire here, before this call's own source effects apply.
func (ck *Compiled) CheckPreCall(ev *checker.CallEvent, c *checker.Context) {
	st := c.State()
	for _, rule := range ck.spec.Sinks {
		switch rule.Kind {
		case SinkCallArgFreed:
			if rule.Callee != ev.Callee {
				continue
			}
			v := ev.Args[rule.Arg]
			if key, ok := ck.keyForArg(v, ev.ArgExpr(rule.Arg)); ok {
				if s, tracked := st.Fact(ck.dom.track, key); tracked && s == stFreed {
					desc, _ := st.Fact(ck.dom.desc, key)
					c.Report(ck, ck.message(rule, fmt.Sprintf("double free: argument already freed by %v", desc)), sym.NoRegion)
				}
			}
		case SinkCallArgLocked:
			if rule.Callee != ev.Callee {
				continue
			}
			v := ev.Args[rule.Arg]
			if key, ok := keyOf(v); ok {
				if _, locked := st.Fact(ck.dom.lock, key); locked {
					c.Report(ck, ck.message(rule, "double lock: lock is already held"), sym.NoRegion)
				}
			}
		case SinkCallArgUnterminated:
			if rule.Callee != ev.Callee {
				continue
			}
			r := ck.argBufferRegion(ev, rule.Arg)
			if r == sym.NoRegion {
				continue
			}
			if s, ok := st.RegionFact(ck.dom.unterm, r); ok && s == stUnterminated {
				c.Report(ck, ck.message(rule, "string operation on buffer that may lack a terminating NUL"), r)
				st = st.DelRegionFact(ck.dom.unterm, r)
				c.SetState(st)
			}
		case SinkCallArgNegative:
			if rule.Callee != ev.Callee {
				continue
			}
			v := ev.Args[rule.Arg]
			if v.IsSymbol() && st.RangeOf(v).CanBeNegative() && !ck.isBounded(st, v) {
				c.Report(ck, ck.message(rule, "possibly negative value used where a non-negative value is required"), sym.NoRegion)
			}
		case SinkCopyOverflow:
			if rule.Callee != ev.Callee {
				continue
			}
			size := ev.Args[rule.SizeArg]
			bufLen := ck.argBufferLen(ev, rule.BufArg, c)
			if bufLen <= 0 {
				continue
			}
			if ck.isBounded(st, size) {
				continue
			}
			limit := int64(bufLen - rule.Slack)
			if st.RangeOf(size).CanExceed(limit) {
				c.Report(ck, ck.message(rule, fmt.Sprintf("copy may exceed buffer capacity (%d bytes, limit %d)", bufLen, limit)), sym.NoRegion)
			}
		case SinkMulOverflow:
			if rule.Callee != ev.Callee {
				continue
			}
			arg := ev.Expr.Args[rule.Arg] // strict: hallucinated index crashes
			mul, ok := minic.Unparen(arg).(*minic.BinaryExpr)
			if !ok || mul.Op != minic.Star {
				continue
			}
			lv, rv := c.ValueOf(mul.X), c.ValueOf(mul.Y)
			if ck.isBounded(st, lv) || ck.isBounded(st, rv) {
				continue
			}
			ra := st.RangeOf(lv).AtLeast(0)
			rb := st.RangeOf(rv).AtLeast(0)
			if ra.MulCanOverflow(rb, rule.Bits) {
				c.Report(ck, ck.message(rule, fmt.Sprintf("unchecked multiplication may overflow %d bits before allocation", rule.Bits)), sym.NoRegion)
			}
		}
	}
}

// argBufferRegion resolves the buffer region named by a call argument.
func (ck *Compiled) argBufferRegion(ev *checker.CallEvent, i int) sym.RegionID {
	if i < len(ev.ArgRegions) && ev.ArgRegions[i] != sym.NoRegion {
		return ev.ArgRegions[i]
	}
	if i < len(ev.ArgPointees) && ev.ArgPointees[i] != sym.NoRegion {
		return ev.ArgPointees[i]
	}
	return sym.NoRegion
}

// argBufferLen resolves the declared fixed length of a buffer argument.
func (ck *Compiled) argBufferLen(ev *checker.CallEvent, i int, c *checker.Context) int {
	r := ck.argBufferRegion(ev, i)
	if r == sym.NoRegion {
		return 0
	}
	if reg := c.Arena().Region(r); reg != nil && reg.ArrayLen > 0 {
		return reg.ArrayLen
	}
	// Fall back to the declared type of a named argument.
	if e := ev.ArgExpr(i); e != nil {
		if id, ok := minic.Unparen(e).(*minic.Ident); ok {
			if t, ok := c.DeclType(id.Name); ok && t.IsArray() {
				return t.ArrayLen
			}
		}
	}
	return 0
}

// CheckBind implements checker.BindChecker.
func (ck *Compiled) CheckBind(ev *checker.BindEvent, c *checker.Context) {
	st := c.State()
	// Syntactic nullable tracking: "lhs = alloc(...)".
	if !ck.spec.TrackAlias {
		for _, src := range ck.spec.Sources {
			if src.Kind != SrcCallYields || src.Yields != "nullable" {
				continue
			}
			if call, ok := minic.Unparen(ev.RHS).(*minic.CallExpr); ok && call.Fun == src.Callee {
				var key string
				if ev.LHS != nil {
					key = exprKey(ev.LHS)
				} else {
					// Declaration initializer: key by the variable name
					// so later guards/sinks written against the same
					// spelling match.
					key = "e:" + c.Describe(ev.Region)
				}
				st = st.SetFact(ck.dom.track, key, stNullableUnchecked)
				st = st.SetFact(ck.dom.desc, key, src.Callee+"()")
			}
		}
	}
	// Initialization guard for uninit tracking.
	if ck.spec.hasGuardKind(GuardAssignInit) {
		if s, ok := st.RegionFact(ck.dom.uninit, ev.Region); ok && strings.HasPrefix(s.(string), "uninit") {
			st = st.SetRegionFact(ck.dom.uninit, ev.Region, stInit)
		}
	}
	// Built-in escape for leak tracking: storing a held allocation into
	// anything but a plain local (a struct field, a global, an array
	// slot) publishes it — someone else can free it.
	if ck.spec.yieldsAny("alloc") {
		if key, ok := keyOf(ev.Value); ok {
			if s, tracked := st.Fact(ck.dom.track, key); tracked && s == stAllocHeld {
				if reg := c.Arena().Region(ev.Region); reg != nil && reg.Kind != sym.VarRegion {
					st = st.DelFact(ck.dom.track, key)
				}
			}
		}
	}
	// Buffer-termination guard: buf[i] = 0.
	if ck.spec.hasGuardKind(GuardTerminate) {
		if ev.Value.IsNullConst() {
			if reg := c.Arena().Region(ev.Region); reg != nil && reg.Kind == sym.ElemRegion {
				if _, ok := st.RegionFact(ck.dom.unterm, reg.Parent); ok {
					st = st.DelRegionFact(ck.dom.unterm, reg.Parent)
				}
			}
		}
	}
	c.SetState(st)
}

// CheckBranchCondition implements checker.BranchChecker: null and bound
// guards mark tracked state as checked.
func (ck *Compiled) CheckBranchCondition(cond minic.Expr, c *checker.Context) {
	st := c.State()
	for _, g := range ck.spec.Guards {
		switch g.Kind {
		case GuardNullCheck:
			target := nullCheckTarget(cond, ck.spec.Unwrap, c)
			if target == nil {
				continue
			}
			var keys []string
			if ck.spec.TrackAlias {
				if k, ok := keyOf(c.ValueOf(target)); ok {
					keys = append(keys, k)
				}
			} else {
				keys = append(keys, exprKey(target))
			}
			for _, k := range keys {
				if s, tracked := st.Fact(ck.dom.track, k); tracked && s == stNullableUnchecked {
					st = st.SetFact(ck.dom.track, k, stNullableChecked)
				}
			}
		case GuardBoundCheck:
			e := minic.UnwrapCalls(cond, ck.spec.Unwrap...)
			bin, ok := e.(*minic.BinaryExpr)
			if !ok {
				continue
			}
			switch bin.Op {
			case minic.Lt, minic.Gt, minic.Le, minic.Ge, minic.EqEq, minic.NotEq:
				for _, side := range []minic.Expr{bin.X, bin.Y} {
					if k, ok := keyOf(c.ValueOf(side)); ok {
						if s, tracked := st.Fact(ck.dom.track, k); tracked && s == stTaintUnchecked {
							st = st.SetFact(ck.dom.track, k, stTaintChecked)
						}
						// Any value that took part in a comparison counts
						// as "developer bounded it somehow" for the
						// size-reasoning sinks, even when the bound is
						// not a constant the range engine understands.
						st = st.SetFact(ck.dom.bounded, k, "bounded")
					}
				}
			}
		}
	}
	c.SetState(st)
}

// nullCheckTarget recognizes the null-check shapes a checker understands:
// if (!p), if (p), if (p == NULL), if (p != NULL) — seeing through the
// configured wrapper macros.
func nullCheckTarget(cond minic.Expr, unwrap []string, c *checker.Context) minic.Expr {
	e := minic.UnwrapCalls(cond, unwrap...)
	switch x := e.(type) {
	case *minic.UnaryExpr:
		if x.Op == minic.Bang {
			return minic.UnwrapCalls(x.X, unwrap...)
		}
	case *minic.BinaryExpr:
		if x.Op == minic.EqEq || x.Op == minic.NotEq {
			if c.ValueOf(x.Y).IsNullConst() {
				return minic.UnwrapCalls(x.X, unwrap...)
			}
			if c.ValueOf(x.X).IsNullConst() {
				return minic.UnwrapCalls(x.Y, unwrap...)
			}
		}
	case *minic.Ident, *minic.MemberExpr, *minic.IndexExpr:
		return e
	}
	return nil
}

// CheckLocation implements checker.LocationChecker: dereference and
// index sinks.
func (ck *Compiled) CheckLocation(ac *checker.Access, c *checker.Context) {
	st := c.State()
	for _, rule := range ck.spec.Sinks {
		switch rule.Kind {
		case SinkDerefUnchecked:
			if ac.Direct {
				continue
			}
			var key string
			var ok bool
			if ck.spec.TrackAlias {
				key, ok = keyOf(ac.PtrValue)
			} else if base := baseOf(ac.Expr); base != nil {
				key, ok = exprKey(base), true
			}
			if !ok {
				continue
			}
			if s, tracked := st.Fact(ck.dom.track, key); tracked && s == stNullableUnchecked {
				desc, _ := st.Fact(ck.dom.desc, key)
				c.Report(ck, ck.message(rule, fmt.Sprintf("%v may return NULL and is dereferenced without a check", desc)), ac.Pointee)
				st = st.SetFact(ck.dom.track, key, stNullableChecked)
				c.SetState(st)
			}
		case SinkDerefFreed:
			if ac.Direct {
				continue
			}
			var key string
			var ok bool
			if ck.spec.TrackAlias {
				key, ok = keyOf(ac.PtrValue)
			} else if base := baseOf(ac.Expr); base != nil {
				key, ok = exprKey(base), true
			}
			if !ok {
				continue
			}
			if s, tracked := st.Fact(ck.dom.track, key); tracked && s == stFreed {
				desc, _ := st.Fact(ck.dom.desc, key)
				c.Report(ck, ck.message(rule, fmt.Sprintf("use after free: memory was released via %v", desc)), ac.Pointee)
			}
		case SinkUseUninit:
			if !ac.IsLoad || !ac.Direct {
				continue
			}
			if s, ok := st.RegionFact(ck.dom.uninit, ac.Pointee); ok && strings.HasPrefix(s.(string), "uninit") {
				c.Report(ck, ck.message(rule, fmt.Sprintf("'%s' may be used uninitialized", c.Describe(ac.Pointee))), ac.Pointee)
				st = st.SetRegionFact(ck.dom.uninit, ac.Pointee, stInit)
				c.SetState(st)
			}
		case SinkIndexTainted:
			if ac.Index.IsUnknown() {
				continue
			}
			key, ok := keyOf(ac.Index)
			if !ok {
				continue
			}
			if s, tracked := st.Fact(ck.dom.track, key); tracked && s == stTaintUnchecked {
				if ac.ArrayLen > 0 && !st.RangeOf(ac.Index).CanExceed(int64(ac.ArrayLen-1)) {
					continue
				}
				c.Report(ck, ck.message(rule, "untrusted index used without a bounds check"), ac.Pointee)
				st = st.SetFact(ck.dom.track, key, stTaintChecked)
				c.SetState(st)
			}
		case SinkIndexConstOOB:
			if ac.ArrayLen > 0 && ac.Index.IsConcreteInt() && ac.Index.Int >= int64(ac.ArrayLen) {
				c.Report(ck, ck.message(rule, fmt.Sprintf("index %d is past the end of a %d-element array", ac.Index.Int, ac.ArrayLen)), ac.Pointee)
			}
		}
	}
}

// CheckEndFunction implements checker.EndFunctionChecker: leak, lock, and
// uninit-cleanup sinks.
func (ck *Compiled) CheckEndFunction(ev *checker.ReturnEvent, c *checker.Context) {
	st := c.State()
	// Returning a tracked allocation transfers ownership to the caller.
	if ck.spec.yieldsAny("alloc") {
		if key, ok := keyOf(ev.Value); ok {
			if s, tracked := st.Fact(ck.dom.track, key); tracked && s == stAllocHeld {
				st = st.DelFact(ck.dom.track, key)
				c.SetState(st)
			}
		}
	}
	for _, rule := range ck.spec.Sinks {
		switch rule.Kind {
		case SinkEndHeld:
			if rule.Holding == "alloc" {
				for _, key := range st.FactKeys(ck.dom.track) {
					if s, _ := st.Fact(ck.dom.track, key); s == stAllocHeld {
						// Allocation known to be NULL on this path (the
						// failed-allocation branch) leaks nothing.
						if v, ok := symbolFromKey(key); ok && st.NullnessOf(v) == sym.IsNull {
							continue
						}
						desc, _ := st.Fact(ck.dom.desc, key)
						c.Report(ck, ck.message(rule, fmt.Sprintf("memory allocated by %v is leaked on this path", desc)), sym.NoRegion)
					}
				}
			} else {
				for range st.FactKeys(ck.dom.lock) {
					c.Report(ck, ck.message(rule, "function returns while still holding a lock"), sym.NoRegion)
					break
				}
			}
		case SinkEndUninitCleanup:
			for _, r := range st.FactRegions(ck.dom.uninit) {
				if s, _ := st.RegionFact(ck.dom.uninit, r); s == stUninitCleanup {
					c.Report(ck, ck.message(rule, fmt.Sprintf("cleanup handler may run on uninitialized '%s'", c.Describe(r))), r)
				}
			}
		}
	}
}
