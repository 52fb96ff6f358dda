package engine

import (
	"strings"

	"knighter/internal/checker"
	"knighter/internal/minic"
	"knighter/internal/sym"
)

// unsignedBases are primitive type names treated as unsigned for range
// seeding.
var unsignedBases = map[string]bool{
	"size_t": true, "u8": true, "u16": true, "u32": true, "u64": true,
	"bool": true, "gfp_t": true, "dma_addr_t": true, "uintptr_t": true,
}

func isUnsignedType(t minic.Type) bool { return t.Unsigned || unsignedBases[t.Base] }

// evalCheckInterval amortizes the cancellation check in evalExpr: one
// channel poll per this many expression evaluations. Small enough that a
// block of straight-line code stops within a few hundred evaluations of
// a cancel, large enough that the common (never-canceled) case pays only
// a counter increment.
const evalCheckInterval = 256

// evalExpr evaluates e on the current path, recording the value of every
// visited sub-expression in pc.values (the cache assume() and checkers
// read from). It is also the analysis's hard cancellation point: every
// evalCheckInterval evaluations Options.Ctx is re-checked, and a cancel
// aborts mid-block via a cancelAbort panic that exec.explore converts
// into a truncated, uncacheable Canceled result.
func (ex *exec) evalExpr(pc *pathCtx, e minic.Expr) sym.Value {
	ex.evals++
	if ex.evals%evalCheckInterval == 0 && ex.canceled() {
		panic(cancelAbort{})
	}
	v := ex.evalExprUncached(pc, e)
	pc.values[e] = v
	return v
}

func (ex *exec) evalExprUncached(pc *pathCtx, e minic.Expr) sym.Value {
	switch x := e.(type) {
	case *minic.IntLit:
		return sym.MakeInt(x.Val)
	case *minic.CharLit:
		if len(x.Val) == 1 {
			return sym.MakeInt(int64(x.Val[0]))
		}
		return sym.MakeInt(0)
	case *minic.StrLit:
		s := ex.arena.NewSymbol("strlit", x.Pos)
		pc.state = pc.state.WithNullness(s, sym.NotNull)
		return sym.MakeSym(s)
	case *minic.Ident:
		if c, ok := minic.Constant(x.Name); ok {
			return sym.MakeInt(c)
		}
		return ex.loadVar(pc, x)
	case *minic.ParenExpr:
		return ex.evalExpr(pc, x.X)
	case *minic.CastExpr:
		return ex.evalExpr(pc, x.X)
	case *minic.SizeofExpr:
		return sym.MakeInt(ex.sizeofValue(x))
	case *minic.UnaryExpr:
		return ex.evalUnary(pc, x)
	case *minic.PostfixExpr:
		return ex.evalIncDec(pc, x.X, x.Op, x.Pos)
	case *minic.BinaryExpr:
		lv := ex.evalExpr(pc, x.X)
		rv := ex.evalExpr(pc, x.Y)
		return ex.foldBinary(x.Op, lv, rv)
	case *minic.AssignExpr:
		return ex.evalAssign(pc, x)
	case *minic.CondExpr:
		cv := ex.evalExpr(pc, x.Cond)
		tv := ex.evalExpr(pc, x.Then)
		ev := ex.evalExpr(pc, x.Else)
		if cv.IsConcreteInt() {
			if cv.Int != 0 {
				return tv
			}
			return ev
		}
		return sym.Unknown
	case *minic.CallExpr:
		return ex.evalCall(pc, x)
	case *minic.MemberExpr:
		r, ptr := ex.memberRegion(pc, x, true)
		return ex.loadRegion(pc, r, &checker.Access{
			PtrValue: ptr, Pointee: r, IsLoad: true, Direct: !x.Arrow,
			FieldName: x.Name, Expr: x, Pos: x.Pos,
		})
	case *minic.IndexExpr:
		r, ptr, idxV, alen := ex.indexRegion(pc, x)
		return ex.loadRegion(pc, r, &checker.Access{
			PtrValue: ptr, Pointee: r, IsLoad: true, Index: idxV,
			ArrayLen: alen, Expr: x, Pos: x.Pos,
		})
	}
	return sym.Unknown
}

func (ex *exec) evalUnary(pc *pathCtx, x *minic.UnaryExpr) sym.Value {
	switch x.Op {
	case minic.Amp:
		r, ok := ex.lvalueRegion(pc, x.X, false)
		if !ok {
			return sym.Unknown
		}
		return sym.MakeLoc(r)
	case minic.Star:
		pv := ex.evalExpr(pc, x.X)
		r := ex.pointeeOf(pv, x.Pos)
		return ex.loadRegion(pc, r, &checker.Access{
			PtrValue: pv, Pointee: r, IsLoad: true, Expr: x, Pos: x.Pos,
		})
	case minic.Inc, minic.Dec:
		return ex.evalIncDec(pc, x.X, x.Op, x.Pos)
	}
	v := ex.evalExpr(pc, x.X)
	if v.IsConcreteInt() {
		switch x.Op {
		case minic.Minus:
			return sym.MakeInt(-v.Int)
		case minic.Bang:
			if v.Int == 0 {
				return sym.MakeInt(1)
			}
			return sym.MakeInt(0)
		case minic.Tilde:
			return sym.MakeInt(^v.Int)
		}
	}
	return sym.Unknown
}

func (ex *exec) evalIncDec(pc *pathCtx, target minic.Expr, op minic.Kind, pos minic.Pos) sym.Value {
	r, ok := ex.lvalueRegion(pc, target, false)
	if !ok {
		return sym.Unknown
	}
	old, _ := pc.state.LookupRegion(r)
	var next sym.Value
	if old.IsConcreteInt() {
		d := int64(1)
		if op == minic.Dec {
			d = -1
		}
		next = sym.MakeInt(old.Int + d)
	} else {
		next = sym.MakeSym(ex.arena.NewSymbol("arith", pos))
	}
	pc.state = pc.state.BindRegion(r, next)
	return old
}

func (ex *exec) evalAssign(pc *pathCtx, x *minic.AssignExpr) sym.Value {
	rv := ex.evalExpr(pc, x.RHS)
	lr, ok := ex.lvalueRegion(pc, x.LHS, true)
	if !ok {
		return rv
	}
	val := rv
	if x.Op != minic.Assign {
		cur, _ := pc.state.LookupRegion(lr)
		var binOp minic.Kind
		switch x.Op {
		case minic.PlusEq:
			binOp = minic.Plus
		case minic.MinusEq:
			binOp = minic.Minus
		case minic.StarEq:
			binOp = minic.Star
		case minic.SlashEq:
			binOp = minic.Slash
		case minic.OrEq:
			binOp = minic.Pipe
		case minic.AndEq:
			binOp = minic.Amp
		}
		val = ex.foldBinary(binOp, cur, rv)
		if val.IsUnknown() {
			val = sym.MakeSym(ex.arena.NewSymbol("arith", x.Pos))
		}
	}
	if bc, ok := ex.ck.(checker.BindChecker); ok {
		ev := &checker.BindEvent{Region: lr, Value: val, LHS: x.LHS, RHS: x.RHS, Pos: x.Pos}
		ex.fire(pc, x.Pos, func(c *checker.Context) { bc.CheckBind(ev, c) })
	}
	pc.state = pc.state.BindRegion(lr, val)
	return val
}

func (ex *exec) foldBinary(op minic.Kind, a, b sym.Value) sym.Value {
	if a.IsConcreteInt() && b.IsConcreteInt() {
		x, y := a.Int, b.Int
		switch op {
		case minic.Plus:
			return sym.MakeInt(x + y)
		case minic.Minus:
			return sym.MakeInt(x - y)
		case minic.Star:
			return sym.MakeInt(x * y)
		case minic.Slash:
			if y != 0 {
				return sym.MakeInt(x / y)
			}
		case minic.Percent:
			if y != 0 {
				return sym.MakeInt(x % y)
			}
		case minic.Shl:
			if y >= 0 && y < 63 {
				return sym.MakeInt(x << uint(y))
			}
		case minic.Shr:
			if y >= 0 && y < 63 {
				return sym.MakeInt(x >> uint(y))
			}
		case minic.Amp:
			return sym.MakeInt(x & y)
		case minic.Pipe:
			return sym.MakeInt(x | y)
		case minic.Caret:
			return sym.MakeInt(x ^ y)
		case minic.EqEq:
			return boolVal(x == y)
		case minic.NotEq:
			return boolVal(x != y)
		case minic.Lt:
			return boolVal(x < y)
		case minic.Gt:
			return boolVal(x > y)
		case minic.Le:
			return boolVal(x <= y)
		case minic.Ge:
			return boolVal(x >= y)
		case minic.AmpAmp:
			return boolVal(x != 0 && y != 0)
		case minic.PipePipe:
			return boolVal(x != 0 || y != 0)
		}
	}
	return sym.Unknown
}

func boolVal(b bool) sym.Value {
	if b {
		return sym.MakeInt(1)
	}
	return sym.MakeInt(0)
}

// loadVar loads a plain variable, firing the Location callback.
func (ex *exec) loadVar(pc *pathCtx, id *minic.Ident) sym.Value {
	var r sym.RegionID
	if _, isLocal := ex.decls[id.Name]; isLocal || ex.localDeclared[id.Name] {
		r = ex.arena.VarRegion(id.Name, id.Pos)
	} else {
		r = ex.arena.GlobalRegion(id.Name, id.Pos)
	}
	_, bound := pc.state.LookupRegion(r)
	return ex.loadRegion(pc, r, &checker.Access{
		Pointee: r, IsLoad: true, Direct: true,
		UninitLoad: !bound && ex.localDeclared[id.Name],
		Expr:       id, Pos: id.Pos,
	})
}

// loadRegion returns the value stored in r, conjuring (and binding) a
// fresh symbol for never-written regions, and fires the Location event.
func (ex *exec) loadRegion(pc *pathCtx, r sym.RegionID, ac *checker.Access) sym.Value {
	ex.fireLocation(pc, ac)
	if v, ok := pc.state.LookupRegion(r); ok {
		return v
	}
	s := ex.arena.NewSymbol("load:"+ex.arena.Describe(r), ac.Pos)
	if reg := ex.arena.Region(r); reg != nil {
		if t, ok := ex.typeOfRegion(r); ok && isUnsignedType(t) && !t.IsPointer() {
			pc.state = pc.state.WithRange(s, sym.FullRange.AtLeast(0))
		}
	}
	v := sym.MakeSym(s)
	pc.state = pc.state.BindRegion(r, v)
	return v
}

func (ex *exec) fireLocation(pc *pathCtx, ac *checker.Access) {
	if lc, ok := ex.ck.(checker.LocationChecker); ok {
		ex.fire(pc, ac.Pos, func(c *checker.Context) { lc.CheckLocation(ac, c) })
	}
}

// lvalueRegion resolves an expression to the region it denotes. When
// forStore is true the access events fired for any embedded dereference
// are marked as stores.
func (ex *exec) lvalueRegion(pc *pathCtx, e minic.Expr, forStore bool) (sym.RegionID, bool) {
	switch x := minic.Unparen(e).(type) {
	case *minic.Ident:
		if _, isLocal := ex.decls[x.Name]; isLocal || ex.localDeclared[x.Name] {
			return ex.arena.VarRegion(x.Name, x.Pos), true
		}
		return ex.arena.GlobalRegion(x.Name, x.Pos), true
	case *minic.MemberExpr:
		r, ptr := ex.memberRegion(pc, x, false)
		if x.Arrow {
			ex.fireLocation(pc, &checker.Access{
				PtrValue: ptr, Pointee: r, IsLoad: !forStore, FieldName: x.Name,
				Expr: x, Pos: x.Pos,
			})
		}
		return r, true
	case *minic.IndexExpr:
		r, ptr, idxV, alen := ex.indexRegion(pc, x)
		ex.fireLocation(pc, &checker.Access{
			PtrValue: ptr, Pointee: r, IsLoad: !forStore, Index: idxV,
			ArrayLen: alen, Expr: x, Pos: x.Pos,
		})
		return r, true
	case *minic.UnaryExpr:
		if x.Op == minic.Star {
			pv := ex.evalExpr(pc, x.X)
			r := ex.pointeeOf(pv, x.Pos)
			ex.fireLocation(pc, &checker.Access{
				PtrValue: pv, Pointee: r, IsLoad: !forStore, Expr: x, Pos: x.Pos,
			})
			return r, true
		}
	case *minic.CastExpr:
		return ex.lvalueRegion(pc, x.X, forStore)
	}
	return sym.NoRegion, false
}

// memberRegion resolves x.f / x->f to a field region. Returns the region
// and, for arrow accesses, the pointer value that was dereferenced. The
// load event for the *resulting field* is fired by the caller; this
// method does not fire it (it does evaluate the base, which fires base
// events).
func (ex *exec) memberRegion(pc *pathCtx, x *minic.MemberExpr, _ bool) (sym.RegionID, sym.Value) {
	if x.Arrow {
		pv := ex.evalExpr(pc, x.X)
		base := ex.pointeeOf(pv, x.Pos)
		return ex.arena.FieldRegion(base, x.Name, x.Pos), pv
	}
	base, ok := ex.lvalueRegion(pc, x.X, false)
	if !ok {
		pv := ex.evalExpr(pc, x.X)
		base = ex.pointeeOf(pv, x.Pos)
		return ex.arena.FieldRegion(base, x.Name, x.Pos), pv
	}
	return ex.arena.FieldRegion(base, x.Name, x.Pos), sym.Unknown
}

// indexRegion resolves a[i] to an element region; returns region, any
// dereferenced pointer value, the index value, and the declared array
// length (0 when unknown).
func (ex *exec) indexRegion(pc *pathCtx, x *minic.IndexExpr) (sym.RegionID, sym.Value, sym.Value, int) {
	idxV := ex.evalExpr(pc, x.Idx)
	idxConst := int64(-1)
	if idxV.IsConcreteInt() && idxV.Int >= 0 {
		idxConst = idxV.Int
	}
	// Array-typed lvalue base: subscript the array region directly.
	if base, ok := ex.lvalueRegionForArray(pc, x.X); ok {
		alen := 0
		if reg := ex.arena.Region(base); reg != nil {
			alen = reg.ArrayLen
		}
		return ex.arena.ElemRegion(base, idxConst, x.Pos), sym.Unknown, idxV, alen
	}
	// Pointer base: dereference.
	pv := ex.evalExpr(pc, x.X)
	base := ex.pointeeOf(pv, x.Pos)
	alen := 0
	if reg := ex.arena.Region(base); reg != nil {
		alen = reg.ArrayLen
	}
	return ex.arena.ElemRegion(base, idxConst, x.Pos), pv, idxV, alen
}

// lvalueRegionForArray resolves base expressions that denote fixed
// arrays (array-typed variables and array-typed struct fields).
func (ex *exec) lvalueRegionForArray(pc *pathCtx, e minic.Expr) (sym.RegionID, bool) {
	switch x := minic.Unparen(e).(type) {
	case *minic.Ident:
		if t, ok := ex.decls[x.Name]; ok && t.IsArray() {
			r := ex.arena.VarRegion(x.Name, x.Pos)
			ex.arena.SetArrayLen(r, t.ArrayLen)
			return r, true
		}
	case *minic.MemberExpr:
		if ft, ok := ex.fieldType(x); ok && ft.IsArray() {
			r, _ := ex.memberRegion(pc, x, false)
			ex.arena.SetArrayLen(r, ft.ArrayLen)
			return r, true
		}
	}
	return sym.NoRegion, false
}

// pointeeOf returns the region a pointer value points to, conjuring a
// symbolic region for opaque pointers.
func (ex *exec) pointeeOf(v sym.Value, pos minic.Pos) sym.RegionID {
	switch v.Kind {
	case sym.KindLoc:
		return v.Reg
	case sym.KindSymbol:
		prov := ""
		if info := ex.arena.Symbol(v.Sym); info != nil {
			prov = info.ConjuredBy
		}
		if strings.HasPrefix(prov, "param:") || strings.HasPrefix(prov, "load:") {
			prov = ""
		}
		return ex.arena.SymRegionFor(v.Sym, prov, pos)
	default:
		s := ex.arena.NewSymbol("opaque", pos)
		return ex.arena.SymRegionFor(s, "", pos)
	}
}

// --- calls ---

func (ex *exec) evalCall(pc *pathCtx, call *minic.CallExpr) sym.Value {
	// Annotation wrappers are identity functions.
	if (call.Fun == "unlikely" || call.Fun == "likely") && len(call.Args) == 1 {
		return ex.evalExpr(pc, call.Args[0])
	}

	args := make([]sym.Value, len(call.Args))
	argRegions := make([]sym.RegionID, len(call.Args))
	argPointees := make([]sym.RegionID, len(call.Args))
	for i, a := range call.Args {
		args[i] = ex.evalExpr(pc, a)
		if id, ok := minic.Unparen(a).(*minic.Ident); ok {
			if _, isKnown := ex.decls[id.Name]; isKnown || ex.localDeclared[id.Name] {
				argRegions[i] = ex.arena.VarRegion(id.Name, id.Pos)
			}
		}
		switch args[i].Kind {
		case sym.KindLoc:
			argPointees[i] = args[i].Reg
		case sym.KindSymbol:
			if r, ok := ex.arena.ExistingSymRegion(args[i].Sym); ok {
				argPointees[i] = r
			}
		}
	}

	ev := &checker.CallEvent{
		Callee: call.Fun, Expr: call, Args: args,
		ArgRegions: argRegions, ArgPointees: argPointees, Pos: call.Pos,
	}
	if pcc, ok := ex.ck.(checker.PreCallChecker); ok {
		ex.fire(pc, call.Pos, func(c *checker.Context) { pcc.CheckPreCall(ev, c) })
	}

	ret := ex.builtinReturn(pc, call, args)
	ev.Ret = ret
	if pcc, ok := ex.ck.(checker.PostCallChecker); ok {
		ex.fire(pc, call.Pos, func(c *checker.Context) { pcc.CheckPostCall(ev, c) })
	}
	return ret
}

// builtinReturn models return values for a small set of pure helpers and
// conjures fresh symbols for everything else.
func (ex *exec) builtinReturn(pc *pathCtx, call *minic.CallExpr, args []sym.Value) sym.Value {
	switch call.Fun {
	case "min", "max":
		if len(args) == 2 {
			return ex.minMax(pc, call.Fun == "min", args[0], args[1], call.Pos)
		}
	case "min_t", "max_t":
		if len(args) == 3 {
			return ex.minMax(pc, call.Fun == "min_t", args[1], args[2], call.Pos)
		}
	case "array_size", "array3_size", "struct_size":
		// Kernel overflow-safe size helpers: non-negative, saturating.
		s := ex.arena.NewSymbol(call.Fun, call.Pos)
		pc.state = pc.state.WithRange(s, sym.FullRange.AtLeast(0))
		return sym.MakeSym(s)
	}
	s := ex.arena.NewSymbol(call.Fun, call.Pos)
	return sym.MakeSym(s)
}

func (ex *exec) minMax(pc *pathCtx, isMin bool, a, b sym.Value, pos minic.Pos) sym.Value {
	ra, rb := pc.state.RangeOf(a), pc.state.RangeOf(b)
	var out sym.Range
	if isMin {
		out = sym.Range{Min: min(ra.Min, rb.Min), Max: min(ra.Max, rb.Max)}
	} else {
		out = sym.Range{Min: max(ra.Min, rb.Min), Max: max(ra.Max, rb.Max)}
	}
	s := ex.arena.NewSymbol("minmax", pos)
	pc.state = pc.state.WithRange(s, out)
	return sym.MakeSym(s)
}

// --- sizeof / type resolution ---

var primitiveSizes = map[string]int64{
	"char": 1, "bool": 1, "u8": 1, "s8": 1,
	"u16": 2, "s16": 2,
	"int": 4, "u32": 4, "s32": 4, "unsigned": 4, "gfp_t": 4, "irqreturn_t": 4,
	"long": 8, "long long": 8, "u64": 8, "s64": 8, "size_t": 8, "ssize_t": 8,
	"loff_t": 8, "dma_addr_t": 8, "uintptr_t": 8, "void": 1,
}

func (ex *exec) sizeofValue(x *minic.SizeofExpr) int64 {
	if x.Type != nil {
		return ex.sizeOfType(*x.Type, 0)
	}
	if t, ok := ex.typeOfExpr(x.X); ok {
		return ex.sizeOfType(t, 0)
	}
	return 8
}

func (ex *exec) sizeOfType(t minic.Type, depth int) int64 {
	if depth > 8 {
		return 8
	}
	var elem int64
	switch {
	case t.Stars > 0:
		elem = 8
	case strings.HasPrefix(t.Base, "struct "):
		name := strings.TrimPrefix(t.Base, "struct ")
		sd := ex.structDecl(name)
		if sd == nil {
			elem = 8
		} else {
			var total int64
			for _, f := range sd.Fields {
				total += ex.sizeOfType(f.Type, depth+1)
			}
			if total == 0 {
				total = 1
			}
			elem = total
		}
	default:
		if s, ok := primitiveSizes[t.Base]; ok {
			elem = s
		} else {
			elem = 4
		}
	}
	if t.ArrayLen > 0 && t.Stars == 0 {
		return elem * int64(t.ArrayLen)
	}
	return elem
}

// typeOfExpr resolves the static type of simple expressions (enough for
// sizeof(expr) and buffer-length reasoning).
func (ex *exec) typeOfExpr(e minic.Expr) (minic.Type, bool) {
	switch x := minic.Unparen(e).(type) {
	case *minic.Ident:
		t, ok := ex.decls[x.Name]
		return t, ok
	case *minic.UnaryExpr:
		if x.Op == minic.Star {
			t, ok := ex.typeOfExpr(x.X)
			if ok && t.Stars > 0 {
				t.Stars--
				return t, true
			}
		}
	case *minic.MemberExpr:
		return ex.fieldType(x)
	case *minic.IndexExpr:
		t, ok := ex.typeOfExpr(x.X)
		if !ok {
			return t, false
		}
		if t.ArrayLen > 0 {
			t.ArrayLen = 0
			return t, true
		}
		if t.Stars > 0 {
			t.Stars--
			return t, true
		}
	case *minic.CastExpr:
		return x.Type, true
	}
	return minic.Type{}, false
}

// structDecl finds a struct of the file by name. A file declares a
// handful, so scanning them beats building an index per function.
func (ex *exec) structDecl(name string) *minic.StructDecl {
	var found *minic.StructDecl
	for _, sd := range ex.file.Structs {
		if sd.Name == name {
			found = sd // the last declaration of a name wins
		}
	}
	return found
}

// fieldType resolves the declared type of a member access via the
// file's struct table.
func (ex *exec) fieldType(m *minic.MemberExpr) (minic.Type, bool) {
	bt, ok := ex.typeOfExpr(m.X)
	if !ok {
		return minic.Type{}, false
	}
	if !strings.HasPrefix(bt.Base, "struct ") {
		return minic.Type{}, false
	}
	sd := ex.structDecl(strings.TrimPrefix(bt.Base, "struct "))
	if sd == nil {
		return minic.Type{}, false
	}
	for _, f := range sd.Fields {
		if f.Name == m.Name {
			return f.Type, true
		}
	}
	return minic.Type{}, false
}

// typeOfRegion resolves the declared type of a var region.
func (ex *exec) typeOfRegion(r sym.RegionID) (minic.Type, bool) {
	reg := ex.arena.Region(r)
	if reg == nil || (reg.Kind != sym.VarRegion && reg.Kind != sym.GlobalRegion) {
		return minic.Type{}, false
	}
	t, ok := ex.decls[reg.Name]
	return t, ok
}
