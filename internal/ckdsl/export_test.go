package ckdsl

import (
	"knighter/internal/cfg"
	"knighter/internal/minic"
)

// RandomSpec exposes randomSpec to the package's external tests.
var RandomSpec = randomSpec

// FlowWhy returns why ck's dataflow rule calls fn loud, "" when it calls
// it quiet, or "no rule" when ck's spec has none. It neither reads nor
// fills a verdict memo, and skips the footprint proof and the strict
// argument check.
func FlowWhy(ck *Compiled, fn *minic.FuncDecl) string {
	if ck.rule == nil {
		return "no rule"
	}
	return ck.rule.why(fn)
}

// BlockCalls lowers fn as the pass does and returns, per CFG block, the
// callees of its call events in the pass's order, the block's successors
// and whether it returns. ok is false when the pass cannot model fn.
func BlockCalls(fn *minic.FuncDecl) (calls [][]string, succs [][]int32, returns []bool, ok bool) {
	fl := flowPool.Get().(*flow)
	defer fl.release()
	if !fl.build(fn) {
		return nil, nil, nil, false
	}
	for b := range fl.g.Blocks {
		var names []string
		for _, o := range fl.ops[fl.at[b]:fl.at[b+1]] {
			if o.kind == opCall {
				names = append(names, o.call.Fun)
			}
		}
		t := &fl.g.Blocks[b].Term
		calls = append(calls, names)
		succs = append(succs, append([]int32(nil), t.Succs()...))
		returns = append(returns, t.Kind == cfg.Return)
	}
	return calls, succs, returns, true
}
