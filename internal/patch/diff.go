// Package patch renders unified diffs between two versions of a source
// file. The diffs are what the synthesis pipeline's agents "read" (the
// paper's input patches) and what commit messages embed.
package patch

import (
	"fmt"
	"strings"
)

// Diff computes a unified diff between two texts with the given number of
// context lines. Paths label the --- / +++ header.
func Diff(aPath, bPath, a, b string, context int) string {
	al := splitLines(a)
	bl := splitLines(b)
	ops := diffOps(al, bl)
	if !hasChange(ops) {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- a/%s\n+++ b/%s\n", aPath, bPath)
	for _, h := range hunks(ops, context) {
		fmt.Fprintf(&sb, "@@ -%d,%d +%d,%d @@\n", h.aStart+1, h.aLen, h.bStart+1, h.bLen)
		for _, op := range h.ops {
			switch op.kind {
			case opEq:
				sb.WriteString(" " + op.text + "\n")
			case opDel:
				sb.WriteString("-" + op.text + "\n")
			case opAdd:
				sb.WriteString("+" + op.text + "\n")
			}
		}
	}
	return sb.String()
}

// AddedLines returns the inserted lines of a unified diff (without '+').
func AddedLines(diff string) []string {
	var out []string
	for _, line := range strings.Split(diff, "\n") {
		if strings.HasPrefix(line, "+") && !strings.HasPrefix(line, "+++") {
			out = append(out, strings.TrimPrefix(line, "+"))
		}
	}
	return out
}

// RemovedLines returns the deleted lines of a unified diff (without '-').
func RemovedLines(diff string) []string {
	var out []string
	for _, line := range strings.Split(diff, "\n") {
		if strings.HasPrefix(line, "-") && !strings.HasPrefix(line, "---") {
			out = append(out, strings.TrimPrefix(line, "-"))
		}
	}
	return out
}

func splitLines(s string) []string {
	s = strings.TrimSuffix(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

type opKind int

const (
	opEq opKind = iota
	opDel
	opAdd
)

type diffOp struct {
	kind opKind
	text string
}

func hasChange(ops []diffOp) bool {
	for _, op := range ops {
		if op.kind != opEq {
			return true
		}
	}
	return false
}

// diffOps computes an edit script via longest-common-subsequence DP. The
// inputs are function-sized, so the quadratic table is fine.
func diffOps(a, b []string) []diffOp {
	n, m := len(a), len(b)
	lcs := make([][]int32, n+1)
	for i := range lcs {
		lcs[i] = make([]int32, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	var ops []diffOp
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case a[i] == b[j]:
			ops = append(ops, diffOp{opEq, a[i]})
			i++
			j++
		case lcs[i+1][j] >= lcs[i][j+1]:
			ops = append(ops, diffOp{opDel, a[i]})
			i++
		default:
			ops = append(ops, diffOp{opAdd, b[j]})
			j++
		}
	}
	for ; i < n; i++ {
		ops = append(ops, diffOp{opDel, a[i]})
	}
	for ; j < m; j++ {
		ops = append(ops, diffOp{opAdd, b[j]})
	}
	return ops
}

type hunk struct {
	aStart, aLen int
	bStart, bLen int
	ops          []diffOp
}

// hunks groups an edit script into unified-diff hunks with context lines.
func hunks(ops []diffOp, context int) []hunk {
	// Mark op indexes that belong to a hunk (changes +/- context).
	include := make([]bool, len(ops))
	for i, op := range ops {
		if op.kind == opEq {
			continue
		}
		lo := i - context
		if lo < 0 {
			lo = 0
		}
		hi := i + context
		if hi >= len(ops) {
			hi = len(ops) - 1
		}
		for k := lo; k <= hi; k++ {
			include[k] = true
		}
	}
	var out []hunk
	aLine, bLine := 0, 0
	i := 0
	for i < len(ops) {
		if !include[i] {
			if ops[i].kind != opAdd {
				aLine++
			}
			if ops[i].kind != opDel {
				bLine++
			}
			i++
			continue
		}
		h := hunk{aStart: aLine, bStart: bLine}
		for i < len(ops) && include[i] {
			op := ops[i]
			h.ops = append(h.ops, op)
			if op.kind != opAdd {
				aLine++
				h.aLen++
			}
			if op.kind != opDel {
				bLine++
				h.bLen++
			}
			i++
		}
		out = append(out, h)
	}
	return out
}
