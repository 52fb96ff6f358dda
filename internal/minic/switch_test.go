package minic

import (
	"strings"
	"testing"
)

func TestSwitchDesugarsToIfChain(t *testing.T) {
	src := `
int f(int state)
{
	switch (state) {
	case 0:
		return 10;
	case 1:
		return 11;
	default:
		return -1;
	}
}
`
	fn, err := parseFunc("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ifs, ok := fn.Body.Stmts[0].(*IfStmt)
	if !ok {
		t.Fatalf("top = %T", fn.Body.Stmts[0])
	}
	cond, ok := ifs.Cond.(*BinaryExpr)
	if !ok || cond.Op != EqEq {
		t.Fatalf("cond = %v", FormatExpr(ifs.Cond))
	}
	second, ok := ifs.Else.(*IfStmt)
	if !ok {
		t.Fatalf("else = %T", ifs.Else)
	}
	if _, ok := second.Else.(*Block); !ok {
		t.Fatalf("default arm = %T", second.Else)
	}
	// Round trip through the printer (as an if-chain).
	out := FormatFunc(fn)
	if !strings.Contains(out, "state == 0") || !strings.Contains(out, "else") {
		t.Errorf("printed form:\n%s", out)
	}
	if _, err := ParseFile("rt.c", out); err != nil {
		t.Errorf("printed form does not reparse: %v", err)
	}
}

func TestSwitchTrailingBreaksStripped(t *testing.T) {
	src := `
int f(int state, struct dev *d)
{
	int r = 0;
	switch (state) {
	case 1:
		r = d->a;
		break;
	case 2:
		r = d->b;
		break;
	}
	return r;
}
`
	fn, err := parseFunc("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	// No BreakStmt may survive (it would be a CFG error outside loops).
	var found bool
	var visit func(s Stmt)
	visit = func(s Stmt) {
		switch x := s.(type) {
		case *BreakStmt:
			found = true
		case *Block:
			for _, sub := range x.Stmts {
				visit(sub)
			}
		case *IfStmt:
			visit(x.Then)
			if x.Else != nil {
				visit(x.Else)
			}
		}
	}
	for _, s := range fn.Body.Stmts {
		visit(s)
	}
	if found {
		t.Error("trailing break survived desugaring")
	}
}

func TestSwitchRejectsFallthrough(t *testing.T) {
	src := `
int f(int state)
{
	switch (state) {
	case 0:
		log_it();
	case 1:
		return 1;
	}
	return 0;
}
`
	_, err := ParseFile("t.c", src)
	if err == nil || !strings.Contains(err.Error(), "fallthrough") {
		t.Fatalf("err = %v, want fallthrough rejection", err)
	}
}

func TestSwitchCaseAfterDefaultRejected(t *testing.T) {
	src := `
int f(int s)
{
	switch (s) {
	default:
		return 0;
	case 1:
		return 1;
	}
}
`
	if _, err := ParseFile("t.c", src); err == nil {
		t.Fatal("case after default should be rejected")
	}
}

func TestSwitchSymbolicConstants(t *testing.T) {
	src := `
int f(int cmd)
{
	switch (cmd) {
	case CMD_START:
		return start();
	case CMD_STOP:
		return stop();
	default:
		return -EINVAL;
	}
}
`
	if _, err := ParseFile("t.c", src); err != nil {
		t.Fatalf("symbolic case labels: %v", err)
	}
}

func TestSwitchLabelGrouping(t *testing.T) {
	src := `
int f(int cmd)
{
	switch (cmd) {
	case 0:
	case 1:
		return 10;
	default:
		return -1;
	}
}
`
	fn, err := parseFunc("t.c", src)
	if err != nil {
		t.Fatalf("grouped labels: %v", err)
	}
	ifs := fn.Body.Stmts[0].(*IfStmt)
	cond, ok := ifs.Cond.(*BinaryExpr)
	if !ok || cond.Op != PipePipe {
		t.Fatalf("grouped cond = %v", FormatExpr(ifs.Cond))
	}
}

func TestSwitchCaseEndingInGotoAllowed(t *testing.T) {
	src := `
int f(int cmd)
{
	switch (cmd) {
	case 0:
		goto out;
	case 1:
		return 1;
	}
	return 2;
out:
	return 0;
}
`
	if _, err := ParseFile("t.c", src); err != nil {
		t.Fatalf("goto-terminated case: %v", err)
	}
}
