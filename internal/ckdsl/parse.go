package ckdsl

import (
	"fmt"
	"strconv"
	"strings"
)

// CompileError is a checker "compilation" failure: either a syntax error
// in the DSL text or a registration-time semantic rejection. Its message
// format feeds the synthesis pipeline's repair agent.
type CompileError struct {
	Line int
	Msg  string
}

func (e *CompileError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("checker:%d: %s", e.Line, e.Msg)
	}
	return "checker: " + e.Msg
}

type dslToken struct {
	text   string
	isStr  bool
	isInt  bool
	intVal int
	line   int
}

func scanDSL(src string) ([]dslToken, error) {
	var toks []dslToken
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#': // comment to end of line
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '{' || c == '}':
			toks = append(toks, dslToken{text: string(c), line: line})
			i++
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' && src[j] != '\n' {
				j++
			}
			if j >= len(src) || src[j] != '"' {
				return nil, &CompileError{Line: line, Msg: "unterminated string literal"}
			}
			toks = append(toks, dslToken{text: src[i+1 : j], isStr: true, line: line})
			i = j + 1
		default:
			j := i
			for j < len(src) && !strings.ContainsRune(" \t\r\n{}\"#", rune(src[j])) {
				j++
			}
			word := src[i:j]
			tk := dslToken{text: word, line: line}
			// Only a word that starts like a number can be one: Atoi
			// allocates its error for every other word.
			if c := word[0]; c >= '0' && c <= '9' || c == '-' || c == '+' {
				if n, err := strconv.Atoi(word); err == nil {
					tk.isInt = true
					tk.intVal = n
				}
			}
			toks = append(toks, tk)
			i = j
		}
	}
	return toks, nil
}

type dslParser struct {
	toks []dslToken
	pos  int
}

func (p *dslParser) cur() dslToken {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	last := 1
	if len(p.toks) > 0 {
		last = p.toks[len(p.toks)-1].line
	}
	return dslToken{text: "<eof>", line: last}
}

func (p *dslParser) next() dslToken { t := p.cur(); p.pos++; return t }

func (p *dslParser) errf(format string, args ...any) error {
	return &CompileError{Line: p.cur().line, Msg: fmt.Sprintf(format, args...)}
}

func (p *dslParser) expectWord(w string) error {
	t := p.next()
	if t.isStr || t.text != w {
		return &CompileError{Line: t.line, Msg: fmt.Sprintf("expected %q, found %q", w, t.text)}
	}
	return nil
}

func (p *dslParser) expectString() (string, int, error) {
	t := p.next()
	if !t.isStr {
		return "", t.line, &CompileError{Line: t.line, Msg: fmt.Sprintf("expected string literal, found %q", t.text)}
	}
	return t.text, t.line, nil
}

func (p *dslParser) expectInt() (int, error) {
	t := p.next()
	if !t.isInt {
		return 0, &CompileError{Line: t.line, Msg: fmt.Sprintf("expected integer, found %q", t.text)}
	}
	return t.intVal, nil
}

// Parse parses DSL source into a Spec. Errors are CompileErrors (the
// pipeline's "compilation failure" class).
func Parse(src string) (*Spec, error) {
	toks, err := scanDSL(src)
	if err != nil {
		return nil, err
	}
	p := &dslParser{toks: toks}
	if err := p.expectWord("checker"); err != nil {
		return nil, err
	}
	name := p.next()
	if name.isStr || name.text == "{" {
		return nil, &CompileError{Line: name.line, Msg: "expected checker name"}
	}
	spec := &Spec{Name: name.text}
	if err := p.expectWord("{"); err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.text == "}" && !t.isStr {
			p.next()
			break
		}
		if t.text == "<eof>" {
			return nil, p.errf("unexpected end of checker body")
		}
		if err := p.parseDirective(spec); err != nil {
			return nil, err
		}
	}
	if spec.BugTypeName == "" {
		return nil, &CompileError{Msg: "checker has no bugtype directive"}
	}
	if len(spec.Sinks) == 0 {
		return nil, &CompileError{Msg: "checker has no sink: it can never report"}
	}
	return spec, nil
}

func (p *dslParser) parseDirective(spec *Spec) error {
	t := p.next()
	if t.isStr {
		return &CompileError{Line: t.line, Msg: fmt.Sprintf("unexpected string %q at directive position", t.text)}
	}
	switch t.text {
	case "bugtype":
		s, _, err := p.expectString()
		if err != nil {
			return err
		}
		spec.BugTypeName = s
	case "description":
		s, _, err := p.expectString()
		if err != nil {
			return err
		}
		spec.Description = s
	case "track":
		w := p.next()
		switch w.text {
		case "aliases":
			spec.TrackAlias = true
		case "regions":
			spec.TrackAlias = false
		default:
			return &CompileError{Line: w.line, Msg: fmt.Sprintf("unknown track mode %q (want aliases or regions)", w.text)}
		}
	case "unwrap":
		for p.cur().isStr {
			spec.Unwrap = append(spec.Unwrap, p.next().text)
		}
		if len(spec.Unwrap) == 0 {
			return p.errf("unwrap requires at least one wrapper name")
		}
	case "source":
		return p.parseSource(spec)
	case "guard":
		return p.parseGuard(spec)
	case "sink":
		return p.parseSink(spec)
	default:
		return &CompileError{Line: t.line, Msg: fmt.Sprintf("unknown directive %q", t.text)}
	}
	return nil
}

func (p *dslParser) parseSource(spec *Spec) error {
	if err := p.expectWord("{"); err != nil {
		return err
	}
	t := p.next()
	var rule SourceRule
	rule.Line = t.line
	switch t.text {
	case "call":
		callee, _, err := p.expectString()
		if err != nil {
			return err
		}
		rule.Callee = callee
		verb := p.next()
		switch verb.text {
		case "yields":
			rule.Kind = SrcCallYields
			y := p.next()
			switch y.text {
			case "nullable", "alloc", "taint":
				rule.Yields = y.text
			default:
				return &CompileError{Line: y.line, Msg: fmt.Sprintf("unknown yield class %q (want nullable, alloc, or taint)", y.text)}
			}
		case "frees", "locks", "unlocks", "derives", "writes":
			switch verb.text {
			case "frees":
				rule.Kind = SrcCallFrees
			case "locks":
				rule.Kind = SrcCallLocks
			case "unlocks":
				rule.Kind = SrcCallUnlocks
			case "derives":
				rule.Kind = SrcCallDerives
			case "writes":
				rule.Kind = SrcCallWrites
			}
			if err := p.expectWord("arg"); err != nil {
				return err
			}
			n, err := p.expectInt()
			if err != nil {
				return err
			}
			rule.Arg = n
			if rule.Kind == SrcCallWrites {
				if err := p.expectWord("unterminated"); err != nil {
					return err
				}
			}
		default:
			return &CompileError{Line: verb.line, Msg: fmt.Sprintf("unknown source verb %q", verb.text)}
		}
	case "decl":
		if err := p.expectWord("uninit"); err != nil {
			return err
		}
		rule.Kind = SrcDeclUninit
		if p.cur().text == "cleanup-only" && !p.cur().isStr {
			p.next()
			rule.CleanupOnly = true
		}
	default:
		return &CompileError{Line: t.line, Msg: fmt.Sprintf("unknown source form %q", t.text)}
	}
	spec.Sources = append(spec.Sources, rule)
	return p.expectWord("}")
}

func (p *dslParser) parseGuard(spec *Spec) error {
	if err := p.expectWord("{"); err != nil {
		return err
	}
	t := p.next()
	var rule GuardRule
	rule.Line = t.line
	switch t.text {
	case "nullcheck":
		rule.Kind = GuardNullCheck
	case "boundcheck":
		rule.Kind = GuardBoundCheck
	case "assign":
		if err := p.expectWord("initializes"); err != nil {
			return err
		}
		rule.Kind = GuardAssignInit
	case "terminate":
		if err := p.expectWord("elem"); err != nil {
			return err
		}
		if err := p.expectWord("zero"); err != nil {
			return err
		}
		rule.Kind = GuardTerminate
	case "call":
		callee, _, err := p.expectString()
		if err != nil {
			return err
		}
		rule.Callee = callee
		if err := p.expectWord("releases"); err != nil {
			return err
		}
		if err := p.expectWord("arg"); err != nil {
			return err
		}
		n, err := p.expectInt()
		if err != nil {
			return err
		}
		rule.Kind = GuardCallReleases
		rule.Arg = n
	default:
		return &CompileError{Line: t.line, Msg: fmt.Sprintf("unknown guard form %q", t.text)}
	}
	spec.Guards = append(spec.Guards, rule)
	return p.expectWord("}")
}

func (p *dslParser) parseSink(spec *Spec) error {
	if err := p.expectWord("{"); err != nil {
		return err
	}
	t := p.next()
	var rule SinkRule
	rule.Line = t.line
	switch t.text {
	case "deref":
		w := p.next()
		switch w.text {
		case "unchecked":
			rule.Kind = SinkDerefUnchecked
		case "freed":
			rule.Kind = SinkDerefFreed
		default:
			return &CompileError{Line: w.line, Msg: fmt.Sprintf("unknown deref state %q (want unchecked or freed)", w.text)}
		}
	case "use":
		if err := p.expectWord("uninit"); err != nil {
			return err
		}
		rule.Kind = SinkUseUninit
	case "index":
		w := p.next()
		switch w.text {
		case "tainted":
			rule.Kind = SinkIndexTainted
		case "constant-oob":
			rule.Kind = SinkIndexConstOOB
		default:
			return &CompileError{Line: w.line, Msg: fmt.Sprintf("unknown index sink %q", w.text)}
		}
	case "end-of-function":
		w := p.next()
		switch w.text {
		case "holding":
			rule.Kind = SinkEndHeld
			h := p.next()
			if h.text != "alloc" && h.text != "locked" {
				return &CompileError{Line: h.line, Msg: fmt.Sprintf("unknown held state %q (want alloc or locked)", h.text)}
			}
			rule.Holding = h.text
		case "cleanup":
			if err := p.expectWord("uninit"); err != nil {
				return err
			}
			rule.Kind = SinkEndUninitCleanup
		default:
			return &CompileError{Line: w.line, Msg: fmt.Sprintf("unknown end-of-function sink %q", w.text)}
		}
	case "mul-overflow":
		if err := p.expectWord("into"); err != nil {
			return err
		}
		callee, _, err := p.expectString()
		if err != nil {
			return err
		}
		rule.Kind = SinkMulOverflow
		rule.Callee = callee
		if err := p.expectWord("arg"); err != nil {
			return err
		}
		n, err := p.expectInt()
		if err != nil {
			return err
		}
		rule.Arg = n
		if err := p.expectWord("bits"); err != nil {
			return err
		}
		b, err := p.expectInt()
		if err != nil {
			return err
		}
		rule.Bits = uint(b)
	case "call":
		callee, _, err := p.expectString()
		if err != nil {
			return err
		}
		rule.Callee = callee
		w := p.next()
		switch w.text {
		case "arg":
			n, err := p.expectInt()
			if err != nil {
				return err
			}
			rule.Arg = n
			st := p.next()
			switch st.text {
			case "freed":
				rule.Kind = SinkCallArgFreed
			case "locked":
				rule.Kind = SinkCallArgLocked
			case "unterminated":
				rule.Kind = SinkCallArgUnterminated
			case "possibly-negative":
				rule.Kind = SinkCallArgNegative
			default:
				return &CompileError{Line: st.line, Msg: fmt.Sprintf("unknown call-arg state %q", st.text)}
			}
		case "size-arg":
			n, err := p.expectInt()
			if err != nil {
				return err
			}
			rule.SizeArg = n
			if err := p.expectWord("buf-arg"); err != nil {
				return err
			}
			m, err := p.expectInt()
			if err != nil {
				return err
			}
			rule.BufArg = m
			rule.Kind = SinkCopyOverflow
			if p.cur().text == "slack" && !p.cur().isStr {
				p.next()
				k, err := p.expectInt()
				if err != nil {
					return err
				}
				rule.Slack = k
			}
		default:
			return &CompileError{Line: w.line, Msg: fmt.Sprintf("unknown call sink form %q", w.text)}
		}
	default:
		return &CompileError{Line: t.line, Msg: fmt.Sprintf("unknown sink form %q", t.text)}
	}
	if p.cur().text == "report" && !p.cur().isStr {
		p.next()
		msg, _, err := p.expectString()
		if err != nil {
			return err
		}
		rule.Message = msg
	}
	spec.Sinks = append(spec.Sinks, rule)
	return p.expectWord("}")
}
