package minic

import "fmt"

// LexError describes a lexical error at a source position.
type LexError struct {
	Pos Pos
	Msg string
}

func (e *LexError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer turns mini-C source text into a token stream. Comments (// and
// /* */) and preprocessor-style lines beginning with '#' are skipped.
type Lexer struct {
	file string
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src; file is used for positions only.
func NewLexer(file, src string) *Lexer {
	return &Lexer{file: file, src: src, line: 1, col: 1}
}

func (lx *Lexer) pos() Pos { return Pos{File: lx.file, Line: lx.line, Col: lx.col} }

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return &LexError{Pos: start, Msg: "unterminated block comment"}
			}
		case c == '#' && lx.col == 1:
			// Preprocessor directive: skip the line. The corpus uses these
			// only as decorative #include lines.
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}

func isIntSuffix(c byte) bool { return c == 'u' || c == 'U' || c == 'l' || c == 'L' }

// oneByteKinds maps each single-character operator or punctuation byte
// to its kind. EOF, the zero Kind, marks a byte that starts no such
// token.
var oneByteKinds = [256]Kind{
	'(': LParen, ')': RParen, '{': LBrace, '}': RBrace, '[': LBracket,
	']': RBracket, ';': Semi, ',': Comma, ':': Colon, '?': Question,
	'.': Dot, '&': Amp, '|': Pipe, '^': Caret, '~': Tilde, '!': Bang,
	'+': Plus, '-': Minus, '*': Star, '/': Slash, '%': Percent,
	'<': Lt, '>': Gt, '=': Assign,
}

// twoByteKind returns the kind of the two-character operator a b, or
// EOF when the pair is not one.
func twoByteKind(a, b byte) Kind {
	switch uint16(a)<<8 | uint16(b) {
	case '-'<<8 | '>':
		return Arrow
	case '&'<<8 | '&':
		return AmpAmp
	case '|'<<8 | '|':
		return PipePipe
	case '<'<<8 | '=':
		return Le
	case '>'<<8 | '=':
		return Ge
	case '='<<8 | '=':
		return EqEq
	case '!'<<8 | '=':
		return NotEq
	case '<'<<8 | '<':
		return Shl
	case '>'<<8 | '>':
		return Shr
	case '+'<<8 | '=':
		return PlusEq
	case '-'<<8 | '=':
		return MinusEq
	case '*'<<8 | '=':
		return StarEq
	case '/'<<8 | '=':
		return SlashEq
	case '|'<<8 | '=':
		return OrEq
	case '&'<<8 | '=':
		return AndEq
	case '+'<<8 | '+':
		return Inc
	case '-'<<8 | '-':
		return Dec
	}
	return EOF
}

// Next returns the next token in the stream.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		start := lx.off
		for lx.off < len(lx.src) && isIdentPart(lx.peek()) {
			lx.advance()
		}
		word := lx.src[start:lx.off]
		if k, ok := keywords[word]; ok {
			return Token{Kind: k, Val: word, Pos: pos}, nil
		}
		return Token{Kind: IDENT, Val: word, Pos: pos}, nil
	case isDigit(c):
		start := lx.off
		if c == '0' && (lx.peek2() == 'x' || lx.peek2() == 'X') {
			lx.advance()
			lx.advance()
			for lx.off < len(lx.src) && isHexDigit(lx.peek()) {
				lx.advance()
			}
		} else {
			for lx.off < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
		// Swallow integer suffixes (UL, ULL, u, l ...).
		for lx.off < len(lx.src) && isIntSuffix(lx.peek()) {
			lx.advance()
		}
		return Token{Kind: INT, Val: lx.src[start:lx.off], Pos: pos}, nil
	case c == '"':
		// The value is the text between the quotes with escapes kept as
		// written, so it is a substring of the source.
		lx.advance()
		start := lx.off
		for {
			if lx.off >= len(lx.src) {
				return Token{}, &LexError{Pos: pos, Msg: "unterminated string literal"}
			}
			ch := lx.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' && lx.off < len(lx.src) {
				lx.advance()
				continue
			}
			if ch == '\n' {
				return Token{}, &LexError{Pos: pos, Msg: "newline in string literal"}
			}
		}
		return Token{Kind: STRING, Val: lx.src[start : lx.off-1], Pos: pos}, nil
	case c == '\'':
		lx.advance()
		start := lx.off
		for {
			if lx.off >= len(lx.src) {
				return Token{}, &LexError{Pos: pos, Msg: "unterminated char literal"}
			}
			ch := lx.advance()
			if ch == '\'' {
				break
			}
			if ch == '\\' && lx.off < len(lx.src) {
				lx.advance()
			}
		}
		return Token{Kind: CHAR, Val: lx.src[start : lx.off-1], Pos: pos}, nil
	}

	// Operators and punctuation. Longest match first.
	if k := twoByteKind(c, lx.peek2()); k != EOF {
		lx.advance()
		lx.advance()
		return Token{Kind: k, Pos: pos}, nil
	}
	if k := oneByteKinds[c]; k != EOF {
		lx.advance()
		return Token{Kind: k, Pos: pos}, nil
	}
	return Token{}, &LexError{Pos: pos, Msg: fmt.Sprintf("unexpected character %q", string(c))}
}
