// Package qasm implements an OpenQASM 2.0 front end (lexer, parser,
// macro-expanding loader) and a writer. It is the circuit-ingestion
// substrate for the S-SYNC compiler: no third-party quantum libraries exist
// for Go, so parsing is rebuilt from the OpenQASM 2.0 specification.
//
// Supported: OPENQASM header, include (ignored; qelib1 gates are built in),
// qreg/creg, builtin U/CX, the qelib1 standard-gate set, user-defined gate
// declarations (expanded inline), barrier, measure, reset, classical
// control (`if (creg==n) qop;`, represented as circuit.Condition on the
// emitted gates), and constant arithmetic parameter expressions with pi.
// Unsupported: opaque gates (reported as positioned errors).
package qasm

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // one of ( ) [ ] { } ; , -> + - * / ^ =
	tokArrow  // ->
)

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "EOF"
	case tokString:
		return fmt.Sprintf("%q", t.text)
	default:
		return t.text
	}
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// posError is a parse failure positioned at a source line and column.
// Every error Parse returns is one.
type posError struct {
	line, col int
	err       error
}

func (e *posError) Error() string {
	return fmt.Sprintf("qasm: line %d, col %d: %v", e.line, e.col, e.err)
}

func (e *posError) Unwrap() error { return e.err }

func (l *lexer) errorf(format string, args ...interface{}) error {
	return &posError{line: l.line, col: l.col, err: fmt.Errorf(format, args...)}
}

func (l *lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) advance() byte {
	b := l.src[l.pos]
	l.pos++
	if b == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return b
}

func (l *lexer) skipSpaceAndComments() error {
	for {
		b, ok := l.peekByte()
		if !ok {
			return nil
		}
		switch {
		case b == ' ' || b == '\t' || b == '\r' || b == '\n':
			l.advance()
		case b == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for {
				b, ok := l.peekByte()
				if !ok || b == '\n' {
					break
				}
				l.advance()
			}
		case b == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.src[l.pos] == '*' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errorf("unterminated block comment")
			}
		default:
			return nil
		}
	}
}

func isIdentStart(b byte) bool {
	return b == '_' || unicode.IsLetter(rune(b))
}

func isIdentPart(b byte) bool {
	return b == '_' || unicode.IsLetter(rune(b)) || unicode.IsDigit(rune(b))
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	startLine, startCol := l.line, l.col
	b, ok := l.peekByte()
	if !ok {
		return token{kind: tokEOF, line: startLine, col: startCol}, nil
	}
	switch {
	case isIdentStart(b):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.advance()
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: startLine, col: startCol}, nil
	case unicode.IsDigit(rune(b)) || (b == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
		start := l.pos
		seenDot, seenExp := false, false
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			if unicode.IsDigit(rune(c)) {
				l.advance()
			} else if c == '.' && !seenDot && !seenExp {
				seenDot = true
				l.advance()
			} else if (c == 'e' || c == 'E') && !seenExp {
				seenExp = true
				l.advance()
				if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
					l.advance()
				}
			} else {
				break
			}
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], line: startLine, col: startCol}, nil
	case b == '"':
		l.advance()
		start := l.pos
		for {
			c, ok := l.peekByte()
			if !ok {
				return token{}, l.errorf("unterminated string literal")
			}
			if c == '"' {
				break
			}
			l.advance()
		}
		text := l.src[start:l.pos]
		l.advance() // closing quote
		return token{kind: tokString, text: text, line: startLine, col: startCol}, nil
	case b == '-':
		l.advance()
		if c, ok := l.peekByte(); ok && c == '>' {
			l.advance()
			return token{kind: tokArrow, text: "->", line: startLine, col: startCol}, nil
		}
		return token{kind: tokSymbol, text: "-", line: startLine, col: startCol}, nil
	case strings.IndexByte("()[]{};,+*/^=", b) >= 0:
		l.advance()
		return token{kind: tokSymbol, text: string(b), line: startLine, col: startCol}, nil
	default:
		return token{}, l.errorf("unexpected character %q", string(b))
	}
}
