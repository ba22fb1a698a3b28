package ops5

import (
	"fmt"
	"strings"
	"unicode"

	"spampsm/internal/symtab"
)

// tokKind classifies lexer tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokDLAngle // <<
	tokDRAngle // >>
	tokCaret   // ^
	tokArrow   // -->
	tokMinus   // - (CE negation)
	tokPred    // <> < <= > >= <=> = (predicate position)
	tokVar     // <name>
	tokAtom    // symbol or number
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokLParen:
		return "("
	case tokRParen:
		return ")"
	case tokLBrace:
		return "{"
	case tokRBrace:
		return "}"
	case tokDLAngle:
		return "<<"
	case tokDRAngle:
		return ">>"
	case tokCaret:
		return "^"
	case tokArrow:
		return "-->"
	case tokMinus:
		return "-"
	case tokPred:
		return "predicate"
	case tokVar:
		return "variable"
	case tokAtom:
		return "atom"
	}
	return "?"
}

type token struct {
	kind   tokKind
	text   string // atom text, variable name (without <>), or predicate symbol
	line   int
	quoted bool // a |quoted| atom: always a symbol
}

// value is an atom's value: a quoted atom is the symbol it spells, a
// bare one a number in decimal syntax or else a symbol (symtab.Parse).
func (t token) value() symtab.Value {
	if t.quoted {
		return symtab.Sym(t.text)
	}
	return symtab.Parse(t.text)
}

func (t token) String() string {
	switch t.kind {
	case tokAtom, tokPred:
		return fmt.Sprintf("%q", t.text)
	case tokVar:
		return fmt.Sprintf("<%s>", t.text)
	default:
		return t.kind.String()
	}
}

// lexer tokenizes OPS5 source. ';' starts a comment to end of line.
// |...| quotes an atom verbatim.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("ops5: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) at(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == ';':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

// atomChar reports whether c can continue a bare atom. Angle brackets
// are excluded so "^status<s>" lexes as an attribute followed by a
// variable; |quoted atoms| may contain anything.
func atomChar(c byte) bool {
	switch c {
	case 0, ' ', '\t', '\r', '\n', '(', ')', '{', '}', ';', '^', '<', '>', '|':
		return false
	}
	return true
}

// identChar reports whether c can appear in a variable name between < >.
func identChar(c byte) bool {
	return c != 0 && (unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) ||
		c == '-' || c == '_' || c == '.' || c == '*')
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line}, nil
	}
	line := l.line
	c := l.src[l.pos]
	switch c {
	case '(':
		l.pos++
		return token{kind: tokLParen, line: line}, nil
	case ')':
		l.pos++
		return token{kind: tokRParen, line: line}, nil
	case '{':
		l.pos++
		return token{kind: tokLBrace, line: line}, nil
	case '}':
		l.pos++
		return token{kind: tokRBrace, line: line}, nil
	case '^':
		l.pos++
		return token{kind: tokCaret, line: line}, nil
	case '|':
		// Quoted atom.
		end := strings.IndexByte(l.src[l.pos+1:], '|')
		if end < 0 {
			return token{}, l.errf("unterminated |atom|")
		}
		text := l.src[l.pos+1 : l.pos+1+end]
		l.pos += end + 2
		l.line += strings.Count(text, "\n")
		return token{kind: tokAtom, text: text, line: line, quoted: true}, nil
	}

	if c == '<' {
		switch {
		case l.at(1) == '=' && l.at(2) == '>':
			l.pos += 3
			return token{kind: tokPred, text: "<=>", line: line}, nil
		case l.at(1) == '=':
			l.pos += 2
			return token{kind: tokPred, text: "<=", line: line}, nil
		case l.at(1) == '>':
			l.pos += 2
			return token{kind: tokPred, text: "<>", line: line}, nil
		case l.at(1) == '<':
			l.pos += 2
			return token{kind: tokDLAngle, line: line}, nil
		default:
			// Either a variable <name> or the bare < predicate.
			j := l.pos + 1
			for j < len(l.src) && identChar(l.src[j]) {
				j++
			}
			if j > l.pos+1 && j < len(l.src) && l.src[j] == '>' {
				name := l.src[l.pos+1 : j]
				l.pos = j + 1
				return token{kind: tokVar, text: name, line: line}, nil
			}
			l.pos++
			return token{kind: tokPred, text: "<", line: line}, nil
		}
	}

	if c == '>' {
		switch {
		case l.at(1) == '>':
			l.pos += 2
			return token{kind: tokDRAngle, line: line}, nil
		case l.at(1) == '=':
			l.pos += 2
			return token{kind: tokPred, text: ">=", line: line}, nil
		default:
			l.pos++
			return token{kind: tokPred, text: ">", line: line}, nil
		}
	}

	if c == '=' {
		l.pos++
		return token{kind: tokPred, text: "=", line: line}, nil
	}

	if c == '-' {
		// '-->' arrow, negation '-', or a negative number atom.
		if l.at(1) == '-' && l.at(2) == '>' {
			l.pos += 3
			return token{kind: tokArrow, line: line}, nil
		}
		if d := l.at(1); d >= '0' && d <= '9' || d == '.' {
			// falls through to atom scan below
		} else {
			l.pos++
			return token{kind: tokMinus, line: line}, nil
		}
	}

	// Bare atom (symbol or number).
	j := l.pos
	for j < len(l.src) && atomChar(l.src[j]) {
		j++
	}
	if j == l.pos {
		return token{}, l.errf("unexpected character %q", string(c))
	}
	text := l.src[l.pos:j]
	l.pos = j
	return token{kind: tokAtom, text: text, line: line}, nil
}

// lexAll tokenizes the entire source (used by the parser, which wants
// lookahead).
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
