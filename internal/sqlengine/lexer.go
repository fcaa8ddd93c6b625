// Package sqlengine implements an in-memory relational database executing
// the SQL dialect that EXLEngine's translator emits (Section 5.1), and no
// more: CREATE TABLE, CREATE VIEW … AS SELECT and INSERT INTO t(cols)
// SELECT, with joins derived from repeated tgd variables as a WHERE list of
// equalities (period arithmetic included: G1.Q = G2.Q - 1) and IS NOT NULL
// guards, GROUP BY aggregations, scalar functions on measures, and tabular
// functions in FROM position (SELECT Q, G FROM STL_T(GDP)) for black-box
// operators. Every SELECT's result is sorted by all its columns.
//
// The engine stands in for the commercial DBMS of the paper's deployment:
// every generated statement parses, plans and runs, so the SQL translation
// is validated end to end rather than only printed.
package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tNumber
	tString
	tSymbol // ( ) , ; * = + - / .
)

type token struct {
	kind tokKind
	text string // idents lowercased; symbols verbatim
	raw  string // an ident as written
	num  float64
	pos  int // byte offset, for error messages
}

type sqlLexer struct {
	src string
	pos int
}

func lexSQL(src string) ([]token, error) {
	lx := &sqlLexer{src: src}
	var out []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tEOF {
			return out, nil
		}
	}
}

func (l *sqlLexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case strings.HasPrefix(l.src[l.pos:], "--"):
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
scan:
	if l.pos >= len(l.src) {
		return token{kind: tEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '\'':
		l.pos++
		var b strings.Builder
		for l.pos < len(l.src) {
			if l.src[l.pos] == '\'' {
				if strings.HasPrefix(l.src[l.pos+1:], "'") {
					b.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return token{kind: tString, text: b.String(), pos: start}, nil
			}
			b.WriteByte(l.src[l.pos])
			l.pos++
		}
		return token{}, fmt.Errorf("sql: unterminated string literal at offset %d", start)
	case unicode.IsLetter(rune(c)) || c == '_':
		for l.pos < len(l.src) && (unicode.IsLetter(rune(l.src[l.pos])) || unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '_') {
			l.pos++
		}
		raw := l.src[start:l.pos]
		return token{kind: tIdent, text: strings.ToLower(raw), raw: raw, pos: start}, nil
	case unicode.IsDigit(rune(c)):
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			if c == 'e' || c == 'E' {
				if rest := l.src[l.pos+1:]; rest != "" && (rest[0] == '+' || rest[0] == '-') {
					l.pos++ // the exponent's sign
				}
			} else if !unicode.IsDigit(rune(c)) && c != '.' {
				break
			}
			l.pos++
		}
		text := l.src[start:l.pos]
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, fmt.Errorf("sql: bad number %q at offset %d", text, start)
		}
		return token{kind: tNumber, text: text, num: f, pos: start}, nil
	case strings.IndexByte("(),;*=+-/.", c) >= 0:
		l.pos++
		return token{kind: tSymbol, text: string(c), pos: start}, nil
	}
	return token{}, fmt.Errorf("sql: unexpected character %q at offset %d", string(c), start)
}
