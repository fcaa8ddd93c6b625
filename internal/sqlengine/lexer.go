// Package sqlengine implements an in-memory relational database executing
// the SQL dialect that EXLEngine's translator emits (Section 5.1), and no
// more: CREATE TABLE, CREATE VIEW … AS SELECT, INSERT … SELECT with joins
// derived from repeated tgd variables, WHERE, GROUP BY aggregations, scalar
// functions on measures, period arithmetic on time dimensions (G1.Q = G2.Q
// - 1), and tabular functions in FROM position (SELECT Q, G FROM STL_T(GDP))
// for black-box operators — plus INSERT … VALUES to seed a table. Every
// SELECT's result is sorted by all its columns.
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
	tSymbol // ( ) , ; * = < > <= >= <> + - / .
)

type token struct {
	kind tokKind
	text string // idents lowercased; symbols verbatim
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
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
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
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
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
	case unicode.IsLetter(rune(c)) || c == '_' || c == '"':
		if c == '"' { // quoted identifier
			l.pos++
			s := l.pos
			for l.pos < len(l.src) && l.src[l.pos] != '"' {
				l.pos++
			}
			if l.pos >= len(l.src) {
				return token{}, fmt.Errorf("sql: unterminated quoted identifier at offset %d", start)
			}
			id := l.src[s:l.pos]
			l.pos++
			return token{kind: tIdent, text: strings.ToLower(id), pos: start}, nil
		}
		for l.pos < len(l.src) && (unicode.IsLetter(rune(l.src[l.pos])) || unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '_') {
			l.pos++
		}
		return token{kind: tIdent, text: strings.ToLower(l.src[start:l.pos]), pos: start}, nil
	case unicode.IsDigit(rune(c)) || (c == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			if unicode.IsDigit(rune(c)) || c == '.' {
				l.pos++
				continue
			}
			if (c == 'e' || c == 'E') && l.pos > start {
				l.pos++
				if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
					l.pos++
				}
				continue
			}
			break
		}
		text := l.src[start:l.pos]
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, fmt.Errorf("sql: bad number %q at offset %d", text, start)
		}
		return token{kind: tNumber, text: text, num: f, pos: start}, nil
	}
	// Multi-character symbols.
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.pos += 2
		if two == "!=" {
			two = "<>"
		}
		return token{kind: tSymbol, text: two, pos: start}, nil
	}
	switch c {
	case '(', ')', ',', ';', '*', '=', '<', '>', '+', '-', '/', '.':
		l.pos++
		return token{kind: tSymbol, text: string(c), pos: start}, nil
	}
	return token{}, fmt.Errorf("sql: unexpected character %q at offset %d", string(c), start)
}
