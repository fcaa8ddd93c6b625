package sqlengine

import (
	"fmt"

	"exlengine/internal/model"
)

type sqlParser struct {
	toks []token
	pos  int
}

// parseScript parses a semicolon-separated sequence of statements.
func parseScript(src string) ([]stmt, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	var out []stmt
	for {
		for p.isSymbol(";") {
			p.pos++
		}
		if p.cur().kind == tEOF {
			return out, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

func (p *sqlParser) cur() token  { return p.toks[p.pos] }
func (p *sqlParser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *sqlParser) isKw(kw string) bool {
	return p.cur().kind == tIdent && p.cur().text == kw
}

func (p *sqlParser) isSymbol(s string) bool {
	return p.cur().kind == tSymbol && p.cur().text == s
}

func (p *sqlParser) expectKw(kw string) error {
	if !p.isKw(kw) {
		return fmt.Errorf("sql: expected %s, found %q", kw, p.cur().text)
	}
	p.pos++
	return nil
}

func (p *sqlParser) expectSymbol(s string) error {
	if !p.isSymbol(s) {
		return fmt.Errorf("sql: expected %q, found %q", s, p.cur().text)
	}
	p.pos++
	return nil
}

func (p *sqlParser) ident() (string, error) {
	if p.cur().kind != tIdent {
		return "", fmt.Errorf("sql: expected identifier, found %q", p.cur().text)
	}
	return p.next().text, nil
}

func (p *sqlParser) parseStmt() (stmt, error) {
	switch {
	case p.isKw("create"):
		return p.parseCreate()
	case p.isKw("insert"):
		return p.parseInsert()
	case p.isKw("select"):
		return p.parseSelect()
	default:
		return nil, fmt.Errorf("sql: unexpected statement start %q", p.cur().text)
	}
}

func (p *sqlParser) parseCreate() (stmt, error) {
	p.pos++ // create
	if p.isKw("view") {
		p.pos++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("as"); err != nil {
			return nil, err
		}
		if !p.isKw("select") {
			return nil, fmt.Errorf("sql: CREATE VIEW needs a SELECT body")
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &createViewStmt{name: name, sel: sel.(*selectStmt)}, nil
	}
	if err := p.expectKw("table"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []Column
	for {
		cn, err := p.ident()
		if err != nil {
			return nil, err
		}
		tn, err := p.ident()
		if err != nil {
			return nil, err
		}
		ct, err := parseColType(tn)
		if err != nil {
			return nil, err
		}
		cols = append(cols, Column{Name: cn, Type: ct})
		if p.isSymbol(",") {
			p.pos++
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &createStmt{table: name, cols: cols}, nil
}

func (p *sqlParser) parseInsert() (stmt, error) {
	p.pos++ // insert
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.isSymbol("(") {
		p.pos++
		for {
			cn, err := p.ident()
			if err != nil {
				return nil, err
			}
			cols = append(cols, cn)
			if p.isSymbol(",") {
				p.pos++
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if p.isKw("values") {
		p.pos++
		var rows [][]expr
		for {
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			var row []expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if p.isSymbol(",") {
					p.pos++
					continue
				}
				break
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			rows = append(rows, row)
			if p.isSymbol(",") {
				p.pos++
				continue
			}
			break
		}
		return &insertValuesStmt{table: name, cols: cols, rows: rows}, nil
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &insertSelectStmt{table: name, cols: cols, sel: sel.(*selectStmt)}, nil
}

func (p *sqlParser) parseSelect() (stmt, error) {
	p.pos++ // select
	s := &selectStmt{}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		se := selectExpr{e: e}
		if p.isKw("as") {
			p.pos++
			a, err := p.ident()
			if err != nil {
				return nil, err
			}
			se.alias = a
		} else if p.cur().kind == tIdent && !p.selectKeywordNext() {
			se.alias = p.next().text
		}
		s.exprs = append(s.exprs, se)
		if p.isSymbol(",") {
			p.pos++
			continue
		}
		break
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	for {
		fi, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		s.from = append(s.from, fi)
		if p.isSymbol(",") {
			p.pos++
			continue
		}
		break
	}
	if p.isKw("where") {
		p.pos++
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.where = w
	}
	if p.isKw("group") {
		p.pos++
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.groupBy = append(s.groupBy, e)
			if p.isSymbol(",") {
				p.pos++
				continue
			}
			break
		}
	}
	return s, nil
}

// selectKeywordNext reports whether the current identifier is a clause
// keyword rather than an implicit alias.
func (p *sqlParser) selectKeywordNext() bool {
	switch p.cur().text {
	case "from", "where", "group", "as":
		return true
	}
	return false
}

func (p *sqlParser) parseFromItem() (fromItem, error) {
	name, err := p.ident()
	if err != nil {
		return fromItem{}, err
	}
	fi := fromItem{}
	if p.isSymbol("(") {
		// Tabular function: FN(table [, table]* [, number]*).
		p.pos++
		fi.fn = name
		for {
			switch {
			case p.cur().kind == tIdent:
				fi.args = append(fi.args, p.next().text)
			case p.cur().kind == tNumber:
				fi.params = append(fi.params, p.next().num)
			case p.isSymbol("-"):
				p.pos++
				if p.cur().kind != tNumber {
					return fromItem{}, fmt.Errorf("sql: expected number after '-' in tabular function args")
				}
				fi.params = append(fi.params, -p.next().num)
			default:
				return fromItem{}, fmt.Errorf("sql: bad tabular function argument %q", p.cur().text)
			}
			if p.isSymbol(",") {
				p.pos++
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return fromItem{}, err
		}
	} else {
		fi.table = name
	}
	if p.cur().kind == tIdent && !p.fromKeywordNext() {
		fi.alias = p.next().text
	}
	if fi.alias == "" {
		if fi.table != "" {
			fi.alias = fi.table
		} else {
			fi.alias = fi.fn
		}
	}
	return fi, nil
}

func (p *sqlParser) fromKeywordNext() bool {
	switch p.cur().text {
	case "where", "group":
		return true
	}
	return false
}

// Expression grammar: or > and > not > comparison > additive >
// multiplicative > unary > primary.
func (p *sqlParser) parseExpr() (expr, error) { return p.parseOr() }

func (p *sqlParser) parseOr() (expr, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKw("or") {
		p.pos++
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		x = &binExpr{op: "or", l: x, r: y}
	}
	return x, nil
}

func (p *sqlParser) parseAnd() (expr, error) {
	x, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKw("and") {
		p.pos++
		y, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		x = &binExpr{op: "and", l: x, r: y}
	}
	return x, nil
}

func (p *sqlParser) parseNot() (expr, error) {
	if p.isKw("not") {
		p.pos++
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{op: "not", x: x}, nil
	}
	return p.parseComparison()
}

func (p *sqlParser) parseComparison() (expr, error) {
	x, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.isKw("is") {
		p.pos++
		not := false
		if p.isKw("not") {
			p.pos++
			not = true
		}
		if err := p.expectKw("null"); err != nil {
			return nil, err
		}
		return &isNullExpr{x: x, not: not}, nil
	}
	if p.cur().kind == tSymbol {
		switch p.cur().text {
		case "=", "<>", "<", "<=", ">", ">=":
			op := p.next().text
			y, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &binExpr{op: op, l: x, r: y}, nil
		}
	}
	return x, nil
}

func (p *sqlParser) parseAdditive() (expr, error) {
	x, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.isSymbol("+") || p.isSymbol("-") {
		op := p.next().text
		y, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		x = &binExpr{op: op, l: x, r: y}
	}
	return x, nil
}

func (p *sqlParser) parseMultiplicative() (expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isSymbol("*") || p.isSymbol("/") {
		op := p.next().text
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &binExpr{op: op, l: x, r: y}
	}
	return x, nil
}

func (p *sqlParser) parseUnary() (expr, error) {
	if p.isSymbol("-") {
		p.pos++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{op: "-", x: x}, nil
	}
	if p.isSymbol("+") {
		p.pos++
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *sqlParser) parsePrimary() (expr, error) {
	switch {
	case p.cur().kind == tNumber:
		t := p.next()
		return &lit{v: model.Num(t.num)}, nil
	case p.cur().kind == tString:
		t := p.next()
		return &lit{v: model.Str(t.text)}, nil
	case p.isSymbol("("):
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.isKw("null"):
		p.pos++
		return &lit{v: model.Value{}}, nil
	case p.cur().kind == tIdent:
		name := p.next().text
		if p.isSymbol("(") {
			p.pos++
			c := &callExpr{name: name}
			if p.isSymbol("*") {
				p.pos++
				c.star = true
			} else if !p.isSymbol(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					c.args = append(c.args, a)
					if p.isSymbol(",") {
						p.pos++
						continue
					}
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return c, nil
		}
		if p.isSymbol(".") {
			p.pos++
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &colRef{qual: name, name: col}, nil
		}
		return &colRef{name: name}, nil
	default:
		return nil, fmt.Errorf("sql: unexpected token %q in expression", p.cur().text)
	}
}
