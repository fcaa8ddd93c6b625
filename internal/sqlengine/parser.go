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
	name, _, err := p.named()
	return name, err
}

// named reads the name of a relation: lowercased, as it is looked up, and as
// written, as its cube is called.
func (p *sqlParser) named() (name, written string, err error) {
	if p.cur().kind != tIdent {
		return "", "", fmt.Errorf("sql: expected identifier, found %q", p.cur().text)
	}
	t := p.next()
	return t.text, t.raw, nil
}

// commaList calls item for each element of a comma-separated list.
func (p *sqlParser) commaList(item func() error) error {
	for {
		if err := item(); err != nil {
			return err
		}
		if !p.isSymbol(",") {
			return nil
		}
		p.pos++
	}
}

// parenList is commaList in parentheses.
func (p *sqlParser) parenList(item func() error) error {
	if err := p.expectSymbol("("); err != nil {
		return err
	}
	if err := p.commaList(item); err != nil {
		return err
	}
	return p.expectSymbol(")")
}

func (p *sqlParser) parseStmt() (stmt, error) {
	switch {
	case p.isKw("create"):
		return p.parseCreate()
	case p.isKw("insert"):
		return p.parseInsert()
	default:
		return nil, fmt.Errorf("sql: unexpected statement start %q", p.cur().text)
	}
}

func (p *sqlParser) parseCreate() (stmt, error) {
	p.pos++ // create
	if p.isKw("view") {
		p.pos++
		name, written, err := p.named()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("as"); err != nil {
			return nil, err
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &createViewStmt{name: name, written: written, sel: sel}, nil
	}
	if err := p.expectKw("table"); err != nil {
		return nil, err
	}
	name, written, err := p.named()
	if err != nil {
		return nil, err
	}
	var cols []Column
	err = p.parenList(func() error {
		cn, err := p.ident()
		if err != nil {
			return err
		}
		tn, err := p.ident()
		if err != nil {
			return err
		}
		ct, err := parseColType(tn)
		cols = append(cols, Column{Name: cn, Type: ct})
		return err
	})
	if err != nil {
		return nil, err
	}
	sch, err := cubeSchema(written, cols)
	if err != nil {
		return nil, err
	}
	return &createStmt{table: name, schema: sch}, nil
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
	s := &insertSelectStmt{table: name}
	err = p.parenList(func() error {
		cn, err := p.ident()
		s.cols = append(s.cols, cn)
		return err
	})
	if err != nil {
		return nil, err
	}
	if s.sel, err = p.parseSelect(); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *sqlParser) parseSelect() (*selectStmt, error) {
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	s := &selectStmt{}
	err := p.commaList(func() error {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		se := selectExpr{e: e}
		if p.isKw("as") {
			p.pos++
			se.alias, err = p.ident()
		}
		s.exprs = append(s.exprs, se)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	if err := p.commaList(func() error {
		fi, err := p.parseFromItem()
		s.from = append(s.from, fi)
		return err
	}); err != nil {
		return nil, err
	}
	if p.isKw("where") {
		for len(s.where) == 0 || p.isKw("and") {
			p.pos++ // where, and
			c, err := p.parseConjunct()
			if err != nil {
				return nil, err
			}
			s.where = append(s.where, c)
		}
	}
	if p.isKw("group") {
		p.pos++
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		if err := p.commaList(func() error {
			e, err := p.parseExpr()
			s.groupBy = append(s.groupBy, e)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// parseFromItem parses a table or a tabular function call FN(table,
// number…), with an optional alias.
func (p *sqlParser) parseFromItem() (fromItem, error) {
	name, err := p.ident()
	if err != nil {
		return fromItem{}, err
	}
	fi := fromItem{table: name, alias: name}
	if p.isSymbol("(") {
		p.pos++
		if fi.table, err = p.ident(); err != nil {
			return fromItem{}, err
		}
		fi.fn = name
		for p.isSymbol(",") {
			p.pos++
			if p.cur().kind != tNumber {
				return fromItem{}, fmt.Errorf("sql: expected a number argument of %s, found %q", name, p.cur().text)
			}
			fi.params = append(fi.params, p.next().num)
		}
		if err := p.expectSymbol(")"); err != nil {
			return fromItem{}, err
		}
	}
	if p.cur().kind == tIdent && !p.isKw("where") && !p.isKw("group") {
		fi.alias = p.next().text
	}
	return fi, nil
}

// parseConjunct parses one WHERE conjunct: expr = expr or expr IS NOT NULL.
func (p *sqlParser) parseConjunct() (expr, error) {
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.isKw("is") {
		p.pos++
		if err := p.expectKw("not"); err != nil {
			return nil, err
		}
		if err := p.expectKw("null"); err != nil {
			return nil, err
		}
		return &notNullExpr{x: x}, nil
	}
	if err := p.expectSymbol("="); err != nil {
		return nil, err
	}
	y, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &binExpr{op: "=", l: x, r: y}, nil
}

// Expression grammar: additive > multiplicative > unary minus > primary.
func (p *sqlParser) parseExpr() (expr, error) { return p.parseChain(p.parseTerm, "+", "-") }

func (p *sqlParser) parseTerm() (expr, error) { return p.parseChain(p.parseUnary, "*", "/") }

// parseChain parses operand {op operand}, left-associative, for the two
// operators op1 and op2 of one precedence level.
func (p *sqlParser) parseChain(operand func() (expr, error), op1, op2 string) (expr, error) {
	x, err := operand()
	if err != nil {
		return nil, err
	}
	for p.isSymbol(op1) || p.isSymbol(op2) {
		op := p.next().text
		y, err := operand()
		if err != nil {
			return nil, err
		}
		x = &binExpr{op: op, l: x, r: y}
	}
	return x, nil
}

func (p *sqlParser) parseUnary() (expr, error) {
	if !p.isSymbol("-") {
		return p.parsePrimary()
	}
	p.pos++
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return &negExpr{x: x}, nil
}

func (p *sqlParser) parsePrimary() (expr, error) {
	switch {
	case p.cur().kind == tNumber:
		return &lit{v: model.Num(p.next().num)}, nil
	case p.cur().kind == tString:
		return &lit{v: model.Str(p.next().text)}, nil
	case p.isSymbol("("):
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectSymbol(")")
	case p.cur().kind == tIdent && !p.isKw("null"):
		name := p.next().text
		switch {
		case p.isSymbol("("):
			c := &callExpr{name: name}
			return c, p.parenList(func() error {
				a, err := p.parseExpr()
				c.args = append(c.args, a)
				return err
			})
		case p.isSymbol("."):
			p.pos++
			col, err := p.ident()
			return &colRef{qual: name, name: col}, err
		}
		return &colRef{name: name}, nil
	default:
		return nil, fmt.Errorf("sql: unexpected token %q in expression", p.cur().text)
	}
}
