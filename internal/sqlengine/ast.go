package sqlengine

import "exlengine/internal/model"

// stmt is a parsed SQL statement.
type stmt interface{ stmtNode() }

// createStmt is CREATE TABLE name (col TYPE, …): the declaration of a cube,
// its dimensions and then its measure. The cube is called as the name is
// written.
type createStmt struct {
	table  string
	schema model.Schema
}

// insertSelectStmt is INSERT INTO name(cols) SELECT ….
type insertSelectStmt struct {
	table string
	cols  []string
	sel   *selectStmt
}

// createViewStmt is CREATE VIEW name AS SELECT …. Views are evaluated
// lazily at reference time (the paper's "creation of relational views" for
// temporary cubes).
type createViewStmt struct {
	name, written string
	sel           *selectStmt
}

// selectStmt is SELECT exprs FROM items [WHERE c AND …] [GROUP BY exprs].
// Its result is sorted by all output columns, left to right.
type selectStmt struct {
	exprs   []selectExpr
	from    []fromItem
	where   []expr // the conjuncts: equalities and IS NOT NULL guards
	groupBy []expr
}

// selectExpr is one output column, with an optional alias.
type selectExpr struct {
	e     expr
	alias string
}

// fromItem is a table reference or a tabular function call over one table,
// with an optional alias.
type fromItem struct {
	table  string // the table, or the tabular function's argument
	fn     string // tabular function name, if a call
	params []float64
	alias  string
}

func (*createStmt) stmtNode()       {}
func (*createViewStmt) stmtNode()   {}
func (*insertSelectStmt) stmtNode() {}

// expr is a scalar SQL expression.
type expr interface{ exprNode() }

// colRef references a column, optionally qualified by a table alias.
type colRef struct {
	qual string
	name string
}

// lit is a literal value (number or string; strings are coerced to typed
// values against column types on insert and on comparison with periods).
type lit struct {
	v model.Value
}

// binExpr is arithmetic (+ - * /) or, as a WHERE conjunct, an equality (=).
type binExpr struct {
	op   string
	l, r expr
}

// negExpr is unary minus.
type negExpr struct {
	x expr
}

// callExpr is a scalar or aggregate function call.
type callExpr struct {
	name string
	args []expr
}

// notNullExpr is the WHERE conjunct x IS NOT NULL: the SQL definedness
// predicate. Unlike every other operator it is never NULL itself — it maps
// unknown to FALSE, which is how a generated COUNT keeps undefined points out
// of its groups.
type notNullExpr struct {
	x expr
}

func (*colRef) exprNode()      {}
func (*lit) exprNode()         {}
func (*binExpr) exprNode()     {}
func (*negExpr) exprNode()     {}
func (*callExpr) exprNode()    {}
func (*notNullExpr) exprNode() {}

// operands returns the expressions e is computed from.
func operands(e expr) []expr {
	switch e := e.(type) {
	case *binExpr:
		return []expr{e.l, e.r}
	case *negExpr:
		return []expr{e.x}
	case *notNullExpr:
		return []expr{e.x}
	case *callExpr:
		return e.args
	}
	return nil
}
