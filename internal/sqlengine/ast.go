package sqlengine

import "exlengine/internal/model"

// stmt is a parsed SQL statement.
type stmt interface{ stmtNode() }

// createStmt is CREATE TABLE name (col TYPE, …).
type createStmt struct {
	table string
	cols  []Column
}

// insertValuesStmt is INSERT INTO name(cols) VALUES (…), (…).
type insertValuesStmt struct {
	table string
	cols  []string
	rows  [][]expr
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
	name string
	sel  *selectStmt
}

// selectStmt is SELECT exprs FROM items [WHERE cond] [GROUP BY exprs]. Its
// result is sorted by all output columns, left to right.
type selectStmt struct {
	exprs   []selectExpr
	from    []fromItem
	where   expr
	groupBy []expr
}

// selectExpr is one output column, with an optional alias.
type selectExpr struct {
	e     expr
	alias string
}

// fromItem is a table reference or a tabular function call, with an
// optional alias.
type fromItem struct {
	table  string   // table name, if a plain reference
	fn     string   // tabular function name, if a function call
	args   []string // table arguments of the function
	params []float64
	alias  string
}

func (*createStmt) stmtNode()       {}
func (*createViewStmt) stmtNode()   {}
func (*insertValuesStmt) stmtNode() {}
func (*insertSelectStmt) stmtNode() {}
func (*selectStmt) stmtNode()       {}

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

// binExpr is a binary operation: arithmetic (+ - * /), comparison
// (= <> < <= > >=) or boolean (and, or).
type binExpr struct {
	op   string
	l, r expr
}

// unaryExpr is unary minus or NOT.
type unaryExpr struct {
	op string // "-" or "not"
	x  expr
}

// callExpr is a scalar or aggregate function call. For COUNT(*), star is
// true and args empty.
type callExpr struct {
	name string
	args []expr
	star bool
}

// isNullExpr is x IS [NOT] NULL: the SQL definedness predicate. Unlike
// every other operator it is never NULL itself — it maps unknown to a
// known boolean, which is what lets queries observe undefined points.
type isNullExpr struct {
	x   expr
	not bool
}

func (*colRef) exprNode()     {}
func (*lit) exprNode()        {}
func (*binExpr) exprNode()    {}
func (*unaryExpr) exprNode()  {}
func (*callExpr) exprNode()   {}
func (*isNullExpr) exprNode() {}
