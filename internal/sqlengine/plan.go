package sqlengine

import (
	"fmt"
	"strconv"
	"strings"

	"exlengine/internal/ops"
)

// This file defines the logical plan the vectorized executor runs:
// SELECT statements lower to a small tree of relational operators
// (Scan / Filter / Project / Join / GroupBy / Sort), the
// analyzer (analyzer.go) rewrites the tree to a fixed point, and the
// executor (exec.go) evaluates it over columnar batches.

// planCol is one output column of a plan node: the table alias it is
// visible under (empty for derived columns), its name and its type.
type planCol struct {
	qual string
	name string
	typ  ColType
}

// resolvePlanCol finds a column reference in a node's output schema with
// the same rules as scope.resolve: a qualified reference matches its
// alias only, an unqualified one must be unambiguous.
func resolvePlanCol(cols []planCol, qual, name string) (int, error) {
	found := -1
	for i, c := range cols {
		if qual != "" && c.qual != qual {
			continue
		}
		if c.name != name {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column %s", name)
		}
		found = i
	}
	if found < 0 {
		if qual != "" {
			return 0, fmt.Errorf("sql: unknown column %s.%s", qual, name)
		}
		return 0, fmt.Errorf("sql: unknown column %s", name)
	}
	return found, nil
}

// planNode is a logical plan operator.
type planNode interface {
	// cols returns the node's output schema.
	cols() []planCol
	// describe returns the operator name used in spans, metrics and
	// plan rendering.
	describe() string
}

// scanNode reads a table (base table, view result or tabular-function
// result), whose columns are tableCols, under an alias. proj, when non-nil,
// restricts the emitted columns (set by the prune_columns analyzer rule).
type scanNode struct {
	table     *Table
	tableCols []Column
	alias     string
	proj      []int // table column indices to emit; nil = all
	out       []planCol
}

func newScanNode(t *Table, cols []Column, alias string) *scanNode {
	s := &scanNode{table: t, tableCols: cols, alias: alias}
	s.rebuildCols()
	return s
}

func (s *scanNode) rebuildCols() {
	s.out = s.out[:0]
	if s.proj == nil {
		for _, c := range s.tableCols {
			s.out = append(s.out, planCol{qual: s.alias, name: c.Name, typ: c.Type})
		}
		return
	}
	for _, j := range s.proj {
		c := s.tableCols[j]
		s.out = append(s.out, planCol{qual: s.alias, name: c.Name, typ: c.Type})
	}
}

func (s *scanNode) cols() []planCol { return s.out }
func (s *scanNode) describe() string {
	return fmt.Sprintf("scan(%s as %s)", lower(s.table.cube.Schema().Name), s.alias)
}

// filterNode keeps rows whose condition evaluates to TRUE (NULL and
// FALSE both drop the row, SQL's WHERE semantics).
type filterNode struct {
	child planNode
	cond  expr
	ccond compiledExpr // set by compile_exprs
}

func (f *filterNode) cols() []planCol  { return f.child.cols() }
func (f *filterNode) describe() string { return "filter(" + exprString(f.cond) + ")" }

// multiJoinNode is the pre-analysis join: the unordered FROM items plus
// the WHERE conjuncts. The reorder_joins analyzer rule replaces it with
// a left-deep joinNode tree (plus a residual filterNode).
type multiJoinNode struct {
	items     []planNode
	conjuncts []expr
	out       []planCol
}

func (m *multiJoinNode) cols() []planCol {
	if m.out == nil {
		for _, it := range m.items {
			m.out = append(m.out, it.cols()...)
		}
	}
	return m.out
}
func (m *multiJoinNode) describe() string { return fmt.Sprintf("multijoin(%d items)", len(m.items)) }

// joinNode joins two inputs. With keys it is a hash join (build on the
// right, probe from the left; NULL keys never match); without keys it is
// a nested cross product.
type joinNode struct {
	left, right         planNode
	leftKeys, rightKeys []expr
	ckLeft, ckRight     []compiledExpr // set by compile_exprs
	out                 []planCol

	// outCols, set by prune_columns, restricts the join's output to the
	// listed indexes of the left+right concatenation. Join keys are
	// evaluated on the input batches, so key columns nothing above the
	// join reads never enter the output gather.
	outCols []int
}

func (j *joinNode) cols() []planCol {
	if j.out == nil {
		full := append(append([]planCol(nil), j.left.cols()...), j.right.cols()...)
		if j.outCols == nil {
			j.out = full
		} else {
			for _, i := range j.outCols {
				j.out = append(j.out, full[i])
			}
		}
	}
	return j.out
}
func (j *joinNode) describe() string {
	if len(j.leftKeys) == 0 {
		return "crossjoin"
	}
	keys := make([]string, len(j.leftKeys))
	for i := range j.leftKeys {
		keys[i] = exprString(j.leftKeys[i]) + "=" + exprString(j.rightKeys[i])
	}
	return "hashjoin(" + strings.Join(keys, ", ") + ")"
}

// projectNode computes the SELECT output columns. Rows with a NULL
// output are dropped, matching the cube semantics of partial functions.
type projectNode struct {
	child    planNode
	exprs    []selectExpr
	out      []planCol
	compiled []compiledExpr // set by compile_exprs
}

func (p *projectNode) cols() []planCol { return p.out }
func (p *projectNode) describe() string {
	return fmt.Sprintf("project(%d exprs)", len(p.exprs))
}

// groupNode is hash aggregation: it groups its input by the GROUP BY
// keys (rows with a NULL key are skipped) and evaluates the SELECT
// expressions per group, with aggregate calls consuming the group's bag.
// Like projectNode it drops rows with NULL outputs. A query with
// aggregates but no GROUP BY forms one global group; over zero input
// rows that group still exists, where COUNT yields 0 and every other
// aggregate yields NULL.
type groupNode struct {
	child   planNode
	groupBy []expr
	exprs   []selectExpr
	out     []planCol

	// Set by compile_exprs:
	ckKeys []compiledExpr
	aggs   []aggSpec
	finals []compiledExpr // compiled over child cols + one pseudo-column per agg

	// partSig is set where the grouping is a function of the dimension tuples
	// of the table the node scans, should that table be a stored version: it
	// names the grouping to the version's key set (model.View.Partition).
	partSig string
}

// aggSpec is one distinct aggregate call appearing in the SELECT list.
type aggSpec struct {
	name string
	fold ops.Fold
	arg  expr
	carg compiledExpr
}

func (g *groupNode) cols() []planCol { return g.out }
func (g *groupNode) describe() string {
	groups := "hash"
	if g.partSig != "" {
		groups = "partition"
	}
	return fmt.Sprintf("groupby(%d keys, %d aggs, groups=%s)", len(g.groupBy), len(g.aggs), groups)
}

// partitionSig returns the signature of g's grouping over the dimension
// positions of the table it scans, or "" where the grouping is no function of
// those alone: g does not sit on a scan, it has no key, or a key expression
// reads the table's last column (a stored version's measure). Every function
// resolveScalarCall resolves is pure, as callC relies on too.
func partitionSig(g *groupNode) string {
	scan, ok := g.child.(*scanNode)
	if !ok || len(g.groupBy) == 0 {
		return ""
	}
	dims := true
	keys := make([]string, len(g.groupBy))
	for i, e := range g.groupBy {
		keys[i] = renderExpr(e, func(c *colRef) string {
			j, err := resolvePlanCol(scan.out, c.qual, c.name)
			if err == nil && scan.proj != nil {
				j = scan.proj[j]
			}
			dims = dims && err == nil && j < len(scan.tableCols)-1
			return "#" + strconv.Itoa(j)
		})
	}
	if !dims {
		return ""
	}
	return "sql:" + strings.Join(keys, ", ")
}

// sortNode orders the output by all columns left to right, NULLs last
// (sortedRows, through model.AppendOrderedKey), so the output order is a pure
// function of the result set.
type sortNode struct {
	child planNode
}

func (s *sortNode) cols() []planCol  { return s.child.cols() }
func (s *sortNode) describe() string { return "sort(all)" }

// planChildren returns a node's inputs (for tree walks).
func planChildren(n planNode) []planNode {
	switch n := n.(type) {
	case *scanNode:
		return nil
	case *filterNode:
		return []planNode{n.child}
	case *multiJoinNode:
		return n.items
	case *joinNode:
		return []planNode{n.left, n.right}
	case *projectNode:
		return []planNode{n.child}
	case *groupNode:
		return []planNode{n.child}
	case *sortNode:
		return []planNode{n.child}
	default:
		return nil
	}
}

// renderPlan prints the plan tree (EXPLAIN-style, used in tests and
// trace attributes).
func renderPlan(n planNode) string {
	var b strings.Builder
	var walk func(n planNode, depth int)
	walk = func(n planNode, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.describe())
		b.WriteByte('\n')
		for _, c := range planChildren(n) {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// buildPlan lowers a validated SELECT into the initial logical plan: scans
// under a multi-join carrying the WHERE conjuncts, then grouping or
// projection, then the sort. p holds the scope the statement was validated
// against and its output schema.
func buildPlan(s *selectStmt, p *selectPrep) planNode {
	sc := p.sc
	items := make([]planNode, len(sc.tables))
	for i := range sc.tables {
		items[i] = newScanNode(sc.tables[i], sc.cols[i], sc.aliases[i])
	}
	var node planNode = &multiJoinNode{items: items, conjuncts: s.where}

	outCols := make([]planCol, len(s.exprs))
	for i := range s.exprs {
		outCols[i] = planCol{name: p.names[i], typ: p.types[i]}
	}

	grouping := len(s.groupBy) > 0
	for _, se := range s.exprs {
		if hasAggregate(se.e) {
			grouping = true
		}
	}
	if grouping {
		node = &groupNode{child: node, groupBy: s.groupBy, exprs: s.exprs, out: outCols}
	} else {
		node = &projectNode{child: node, exprs: s.exprs, out: outCols}
	}
	return &sortNode{child: node}
}

// exprString renders an expression canonically; it keys aggregate
// deduplication and labels plan operators.
func exprString(e expr) string {
	return renderExpr(e, func(c *colRef) string {
		if c.qual != "" {
			return c.qual + "." + c.name
		}
		return c.name
	})
}

// renderExpr is exprString with the column references rendered by col. Two
// expressions render alike only if they are the same expression over the same
// col: a string literal is quoted, so that 'a' is not the column a, nor
// f('a, b') the call f('a', 'b').
func renderExpr(e expr, col func(*colRef) string) string {
	switch e := e.(type) {
	case *lit:
		if s, ok := e.v.AsString(); ok {
			return "'" + strings.ReplaceAll(s, "'", "''") + "'"
		}
		return e.v.String()
	case *colRef:
		return col(e)
	case *binExpr:
		return "(" + renderExpr(e.l, col) + " " + e.op + " " + renderExpr(e.r, col) + ")"
	case *negExpr:
		return "(- " + renderExpr(e.x, col) + ")"
	case *callExpr:
		args := make([]string, len(e.args))
		for i, a := range e.args {
			args[i] = renderExpr(a, col)
		}
		return e.name + "(" + strings.Join(args, ", ") + ")"
	default:
		return "(" + renderExpr(e.(*notNullExpr).x, col) + " is not null)"
	}
}

// exprColRefs collects every (qual, name) reference in an expression,
// resolving unqualified names to their owning alias via the scope: to every
// table that has the column, which validation has made one.
func exprColRefs(e expr, sc *scope, out map[[2]string]bool) {
	c, ok := e.(*colRef)
	switch {
	case !ok:
		for _, x := range operands(e) {
			exprColRefs(x, sc, out)
		}
	case c.qual != "":
		out[[2]string{c.qual, c.name}] = true
	default:
		for i, cols := range sc.cols {
			if colIndex(cols, c.name) >= 0 {
				out[[2]string{sc.aliases[i], c.name}] = true
			}
		}
	}
}
