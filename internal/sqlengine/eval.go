package sqlengine

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"exlengine/internal/model"
	"exlengine/internal/ops"
)

// scope is the from-items of a statement, each table under its alias, with
// its columns.
type scope struct {
	aliases []string
	tables  []*Table
	cols    [][]Column
}

func (sc *scope) add(alias string, t *Table) {
	sc.aliases = append(sc.aliases, alias)
	sc.tables = append(sc.tables, t)
	sc.cols = append(sc.cols, columns(t.cube.Schema()))
}

// colIndex returns the position of the named column, or -1.
func colIndex(cols []Column, name string) int {
	return slices.IndexFunc(cols, func(c Column) bool { return c.Name == name })
}

// resolve returns the type of a column reference.
func (sc *scope) resolve(qual, name string) (ColType, error) {
	found := false
	var typ ColType
	for i, a := range sc.aliases {
		if qual != "" && a != qual {
			continue
		}
		if j := colIndex(sc.cols[i], name); j >= 0 {
			if found {
				return ColType{}, fmt.Errorf("sql: ambiguous column %s", name)
			}
			found, typ = true, sc.cols[i][j].Type
		}
	}
	if !found {
		if qual != "" {
			return ColType{}, fmt.Errorf("sql: unknown column %s.%s", qual, name)
		}
		return ColType{}, fmt.Errorf("sql: unknown column %s", name)
	}
	return typ, nil
}

func subset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func onlyAlias(a map[string]bool, alias string) bool {
	return len(a) == 1 && a[alias]
}

// resolver materializes relations for one statement: base tables
// directly, views by evaluating their definition (the paper's relational
// views for temporary cubes) into a version of their own. Expanded views are
// memoized for the lifetime of the statement, so a view referenced N times —
// in particular diamond-shaped view graphs, where each layer used to multiply
// the work — evaluates exactly once. expanding guards against cyclic
// definitions.
type resolver struct {
	db        *DB
	ctx       context.Context
	expanding map[string]bool
	memo      map[string]*Table
}

func (db *DB) newResolver(ctx context.Context) *resolver {
	return &resolver{
		db:        db,
		ctx:       ctx,
		expanding: make(map[string]bool),
		memo:      make(map[string]*Table),
	}
}

// relation returns the named table, or evaluates (and memoizes) the
// named view.
func (r *resolver) relation(name string) (*Table, error) {
	if t, ok := r.db.Table(name); ok {
		return t, nil
	}
	if t, ok := r.memo[name]; ok {
		return t, nil
	}
	r.db.mu.RLock()
	view, ok := r.db.views[name]
	r.db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %s", name)
	}
	if r.expanding[name] {
		return nil, fmt.Errorf("sql: cyclic view definition involving %s", name)
	}
	r.expanding[name] = true
	res, err := r.db.evalSelectVec(r.ctx, view.sel, r)
	delete(r.expanding, name)
	var c *model.Cube
	if err == nil {
		c, err = res.cube(view.written)
	}
	if err != nil {
		return nil, fmt.Errorf("sql: evaluating view %s: %w", name, err)
	}
	t := &Table{cube: c}
	r.memo[name] = t
	return t, nil
}

// scopeFor materializes the from-items (tables, views and tabular
// functions) into a scope.
func (r *resolver) scopeFor(items []fromItem) (*scope, error) {
	sc := &scope{}
	for _, fi := range items {
		if fi.fn == "" {
			t, err := r.relation(fi.table)
			if err != nil {
				return nil, err
			}
			sc.add(fi.alias, t)
			continue
		}
		fn, err := ops.Series(fi.fn)
		if err != nil {
			return nil, fmt.Errorf("sql: unknown tabular function %s", fi.fn)
		}
		arg, err := r.relation(fi.table)
		if err != nil {
			return nil, fmt.Errorf("sql: argument of %s: %w", fi.fn, err)
		}
		in := arg.cube
		c, err := ops.SeriesCube(fi.fn, fn, in, in.Schema().Rename(fi.fn), fi.params)
		if err != nil {
			return nil, fmt.Errorf("sql: tabular function %s: %w", fi.fn, err)
		}
		sc.add(fi.alias, &Table{cube: c})
	}
	return sc, nil
}

// selectPrep is the front half of a SELECT: the materialized scope and the
// inferred output schema, names and types, that buildPlan lowers against.
type selectPrep struct {
	sc    *scope
	names []string
	types []ColType
}

func (db *DB) prepareSelect(s *selectStmt, r *resolver) (*selectPrep, error) {
	sc, err := r.scopeFor(s.from)
	if err != nil {
		return nil, err
	}
	if err := db.validateSelect(s, sc); err != nil {
		return nil, err
	}

	p := &selectPrep{sc: sc}
	for i, se := range s.exprs {
		name := se.alias
		if name == "" {
			if cr, ok := se.e.(*colRef); ok {
				name = cr.name
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		p.names = append(p.names, name)
		p.types = append(p.types, db.inferType(se.e, sc))
	}
	return p, nil
}

func (db *DB) evalSelectCtx(ctx context.Context, s *selectStmt) (*result, error) {
	return db.evalSelectVec(ctx, s, db.newResolver(ctx))
}

// validateSelect statically checks column references and aggregate
// placement, so malformed queries fail even over empty tables.
func (db *DB) validateSelect(s *selectStmt, sc *scope) error {
	for _, se := range s.exprs {
		if err := validateExpr(se.e, sc); err != nil {
			return err
		}
	}
	for _, c := range s.where {
		if hasAggregate(c) {
			return fmt.Errorf("sql: aggregates are not allowed in WHERE")
		}
		if err := validateExpr(c, sc); err != nil {
			return err
		}
	}
	for _, ge := range s.groupBy {
		if hasAggregate(ge) {
			return fmt.Errorf("sql: aggregates are not allowed in GROUP BY")
		}
		if err := validateExpr(ge, sc); err != nil {
			return err
		}
	}
	return nil
}

func validateExpr(e expr, sc *scope) error {
	if c, ok := e.(*colRef); ok {
		_, err := sc.resolve(c.qual, c.name)
		return err
	}
	for _, x := range operands(e) {
		if err := validateExpr(x, sc); err != nil {
			return err
		}
	}
	return nil
}

func hasAggregate(e expr) bool {
	if c, ok := e.(*callExpr); ok && ops.IsAggregation(c.name) {
		return true
	}
	return slices.ContainsFunc(operands(e), hasAggregate)
}

// result is what a SELECT evaluates to: its columns, its rows column by
// column, and the order its rows are read in.
type result struct {
	cols  []Column
	all   *batch
	order []int
}

// sortedRows returns the order of b's rows sorted by all their columns left
// to right, NULLs last. With every column in the key the order is a pure
// function of the result set — independent of input order and join order —
// which is what the cross-engine determinism tests pin, and where a version
// built from the rows meets a conflict first.
func sortedRows(b *batch) []int {
	order := make([]int, b.N)
	for i := range order {
		order[i] = i
	}
	if b.N < 2 {
		return order
	}
	// Encode each row once into an order-preserving byte key (NULLS LAST
	// built into the encoding) and sort the rows by memcmp of their keys:
	// one pass of key building replaces O(n log n) polymorphic Compare calls.
	buf := make([]byte, 0, b.N*10*len(b.Cols))
	keys := make([][]byte, b.N)
	for i := range keys {
		lo := len(buf)
		for _, c := range b.Cols {
			buf = model.AppendOrderedKey(buf, c[i])
		}
		keys[i] = buf[lo:len(buf):len(buf)]
	}
	slices.SortFunc(order, func(i, j int) int { return bytes.Compare(keys[i], keys[j]) })
	return order
}

// cube builds the version the rows of r are, called name: a view's.
func (r *result) cube(name string) (*model.Cube, error) {
	sch, err := cubeSchema(name, r.cols)
	if err != nil {
		return nil, err
	}
	return r.build(model.NewBuilder(sch), r.cols, nil)
}

// build adds the rows of r, in its order, to b and builds the version: column
// i of r fills column perm[i] of cols (column i where perm is nil), which are
// the dimensions and then the measure of b's cube, each value coerced to its
// column's type. A conflict between two rows is the egd violation Build
// reports.
func (r *result) build(b *model.Builder, cols []Column, perm []int) (*model.Cube, error) {
	last := len(cols) - 1
	dims := make([]model.Value, last)
	var measure float64
	for _, row := range r.order {
		for i, col := range r.all.Cols {
			j := i
			if perm != nil {
				j = perm[i]
			}
			v, err := coerceToColumn(col[row], cols[j].Type)
			if err != nil {
				return nil, fmt.Errorf("sql: column %s: %w", cols[j].Name, err)
			}
			if j < last {
				dims[j] = v
			} else {
				measure, _ = v.AsNumber()
			}
		}
		if err := b.Add(dims, measure); err != nil {
			return nil, fmt.Errorf("sql: %w", err)
		}
	}
	c, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("sql: %w", err)
	}
	return c, nil
}

// scalarCallFunc applies a resolved scalar function to argument values.
type scalarCallFunc func(vals []model.Value) (model.Value, error)

// resolveScalarCall resolves a scalar function name, called with n
// arguments, once, at compile time, and returns its applier, which the
// compiled call reuses for every row. An unknown name and a wrong number of
// arguments are both resolution failures. The semantics — period functions,
// undefined-point → NULL, type errors — live here exactly once.
func resolveScalarCall(name string, n int) (scalarCallFunc, error) {
	arity := func(want int) error {
		if n != want {
			return fmt.Errorf("sql: %s takes %d argument(s), got %d", name, want, n)
		}
		return nil
	}
	switch name {
	case "quarter", "month", "year":
		f, err := ops.Dimension(name)
		if err != nil {
			return nil, err
		}
		return func(vals []model.Value) (model.Value, error) { return f.Apply(vals[0]) }, arity(1)
	case "shift":
		return func(vals []model.Value) (model.Value, error) {
			n, ok := vals[1].AsInt()
			if !ok {
				return model.Value{}, fmt.Errorf("sql: shift steps must be an integer")
			}
			return ops.ShiftValue(vals[0], n)
		}, arity(2)
	}
	// Numeric scalar functions from the operator library.
	op, err := ops.OpOf(name)
	if err != nil {
		return nil, fmt.Errorf("sql: unknown function %s", name)
	}
	return func(vals []model.Value) (model.Value, error) {
		var in [2]float64
		for i, v := range vals {
			x, ok := v.AsNumber()
			if !ok {
				return model.Value{}, fmt.Errorf("sql: %s over non-numeric value %v", name, v)
			}
			in[i] = x
		}
		out, ok := op.At(in[0], in[1])
		if !ok {
			return model.Value{}, nil // NULL
		}
		return model.Num(out), nil
	}, arity(op.Arity())
}

// neg is unary minus's operator.
var neg, _ = ops.OpOf("neg")

// applyNeg is unary minus. It is NULL-strict: the negation of an unknown
// value is unknown, never an error.
func applyNeg(x model.Value) (model.Value, error) {
	if !x.IsValid() {
		return model.Value{}, nil
	}
	f, ok := x.AsNumber()
	if !ok {
		return model.Value{}, fmt.Errorf("sql: unary minus over non-numeric %v", x)
	}
	out, ok := neg.At(f, f)
	if !ok {
		return model.Value{}, nil // NULL: f is not a finite number
	}
	return model.Num(out), nil
}

// arithNames names the ops.Op of each arithmetic operator of the dialect.
var arithNames = map[string]string{"+": "add", "-": "sub", "*": "mul", "/": "div"}

// arith resolves a binary operator of the dialect to its ops.Op, once, where
// an expression is compiled; = has none.
func arith(op string) ops.Op {
	f, _ := ops.OpOf(arithNames[op])
	return f
}

// applyBinary is = or one of the four arithmetic operators, f its ops.Op
// (arith). Each is NULL-strict: comparing against or computing with an
// unknown value yields unknown, so NULL = x is NULL (not FALSE) and NULL + x
// is NULL (not an error). WHERE then filters the NULL conjunct and SELECT
// drops the NULL output row.
func applyBinary(op string, f ops.Op, l, r model.Value) (model.Value, error) {
	if !l.IsValid() || !r.IsValid() {
		return model.Value{}, nil
	}
	switch op {
	case "=":
		l, r = coercePair(l, r)
		return model.Bool(l.Equal(r)), nil
	case "+", "-":
		// Period arithmetic: Q - 1 shifts a period, as in the paper's
		// generated join condition G1.Q = G2.Q - 1. Addition commutes, so
		// 1 + Q is the same shift; 1 - Q has no period meaning and is
		// rejected explicitly rather than falling through to the numeric
		// path's confusing "non-numeric values" error.
		if p, ok := l.AsPeriod(); ok {
			n, ok := r.AsInt()
			if !ok {
				return model.Value{}, fmt.Errorf("sql: period arithmetic needs an integer offset")
			}
			if op == "-" {
				n = -n
			}
			return model.Per(p.Shift(n)), nil
		}
		if p, ok := r.AsPeriod(); ok {
			if op == "-" {
				return model.Value{}, fmt.Errorf("sql: cannot subtract a period from a number")
			}
			n, ok := l.AsInt()
			if !ok {
				return model.Value{}, fmt.Errorf("sql: period arithmetic needs an integer offset")
			}
			return model.Per(p.Shift(n)), nil
		}
		fallthrough
	default: // * and /
		lf, ok1 := l.AsNumber()
		rf, ok2 := r.AsNumber()
		if !ok1 || !ok2 {
			return model.Value{}, fmt.Errorf("sql: arithmetic over non-numeric values %v, %v", l, r)
		}
		out, ok := f.At(lf, rf)
		if !ok {
			return model.Value{}, nil // NULL
		}
		return model.Num(out), nil
	}
}

// coercePair aligns a string literal with a period operand so that
// comparisons like q = '2001-Q1' work.
func coercePair(l, r model.Value) (model.Value, model.Value) {
	if _, ok := l.AsPeriod(); ok {
		if s, isStr := r.AsString(); isStr {
			if p, err := model.ParsePeriod(s); err == nil {
				return l, model.Per(p)
			}
		}
	}
	if _, ok := r.AsPeriod(); ok {
		if s, isStr := l.AsString(); isStr {
			if p, err := model.ParsePeriod(s); err == nil {
				return model.Per(p), r
			}
		}
	}
	return l, r
}

func (db *DB) inferType(e expr, sc *scope) ColType {
	switch e := e.(type) {
	case *lit:
		switch e.v.Kind() {
		case model.KindString:
			return ColType{Kind: KVarchar}
		case model.KindInt:
			return ColType{Kind: KInteger}
		default:
			return ColType{Kind: KDouble}
		}
	case *colRef:
		if t, err := sc.resolve(e.qual, e.name); err == nil {
			return t
		}
		return ColType{Kind: KDouble}
	case *binExpr:
		lt := db.inferType(e.l, sc)
		if lt.Kind == KPeriod && (e.op == "+" || e.op == "-") {
			return lt
		}
		// Commutative period shift: 1 + Q is a period too.
		if e.op == "+" {
			if rt := db.inferType(e.r, sc); rt.Kind == KPeriod {
				return rt
			}
		}
		return ColType{Kind: KDouble}
	case *callExpr:
		switch e.name {
		case "quarter":
			return ColType{Kind: KPeriod, Freq: model.Quarterly}
		case "month":
			return ColType{Kind: KPeriod, Freq: model.Monthly}
		case "year":
			return ColType{Kind: KPeriod, Freq: model.Annual}
		case "shift":
			if len(e.args) > 0 {
				return db.inferType(e.args[0], sc)
			}
		}
		return ColType{Kind: KDouble}
	default:
		return ColType{Kind: KDouble}
	}
}

// evalInsertSelect builds the version of the table INSERT … SELECT fills, an
// empty one, from the rows of the SELECT: as the revision of the table's
// predecessor (DB.Follow) where it has one with its columns.
func (db *DB) evalInsertSelect(ctx context.Context, s *insertSelectStmt) error {
	t, ok := db.Table(s.table)
	if !ok {
		return fmt.Errorf("sql: unknown table %s", s.table)
	}
	if t.cube.Len() > 0 {
		return fmt.Errorf("sql: table %s already holds a version", s.table)
	}
	cols := columns(t.cube.Schema())
	perm, err := insertPermutation(s.table, cols, s.cols)
	if err != nil {
		return err
	}
	res, err := db.evalSelectCtx(ctx, s.sel)
	if err != nil {
		return err
	}
	if len(res.cols) != len(perm) {
		return fmt.Errorf("sql: INSERT SELECT arity mismatch: %d vs %d", len(res.cols), len(perm))
	}
	sch := t.cube.Schema()
	db.mu.RLock()
	prev := db.prev[s.table]
	db.mu.RUnlock()
	if prev != nil && fits(s.table, prev.Schema(), sch) == nil {
		sch = prev.Schema()
	}
	c, err := res.build(model.NewBuilderOn(prev, sch), cols, perm)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables[s.table] = &Table{cube: c}
	return nil
}

// insertPermutation returns, for each column an INSERT names, its position in
// the table: the names are the table's columns, each once, in any order.
func insertPermutation(table string, cols []Column, names []string) ([]int, error) {
	perm, seen := make([]int, len(names)), make([]bool, len(cols))
	for i, c := range names {
		j := colIndex(cols, c)
		if j < 0 || seen[j] || len(names) != len(cols) {
			return nil, fmt.Errorf("sql: INSERT INTO %s names %v, not each of its columns %s once", table, names, colList(cols))
		}
		perm[i], seen[j] = j, true
	}
	return perm, nil
}

// coerceToColumn converts an inserted value to the column type.
func coerceToColumn(v model.Value, t ColType) (model.Value, error) {
	if !v.IsValid() {
		return model.Value{}, fmt.Errorf("cannot insert NULL")
	}
	switch t.Kind {
	case KDouble:
		f, ok := v.AsNumber()
		if !ok {
			return model.Value{}, fmt.Errorf("cannot coerce %v to DOUBLE", v)
		}
		return model.Num(f), nil
	case KInteger:
		i, ok := v.AsInt()
		if !ok {
			return model.Value{}, fmt.Errorf("cannot coerce %v to INTEGER", v)
		}
		return model.Int(i), nil
	case KVarchar:
		if s, ok := v.AsString(); ok {
			return model.Str(s), nil
		}
		return model.Str(v.String()), nil
	case KPeriod:
		if p, ok := v.AsPeriod(); ok {
			if t.Freq != model.FreqInvalid && p.Freq != t.Freq {
				return model.Value{}, fmt.Errorf("period %v has frequency %s, column wants %s", v, p.Freq, t.Freq)
			}
			return v, nil
		}
		if s, ok := v.AsString(); ok {
			p, err := model.ParsePeriod(s)
			if err != nil {
				return model.Value{}, err
			}
			if t.Freq != model.FreqInvalid && p.Freq != t.Freq {
				return model.Value{}, fmt.Errorf("period %q has frequency %s, column wants %s", s, p.Freq, t.Freq)
			}
			return model.Per(p), nil
		}
		return model.Value{}, fmt.Errorf("cannot coerce %v to %s", v, t)
	default:
		return model.Value{}, fmt.Errorf("unknown column type")
	}
}
