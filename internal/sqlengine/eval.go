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

// resolve returns the type of a column reference, by resolvePlanCol's rules.
func (sc *scope) resolve(qual, name string) (ColType, error) {
	var cols []planCol
	for i, a := range sc.aliases {
		for _, c := range sc.cols[i] {
			cols = append(cols, planCol{qual: a, name: c.Name, typ: c.Type})
		}
	}
	j, err := resolvePlanCol(cols, qual, name)
	if err != nil {
		return ColType{}, err
	}
	return cols[j].typ, nil
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

// result is what a SELECT evaluates to: its columns, and its rows column by
// column, in the order the executor produced them.
type result struct {
	cols []Column
	all  *batch
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
		for j := range b.Cols {
			buf = model.AppendOrderedKey(buf, b.Cols[j].at(i))
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
	return r.build(nil, sch, r.cols, nil)
}

// build builds the version the rows of r are, under sch, as the revision of
// prev (nil for none): column i of r fills column perm[i] of cols (column i
// where perm is nil), which are the dimensions and then the measure of sch,
// each value coerced to its column's type. Rows that are prev's dimension
// tuples, in prev's order, are added as they come, and so are a version on
// prev's key set; any others are added in sortedRows order, and a
// conflict between two of them is the egd violation Build reports.
func (r *result) build(prev *model.Cube, sch model.Schema, cols []Column, perm []int) (*model.Cube, error) {
	b := model.NewBuilderOn(prev, sch)
	followed := false
	if _, ok := b.Following(); ok {
		followed, _ = r.add(b, cols, perm, nil)
	}
	if !followed {
		b = model.NewBuilderOn(prev, sch)
		if _, err := r.add(b, cols, perm, sortedRows(r.all)); err != nil {
			return nil, err
		}
	}
	c, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("sql: %w", err)
	}
	return c, nil
}

// add adds the rows of r to b in order, and reports whether it added them
// all. Where order is nil, it adds them as they come while each is the tuple b
// follows (Builder.Following), and stops at the first that is not.
func (r *result) add(b *model.Builder, cols []Column, perm []int, order []int) (bool, error) {
	last := len(cols) - 1
	dims := make([]model.Value, last)
	for k := range r.all.N {
		row := k
		if order != nil {
			row = order[k]
		}
		var measure float64
		for i := range r.all.Cols {
			j := i
			if perm != nil {
				j = perm[i]
			}
			v, err := coerceToColumn(r.all.Cols[i].at(row), cols[j].Type)
			if err != nil {
				return false, fmt.Errorf("sql: column %s: %w", cols[j].Name, err)
			}
			if j < last {
				dims[j] = v
			} else {
				measure, _ = v.AsNumber()
			}
		}
		if order == nil {
			if d, ok := b.Following(); !ok || !slices.Equal(d, dims) {
				return false, nil
			}
			b.AddFollowing(measure)
		} else if err := b.Add(dims, measure); err != nil {
			return false, fmt.Errorf("sql: %w", err)
		}
	}
	return true, nil
}

// scalarCallFunc applies a resolved dimension function to argument values.
type scalarCallFunc func(vals []model.Value) (model.Value, error)

// resolveScalarCall resolves a scalar function name, called with n
// arguments, once, at compile time: to the applier of a dimension function,
// which the compiled call reuses for every row, or to an operator of ops,
// which it maps over the argument columns. An unknown name and a wrong number
// of arguments are both resolution failures. The semantics — period
// functions, undefined-point → NULL, type errors — live here and in callC
// exactly once.
func resolveScalarCall(name string, n int) (scalarCallFunc, ops.Op, error) {
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
			return nil, 0, err
		}
		return func(vals []model.Value) (model.Value, error) { return f.Apply(vals[0]) }, 0, arity(1)
	case "shift":
		return func(vals []model.Value) (model.Value, error) {
			n, ok := vals[1].AsInt()
			if !ok {
				return model.Value{}, fmt.Errorf("sql: shift steps must be an integer")
			}
			return ops.ShiftValue(vals[0], n)
		}, 0, arity(2)
	}
	// Numeric scalar functions from the operator library.
	op, err := ops.OpOf(name)
	if err != nil {
		return nil, 0, fmt.Errorf("sql: unknown function %s", name)
	}
	return nil, op, arity(op.Arity())
}

// neg is unary minus's operator.
var neg, _ = ops.OpOf("neg")

// arithNames names the ops.Op of each arithmetic operator of the dialect.
var arithNames = map[string]string{"+": "add", "-": "sub", "*": "mul", "/": "div"}

// arith resolves a binary operator of the dialect to its ops.Op, once, where
// an expression is compiled; = has none.
func arith(op string) ops.Op {
	f, _ := ops.OpOf(arithNames[op])
	return f
}

// coercePair aligns a string literal with a period operand so that
// comparisons like q = '2001-Q1' work.
func coercePair(l, r model.Value) (model.Value, model.Value) {
	if p, ok := periodOf(r, l); ok {
		return l, p
	}
	if p, ok := periodOf(l, r); ok {
		return p, r
	}
	return l, r
}

// periodOf returns s parsed as a period where it is a string and its partner
// a period.
func periodOf(s, partner model.Value) (model.Value, bool) {
	if _, ok := partner.AsPeriod(); ok {
		if str, isStr := s.AsString(); isStr {
			if p, err := model.ParsePeriod(str); err == nil {
				return model.Per(p), true
			}
		}
	}
	return model.Value{}, false
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
	c, err := res.build(prev, sch, cols, perm)
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
