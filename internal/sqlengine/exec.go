package sqlengine

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
)

// The vectorized executor. Every operator implements execOp and streams
// batches of about chunk rows; expressions are compiled once per statement
// into compiledExpr nodes that evaluate a whole column per call, so the
// per-row work is the semantic kernel (ops.Op.Map over number columns, the
// resolved dimension function, the comparison) with no name resolution, no
// map lookups and no interface dispatch on the tree. NULL propagation —
// NULL-strict equality and arithmetic, a NULL conjunct drops the row, so does
// a NULL output — lives in those kernels and in notNullC alone.

// compiledExpr evaluates an expression over a batch, returning one value
// per row. Column references return the batch's column directly (zero copy);
// computed nodes return a column owned by the node and overwritten on the
// next eval call. That is safe under the executor's batch-validity rule — a
// batch returned by next() is only live until the next call to next() on the
// same operator, and every consumer that keeps rows longer (drain, join
// build, group reps) copies them out first.
type compiledExpr interface {
	eval(b *batch) (*vec, error)
}

// compileEnv is the schema expressions compile against. aggs, set only
// for a groupNode's final expressions, maps canonical aggregate strings
// to pseudo-column indices in the extended (input + aggregates) batch.
type compileEnv struct {
	cols []planCol
	aggs map[string]int
}

// values makes v a column of n values, to be overwritten, and returns them.
func (v *vec) values(n int) []model.Value {
	v.form, v.vals = fVal, grow(v.vals, n)
	return v.vals
}

// mapped makes v the number column op(x, y) of n rows: NULL where x or y is
// (xn, yn) or op is undefined.
func (v *vec) mapped(op ops.Op, x, y []float64, xn, yn []bool, n int) *vec {
	v.form, v.nums = fNum, grow(v.nums, n)
	var mask []bool
	if xn != nil || yn != nil {
		mask = grow(v.null, n)
		for i := range mask {
			mask[i] = xn != nil && xn[i] || yn != nil && yn[i]
		}
	}
	v.null = op.Map(v.nums, x, y, mask)
	return v
}

type litC struct {
	v   model.Value
	out vec
}

func (c *litC) eval(b *batch) (*vec, error) {
	if c.v.Kind() == model.KindNumber {
		f, _ := c.v.AsNumber()
		c.out.form, c.out.nums, c.out.null = fNum, grow(c.out.nums, b.N), nil
		for i := range c.out.nums {
			c.out.nums[i] = f
		}
		return &c.out, nil
	}
	out := c.out.values(b.N)
	for i := range out {
		out[i] = c.v
	}
	return &c.out, nil
}

type colC struct{ idx int }

func (c *colC) eval(b *batch) (*vec, error) {
	return &b.Cols[c.idx], nil
}

// binC is = or one of the four arithmetic operators, f its ops.Op (arith).
// Each is NULL-strict: comparing against or computing with an unknown value
// yields unknown, so NULL = x is NULL (not FALSE) and NULL + x is NULL (not an
// error). WHERE then filters the NULL conjunct and SELECT drops the NULL
// output row. Over two number columns the operator is one Map.
type binC struct {
	op           string
	f            ops.Op
	l, r         compiledExpr
	out          vec
	ls, rs       []float64
	lnull, rnull []bool
}

func (c *binC) eval(b *batch) (*vec, error) {
	l, err := c.l.eval(b)
	if err != nil {
		return nil, err
	}
	r, err := c.r.eval(b)
	if err != nil {
		return nil, err
	}
	return c.apply(l, r, b.N)
}

func (c *binC) apply(l, r *vec, n int) (*vec, error) {
	if c.op == "=" {
		out := c.out.values(n)
		for i := range out {
			x, y := l.at(i), r.at(i)
			switch {
			case l.form == fOrd && l.sameSource(r) && l.rows[i] == r.rows[i]:
				out[i] = model.Bool(true) // one tuple's dimension
			case !x.IsValid() || !y.IsValid():
				out[i] = model.Value{}
			default:
				x, y = coercePair(x, y)
				out[i] = model.Bool(x.Equal(y))
			}
		}
		return &c.out, nil
	}
	ln, lnull, lbad := l.numbers(&c.ls, &c.lnull)
	rn, rnull, rbad := r.numbers(&c.rs, &c.rnull)
	c.out.mapped(c.f, ln, rn, lnull, rnull, n)
	if lbad < 0 && rbad < 0 {
		return &c.out, nil
	}
	// A value that is no number: a row at a time, where a period on either
	// side of + or - is shifted. Period arithmetic: Q - 1 shifts a period, as
	// in the paper's generated join condition G1.Q = G2.Q - 1. Addition
	// commutes, so 1 + Q is the same shift; 1 - Q has no period meaning and is
	// rejected explicitly rather than falling through to the numeric path's
	// confusing "non-numeric values" error.
	nums, null := c.out.nums, c.out.null
	out := c.out.values(n)
	shift := c.op == "+" || c.op == "-"
	for i := range out {
		x, y := l.at(i), r.at(i)
		p, lp := x.AsPeriod()
		q, rp := y.AsPeriod()
		_, ln := x.AsNumber()
		_, rn := y.AsNumber()
		switch {
		case !x.IsValid() || !y.IsValid():
			out[i] = model.Value{}
		case shift && (lp || rp):
			per, off := p, y
			if !lp {
				if c.op == "-" {
					return nil, fmt.Errorf("sql: cannot subtract a period from a number")
				}
				per, off = q, x
			}
			k, ok := off.AsInt()
			if !ok {
				return nil, fmt.Errorf("sql: period arithmetic needs an integer offset")
			}
			if c.op == "-" {
				k = -k
			}
			out[i] = model.Per(per.Shift(k))
		case !ln || !rn:
			return nil, fmt.Errorf("sql: arithmetic over non-numeric values %v, %v", x, y)
		case null != nil && null[i]:
			out[i] = model.Value{} // NULL: the operator is undefined there
		default:
			out[i] = model.Num(nums[i])
		}
	}
	return &c.out, nil
}

// notNullC is x IS NOT NULL: the only operator that maps unknown to a known
// boolean instead of propagating it.
type notNullC struct {
	x   compiledExpr
	out vec
}

func (c *notNullC) eval(b *batch) (*vec, error) {
	x, err := c.x.eval(b)
	if err != nil {
		return nil, err
	}
	out := c.out.values(b.N)
	for i := range out {
		out[i] = model.Bool(!x.isNull(i))
	}
	return &c.out, nil
}

// callC is a scalar function call with the function resolved at compile
// time: a dimension function (fn), or an operator of ops (op), which is one
// Map over number columns — unary minus among them, NULL-strict as every
// operator is: the negation of an unknown value is unknown, never an error.
// Resolution failure — an unknown function, or one given as many arguments as
// it does not take — is kept, not raised, until a row with all arguments
// non-NULL actually needs the function: over always-NULL arguments, or over
// no rows, it never surfaces.
//
// Every function resolveScalarCall resolves is pure, so a row whose
// arguments are identical (==, see model.Value) to those of the row before
// it in the batch takes that row's result, NULL included, without a call: a
// scan hands batches over in cube order, where quarter(d) sees each day
// once per run of regions, not once per tuple.
type callC struct {
	name       string
	fn         scalarCallFunc
	op         ops.Op
	resolveErr error
	args       []compiledExpr
	argv       []*vec
	buf, prev  []model.Value // the arguments at a row, and at the row before
	nums       [2][]float64
	nulls      [2][]bool
	out        vec
}

func (c *callC) eval(b *batch) (*vec, error) {
	argv := c.argv[:0]
	for _, a := range c.args {
		v, err := a.eval(b)
		if err != nil {
			return nil, err
		}
		argv = append(argv, v)
	}
	c.argv, c.buf = argv, grow(c.buf, len(argv))
	if c.fn == nil && c.resolveErr == nil {
		return c.mapOp(argv, b.N)
	}
	out := c.out.values(b.N)
	for i := range out {
		for j, a := range argv {
			c.buf[j] = a.at(i)
		}
		if i > 0 && slices.Equal(c.buf, c.prev) {
			out[i] = out[i-1]
			continue
		}
		c.prev = append(c.prev[:0], c.buf...)
		if slices.ContainsFunc(c.buf, func(v model.Value) bool { return !v.IsValid() }) {
			out[i] = model.Value{} // NULL argument: NULL result
			continue
		}
		if c.resolveErr != nil {
			return nil, c.resolveErr
		}
		v, err := c.fn(c.buf)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return &c.out, nil
}

// mapOp is a call of an operator of ops over argv, columns of n rows: NULL
// where an argument is or the operator is undefined; the first row whose
// arguments are all defined and not all numbers is an error.
func (c *callC) mapOp(argv []*vec, n int) (*vec, error) {
	var x [2][]float64
	var xn [2][]bool
	bad := n
	for j, a := range argv {
		var r int
		if x[j], xn[j], r = a.numbers(&c.nums[j], &c.nulls[j]); r >= 0 {
			bad = min(bad, r)
		}
	}
	for i := bad; i < n; i++ {
		for _, a := range argv {
			if _, ok := a.at(i).AsNumber(); !ok && !anyNull(argv, i) {
				return nil, fmt.Errorf("sql: %s over non-numeric value %v", c.name, a.at(i))
			}
		}
	}
	return c.out.mapped(c.op, x[0], x[1], xn[0], xn[1], n), nil
}

// compileExpr compiles an expression against a schema. Aggregate calls
// resolve to pseudo-column references when env.aggs is set (groupNode
// finals) and are an error otherwise.
func compileExpr(e expr, env compileEnv) (compiledExpr, error) {
	switch e := e.(type) {
	case *lit:
		return &litC{v: e.v}, nil
	case *colRef:
		idx, err := resolvePlanCol(env.cols, e.qual, e.name)
		if err != nil {
			return nil, err
		}
		return &colC{idx: idx}, nil
	case *negExpr:
		args, err := compileArgs(env, e.x)
		return &callC{name: "unary minus", op: neg, args: args}, err
	case *binExpr:
		args, err := compileArgs(env, e.l, e.r)
		if err != nil {
			return nil, err
		}
		return &binC{op: e.op, f: arith(e.op), l: args[0], r: args[1]}, nil
	case *notNullExpr:
		args, err := compileArgs(env, e.x)
		if err != nil {
			return nil, err
		}
		return &notNullC{x: args[0]}, nil
	case *callExpr:
		if ops.IsAggregation(e.name) {
			if env.aggs != nil {
				if idx, ok := env.aggs[exprString(e)]; ok {
					return &colC{idx: idx}, nil
				}
			}
			return nil, fmt.Errorf("sql: aggregate %s outside grouped context", e.name)
		}
		args, err := compileArgs(env, e.args...)
		if err != nil {
			return nil, err
		}
		fn, op, err := resolveScalarCall(e.name, len(args))
		return &callC{name: e.name, fn: fn, op: op, resolveErr: err, args: args}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported expression %T", e)
	}
}

// compileArgs compiles the operands of an expression.
func compileArgs(env compileEnv, es ...expr) ([]compiledExpr, error) {
	args := make([]compiledExpr, len(es))
	for i, e := range es {
		var err error
		if args[i], err = compileExpr(e, env); err != nil {
			return nil, err
		}
	}
	return args, nil
}

// execOp is a streaming executor operator: next returns the next batch,
// or nil at end of stream.
type execOp interface {
	next() (*batch, error)
}

// opMetrics instruments an operator's output with per-kind row and batch
// counters (nil-safe: a nil registry no-ops).
type opMetrics struct {
	rows    *obs.Counter
	batches *obs.Counter
}

func newOpMetrics(reg *obs.Registry, kind string) opMetrics {
	return opMetrics{
		rows:    reg.Counter(obs.Label(obs.MetricSQLOpRows, "op", kind)),
		batches: reg.Counter(obs.Label(obs.MetricSQLBatches, "op", kind)),
	}
}

func (m opMetrics) emit(b *batch) {
	if b != nil {
		m.rows.Add(int64(b.N))
		m.batches.Inc()
	}
}

// gatherInto makes dst, an operator's own batch, the selected rows of b, in
// dst's columns' buffers.
func gatherInto(dst, b *batch, sel []int) *batch {
	dst.N, dst.Cols = len(sel), grow(dst.Cols, len(b.Cols))
	for j := range b.Cols {
		dst.Cols[j].gather(&b.Cols[j], sel)
	}
	return dst
}

// nonNull returns, in sel, the rows at which no column of vecs is NULL, and
// whether that is all n rows: then sel is left empty.
func nonNull(vecs []*vec, n int, sel []int) ([]int, bool) {
	sel, all := sel[:0], true
	for r := 0; r < n; r++ {
		null := anyNull(vecs, r)
		if null && all {
			all = false
			for i := range r {
				sel = append(sel, i)
			}
		}
		if !null && !all {
			sel = append(sel, r)
		}
	}
	return sel, all
}

// anyNull reports whether a column of vecs is NULL at row r.
func anyNull(vecs []*vec, r int) bool {
	for _, v := range vecs {
		if v.isNull(r) {
			return true
		}
	}
	return false
}

// drainOp consumes an operator to completion into one batch, its columns in
// their forms.
func drainOp(op execOp, width int) (*batch, error) {
	all := &batch{Cols: make([]vec, width)}
	for {
		b, err := op.next()
		if err != nil {
			return nil, err
		}
		switch {
		case b == nil:
			return all, nil
		case b.own && all.N == 0:
			all = b
		default:
			all.appendRows(b, 0, b.N)
		}
	}
}

// scanOp streams a table's version in chunk-row batches, reading it where it
// lies, through its view: a batch is the scan's row ordinals, which every
// dimension column refers to, and a window of the version's measure column.
// Nothing of the version is copied or boxed. The context is polled once per
// batch.
type scanOp struct {
	ctx      context.Context
	m        opMetrics
	view     *model.View
	proj     []int // table columns to emit
	measure  int   // the last column; the ones before it are the dimensions
	pos, end int   // next row to read; number of rows
	rows     []uint32
	b        batch
}

func newScanOp(ctx context.Context, n *scanNode, reg *obs.Registry) *scanOp {
	o := &scanOp{ctx: ctx, m: newOpMetrics(reg, "scan"), view: n.table.cube.View(), proj: n.proj, measure: len(n.tableCols) - 1}
	o.end = o.view.Len()
	if o.proj == nil {
		o.proj = make([]int, len(n.tableCols))
		for i := range o.proj {
			o.proj[i] = i
		}
	}
	return o
}

func (o *scanOp) next() (*batch, error) {
	if o.pos >= o.end {
		return nil, nil
	}
	if err := o.ctx.Err(); err != nil {
		return nil, err
	}
	lo, hi := o.pos, min(o.pos+chunk, o.end)
	o.pos = hi
	o.rows = grow(o.rows, hi-lo)
	for i := range o.rows {
		o.rows[i] = uint32(lo + i)
	}
	b := o.fill(&o.b, o.rows, o.view.Measures()[lo:hi])
	o.m.emit(b)
	return b, nil
}

// fill makes b the scan's columns at rows of its view, whose measures are nums.
func (o *scanOp) fill(b *batch, rows []uint32, nums []float64) *batch {
	b.N, b.Cols = len(rows), grow(b.Cols, len(o.proj))
	for j, c := range o.proj {
		if c < o.measure {
			b.Cols[j] = vec{form: fOrd, view: o.view, dim: c, rows: rows}
		} else {
			b.Cols[j] = vec{form: fNum, nums: nums}
		}
	}
	return b
}

// at returns the scan's columns at rows of its view.
func (o *scanOp) at(rows []uint32) *batch {
	var nums []float64
	if slices.Contains(o.proj, o.measure) {
		nums = make([]float64, len(rows))
		for i, r := range rows {
			nums[i] = o.view.Measures()[r]
		}
	}
	return o.fill(&batch{}, rows, nums)
}

// filterOp keeps rows whose predicate is TRUE.
type filterOp struct {
	n     *filterNode
	m     opMetrics
	child execOp
	sel   []int
	out   batch
}

func (o *filterOp) next() (*batch, error) {
	for {
		b, err := o.child.next()
		if err != nil || b == nil {
			return nil, err
		}
		pred, err := o.n.ccond.eval(b)
		if err != nil {
			return nil, err
		}
		sel := o.sel[:0]
		for i := 0; i < b.N; i++ {
			if keep, ok := pred.at(i).AsBool(); ok && keep {
				sel = append(sel, i)
			}
		}
		o.sel = sel
		if len(sel) == 0 {
			continue
		}
		out := b
		if len(sel) < b.N {
			out = gatherInto(&o.out, b, sel)
		}
		o.m.emit(out)
		return out, nil
	}
}

// joinOp is a hash join (build on the right input, probe from the left;
// NULL keys never match) or, without keys, a block nested-loop cross
// product. Output columns are left's followed by right's. The build side is
// kept in its columns' forms, and indexed by the hash of each row's key
// (model.Chains), which is read again from the columns where a probe meets it:
// no key is kept.
type joinOp struct {
	n           *joinNode
	m           opMetrics
	left, right execOp

	built      bool
	rightAll   batch
	rkeys      []*vec // the build keys, over rightAll
	index      *model.Chains
	lkeys      []*vec
	keyb, keyc []byte
	lsel, rsel []int
	out        batch
}

// appendKey appends to buf the key of row r of the columns, and is false where
// one of them is NULL.
func appendKey(buf []byte, cols []*vec, r int) ([]byte, bool) {
	for _, c := range cols {
		v := c.at(r)
		if !v.IsValid() {
			return buf, false
		}
		buf = model.AppendOrderedKey(buf, v)
	}
	return buf, true
}

func (o *joinOp) build() error {
	all := &o.rightAll
	all.Cols = make([]vec, len(o.n.right.cols()))
	for {
		b, err := o.right.next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		all.appendRows(b, 0, b.N)
	}
	o.built = true
	if len(o.n.ckRight) == 0 {
		return nil
	}
	for _, ck := range o.n.ckRight {
		v, err := ck.eval(all)
		if err != nil {
			return err
		}
		o.rkeys = append(o.rkeys, v)
	}
	o.index = model.NewChains(all.N)
	for r := 0; r < all.N; r++ {
		key, ok := appendKey(o.keyb[:0], o.rkeys, r)
		if o.keyb = key; ok {
			o.index.Add(int32(r), model.HashKey(key), o.hasKey)
		}
	}
	return nil
}

// hasKey reports whether build row q has the key in keyb.
func (o *joinOp) hasKey(q int32) bool {
	o.keyc, _ = appendKey(o.keyc[:0], o.rkeys, int(q))
	return bytes.Equal(o.keyb, o.keyc)
}

func (o *joinOp) next() (*batch, error) {
	if !o.built {
		if err := o.build(); err != nil {
			return nil, err
		}
	}
	leftWidth := len(o.n.left.cols())
	for {
		lb, err := o.left.next()
		if err != nil || lb == nil {
			return nil, err
		}
		lsel, rsel := slices.Grow(o.lsel[:0], lb.N), slices.Grow(o.rsel[:0], lb.N)
		if len(o.n.ckLeft) > 0 {
			o.lkeys = o.lkeys[:0]
			for _, ck := range o.n.ckLeft {
				v, err := ck.eval(lb)
				if err != nil {
					return nil, err
				}
				o.lkeys = append(o.lkeys, v)
			}
			for r := 0; r < lb.N; r++ {
				key, ok := appendKey(o.keyb[:0], o.lkeys, r)
				if o.keyb = key; !ok {
					continue
				}
				for m := o.index.Head(model.HashKey(key), o.hasKey); m >= 0; m = o.index.Next(m) {
					lsel, rsel = append(lsel, r), append(rsel, int(m))
				}
			}
		} else {
			for r := 0; r < lb.N; r++ {
				for rr := 0; rr < o.rightAll.N; rr++ {
					lsel, rsel = append(lsel, r), append(rsel, rr)
				}
			}
		}
		o.lsel, o.rsel = lsel, rsel
		if len(lsel) == 0 {
			continue
		}
		// Gather only the pruned output columns (outCols indexes the
		// left+right concatenation; nil means all).
		outIdx := o.n.outCols
		width := leftWidth + len(o.n.right.cols())
		if outIdx != nil {
			width = len(outIdx)
		}
		out := &o.out
		out.N, out.Cols = len(lsel), grow(out.Cols, width)
		for k := 0; k < width; k++ {
			ci := k
			if outIdx != nil {
				ci = outIdx[k]
			}
			if ci < leftWidth {
				out.Cols[k].gather(&lb.Cols[ci], lsel)
			} else {
				out.Cols[k].gather(&o.rightAll.Cols[ci-leftWidth], rsel)
			}
		}
		o.m.emit(out)
		return out, nil
	}
}

// projectOp computes the output expressions and drops rows with a NULL
// output (the cube partial-function contract).
type projectOp struct {
	n      *projectNode
	m      opMetrics
	child  execOp
	sel    []int
	vecs   []*vec
	passed batch
	out    batch
}

func (o *projectOp) next() (*batch, error) {
	for {
		b, err := o.child.next()
		if err != nil || b == nil {
			return nil, err
		}
		vecs := o.vecs[:0]
		for _, c := range o.n.compiled {
			v, err := c.eval(b)
			if err != nil {
				return nil, err
			}
			vecs = append(vecs, v)
		}
		o.vecs = vecs
		sel, all := nonNull(vecs, b.N, o.sel)
		if o.sel = sel; !all && len(sel) == 0 {
			continue
		}
		out := &o.passed
		if all {
			out.N, out.Cols = b.N, out.Cols[:0]
			for _, v := range vecs {
				out.Cols = append(out.Cols, *v)
			}
		} else {
			out = &o.out
			out.N, out.Cols = len(sel), grow(out.Cols, len(vecs))
			for j, v := range vecs {
				out.Cols[j].gather(v, sel)
			}
		}
		o.m.emit(out)
		return out, nil
	}
}

// groupOp is aggregation by group ordinal. It consumes its whole input, a
// batch at a time, and folds each aggregate's argument column into per-group
// accumulators with ops.FoldColumn, its one fold loop; a row without a group
// — a NULL in the key — is in no bag, and neither is a NULL argument, whose
// ordinal the fold is handed as model.NoGroup. A number column is folded as it
// is. Then it evaluates the final expressions over the groups' representative
// rows, their first, beside one number column per aggregate, dropping NULL
// outputs.
//
// The ordinals have one of two sources (see ordinals), which nothing after
// them can tell apart. Where the plan groups a stored version by a function of
// its dimension tuples (groupNode.partSig) and the version's key set has been
// grouped so before, they are that Partition's: no key is evaluated, encoded or
// hashed, and the representative rows are the groups' first rows' ordinals in
// the version. Otherwise an Assigner hands them out for the encoded key of
// every row — and, under such a plan, records them for the key set as it goes.
// An aggregate of a stored version's measure folds the window of the version's
// measure column the scan hands out, which no batch holds a copy of.
type groupOp struct {
	n      *groupNode
	m      opMetrics
	child  execOp
	done   bool
	states [][]ops.Acc // [aggregate][group ordinal]

	scan  *scanOp          // the child, where its view's key set keeps the partition
	part  *model.Partition // the ordinals, where the key set had them
	asg   *model.Assigner  // their source otherwise
	built *obs.Counter
	row   int // input rows seen so far: the next batch's first row in the view

	keyVecs           []*vec
	keyBuf            []model.Value
	ords, kept, vords []uint32
	sel               []int
	sub               batch
	argv              []*vec // [aggregate] its argument over the batch, where evaluated
	nums              []float64
	null              []bool
}

// newGroupOp picks the source of the ordinals off the plan and the scanned
// version's key set, and says which on the statement's sql.exec span.
func newGroupOp(ctx context.Context, n *groupNode, child execOp, reg *obs.Registry) *groupOp {
	o := &groupOp{
		n: n, m: newOpMetrics(reg, "groupby"), child: child,
		keyVecs: make([]*vec, len(n.ckKeys)), keyBuf: make([]model.Value, len(n.ckKeys)),
		argv: make([]*vec, len(n.aggs)),
	}
	source := "hash"
	if scan, ok := child.(*scanOp); ok && n.partSig != "" {
		o.scan = scan
		if o.part = scan.view.Partition(n.partSig); o.part != nil {
			source = "partition"
			reg.Counter(obs.MetricPartitionsReused).Inc()
		} else {
			o.asg, o.built = scan.view.NewPartition(n.partSig), reg.Counter(obs.MetricPartitionsBuilt)
		}
	} else {
		o.asg = model.NewAssigner()
	}
	obs.CurrentSpan(ctx).SetAttr(obs.String("groups", source))
	return o
}

// ordinals returns the group ordinal of every row of b, the next batch of the
// input: model.NoGroup where a key is NULL. They are valid until the next call.
func (o *groupOp) ordinals(b *batch) ([]uint32, error) {
	lo := o.row
	o.row += b.N
	if o.part != nil {
		return o.part.Ordinals(lo, o.row), nil
	}
	for i, ck := range o.n.ckKeys {
		v, err := ck.eval(b)
		if err != nil {
			return nil, err
		}
		o.keyVecs[i] = v
	}
	ords := grow(o.ords, b.N)
rows:
	for r := range ords {
		for i, vec := range o.keyVecs {
			if o.keyBuf[i] = vec.at(r); !o.keyBuf[i].IsValid() {
				ords[r] = model.NoGroup
				continue rows
			}
		}
		ords[r] = o.asg.AssignRow(lo+r, o.keyBuf)
	}
	o.ords = ords
	return ords, nil
}

func (o *groupOp) next() (*batch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true

	childWidth := len(o.n.child.cols())
	reps := &batch{Cols: make([]vec, childWidth)}
	ngroups := 0
	if o.part != nil {
		ngroups = o.part.Groups()
	}
	o.states = make([][]ops.Acc, len(o.n.aggs))
	o.grow(ngroups)

	for {
		b, err := o.child.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		ords, err := o.ordinals(b)
		if err != nil {
			return nil, err
		}
		if o.part == nil {
			for r, g := range ords {
				if int(g) == ngroups { // the assigner's first sight of the group
					if ngroups++; o.scan == nil {
						reps.appendRows(b, r, r+1)
					}
				}
			}
			o.grow(ngroups)
		}
		if err := o.fold(b, ords); err != nil {
			return nil, err
		}
	}
	if o.scan != nil {
		// The representative rows lie in the version, at the groups' first rows.
		if o.part == nil {
			o.part = o.asg.Partition()
			o.built.Inc()
		}
		first := make([]uint32, ngroups)
		for g := range first {
			first[g] = uint32(o.part.First(g))
		}
		reps = o.scan.at(first)
	}

	// A global aggregate always has one group, even over zero rows: the
	// representative row is all-NULL, each aggregate its fold of the empty bag.
	if len(o.n.groupBy) == 0 && ngroups == 0 {
		ngroups, reps.N = 1, 1
		o.grow(ngroups)
		for j := range reps.Cols {
			reps.Cols[j] = vec{vals: make([]model.Value, 1)}
		}
	}
	if ngroups == 0 {
		return nil, nil
	}

	// The representative rows beside one number column per aggregate. An
	// empty bag whose fold is undefined is NULL, which drops its row.
	ext := &batch{N: ngroups, Cols: slices.Grow(reps.Cols, len(o.n.aggs))}
	for ai, spec := range o.n.aggs {
		col := vec{form: fNum, nums: make([]float64, ngroups)}
		empty, defined := spec.fold.Empty()
		for g := range col.nums {
			switch acc := &o.states[ai][g]; {
			case acc.N() > 0:
				col.nums[g] = acc.Result(spec.fold)
			case defined:
				col.nums[g] = empty
			default:
				if col.null == nil {
					col.null = make([]bool, ngroups)
				}
				col.null[g] = true
			}
		}
		ext.Cols = append(ext.Cols, col)
	}

	vecs := make([]*vec, len(o.n.finals))
	for i, c := range o.n.finals {
		v, err := c.eval(ext)
		if err != nil {
			return nil, err
		}
		vecs[i] = v
	}
	sel, all := nonNull(vecs, ngroups, nil)
	if !all && len(sel) == 0 {
		return nil, nil
	}
	out := &batch{N: ngroups, Cols: make([]vec, len(vecs)), own: true}
	if !all {
		out.N = len(sel)
	}
	for j, v := range vecs {
		if all {
			out.Cols[j] = *v
		} else {
			out.Cols[j].gather(v, sel)
		}
	}
	o.m.emit(out)
	return out, nil
}

// grow gives every aggregate an empty bag for each group up to ngroups.
func (o *groupOp) grow(ngroups int) {
	for i, s := range o.states {
		o.states[i] = append(s, make([]ops.Acc, ngroups-len(s))...)
	}
}

// fold folds b, the next batch of the input, its rows' ordinals ords, into every
// aggregate's groups, one column at a time: its argument evaluated over the
// rows with a group. Every argument is evaluated before any is folded, and a
// non-numeric value fails the batch at the first row that has one, as a fold
// a row at a time would.
func (o *groupOp) fold(b *batch, ords []uint32) error {
	kb, kept := o.withGroups(b, ords)
	if kb.N == 0 {
		return nil // no row has a group
	}
	for i, spec := range o.n.aggs {
		v, err := spec.carg.eval(kb)
		if err != nil {
			return err
		}
		o.argv[i] = v
	}
	bad, badRow := -1, b.N
	for i, spec := range o.n.aggs {
		nums, null, r := o.argv[i].numbers(&o.nums, &o.null)
		if r >= 0 {
			if r < badRow {
				bad, badRow = i, r
			}
			continue
		}
		vords := kept
		if null != nil { // a NULL is not part of the bag
			vords = grow(o.vords, len(kept))
			for r, g := range kept {
				if vords[r] = g; null[r] {
					vords[r] = model.NoGroup
				}
			}
			o.vords = vords
		}
		ops.FoldColumn(spec.fold, o.states[i], vords, nums)
	}
	if bad >= 0 {
		return fmt.Errorf("sql: aggregate %s over non-numeric value %v", o.n.aggs[bad].name, o.argv[bad].at(badRow))
	}
	return nil
}

// withGroups returns the rows of b that have a group, and their ordinals: a row
// without a group is no row of a bag, and its arguments are not evaluated.
func (o *groupOp) withGroups(b *batch, ords []uint32) (*batch, []uint32) {
	if !slices.Contains(ords, model.NoGroup) {
		return b, ords
	}
	sel, kept := o.sel[:0], o.kept[:0]
	for r, g := range ords {
		if g != model.NoGroup {
			sel, kept = append(sel, r), append(kept, g)
		}
	}
	o.sel, o.kept = sel, kept
	return gatherInto(&o.sub, b, sel), kept
}

// buildOps lowers the analyzed plan (minus the root sortNode, which the
// driver applies after materialization) into an operator tree.
func buildOps(ctx context.Context, n planNode, reg *obs.Registry) (execOp, error) {
	switch n := n.(type) {
	case *scanNode:
		return newScanOp(ctx, n, reg), nil
	case *filterNode:
		c, err := buildOps(ctx, n.child, reg)
		if err != nil {
			return nil, err
		}
		return &filterOp{n: n, m: newOpMetrics(reg, "filter"), child: c}, nil
	case *joinNode:
		l, err := buildOps(ctx, n.left, reg)
		if err != nil {
			return nil, err
		}
		r, err := buildOps(ctx, n.right, reg)
		if err != nil {
			return nil, err
		}
		kind := "hashjoin"
		if len(n.leftKeys) == 0 {
			kind = "crossjoin"
		}
		return &joinOp{n: n, m: newOpMetrics(reg, kind), left: l, right: r}, nil
	case *projectNode:
		c, err := buildOps(ctx, n.child, reg)
		if err != nil {
			return nil, err
		}
		return &projectOp{n: n, m: newOpMetrics(reg, "project"), child: c}, nil
	case *groupNode:
		c, err := buildOps(ctx, n.child, reg)
		if err != nil {
			return nil, err
		}
		return newGroupOp(ctx, n, c, reg), nil
	default:
		return nil, fmt.Errorf("sql: internal: cannot execute plan node %T", n)
	}
}

// evalSelectVec runs a SELECT through the vectorized pipeline:
// prepare → lower → analyze → execute → sort.
func (db *DB) evalSelectVec(ctx context.Context, s *selectStmt, r *resolver) (*result, error) {
	ctx, span := obs.StartSpan(ctx, "sql.vec")
	p, err := db.prepareSelect(s, r)
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	plan := buildPlan(s, p)
	actx, aspan := obs.StartSpan(ctx, "sql.analyze")
	plan, err = db.analyze(actx, plan, p.sc)
	aspan.EndErr(err)
	if err != nil {
		span.EndErr(err)
		return nil, err
	}

	root, ok := plan.(*sortNode)
	if !ok {
		err := fmt.Errorf("sql: internal: plan root is %T, want sort", plan)
		span.EndErr(err)
		return nil, err
	}
	ectx, espan := obs.StartSpan(ctx, "sql.exec")
	op, err := buildOps(ectx, root.child, obs.MetricsFrom(ctx))
	if err != nil {
		espan.EndErr(err)
		span.EndErr(err)
		return nil, err
	}
	all, err := drainOp(op, len(root.child.cols()))
	espan.EndErr(err)
	if err != nil {
		span.EndErr(err)
		return nil, err
	}

	out := &result{all: all}
	for i := range p.names {
		out.cols = append(out.cols, Column{Name: p.names[i], Type: p.types[i]})
	}
	span.SetAttr(obs.Int("rows", all.N))
	span.End()
	return out, nil
}
