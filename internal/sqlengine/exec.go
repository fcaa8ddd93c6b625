package sqlengine

import (
	"context"
	"fmt"
	"slices"

	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
)

// The vectorized executor. Every operator implements execOp and streams
// batches of about chunk rows; expressions are compiled once per statement
// into compiledExpr closures that evaluate a whole column vector per call, so
// the per-row work is the semantic kernel (applyBinary, applyNeg, the resolved
// scalar closure) with no name resolution, no map lookups and no interface
// dispatch on the tree. NULL propagation — NULL-strict equality and
// arithmetic, a NULL conjunct drops the row, so does a NULL output — lives in
// those kernels and in notNullC alone.

// compiledExpr evaluates an expression over a batch, returning one value
// per row. Column references return the batch's column slice directly
// (zero copy); computed nodes return a scratch vector owned by the node
// and overwritten on the next eval call. That is safe under the executor's
// batch-validity rule — a batch returned by next() is only live until the
// next call to next() on the same operator, and every consumer that keeps
// rows longer (drain, join build, group reps) copies them out first.
type compiledExpr interface {
	eval(b *batch) ([]model.Value, error)
}

// scratchVec returns buf resized to n rows, reallocating only on growth.
// Callers must overwrite every element — stale values are not cleared.
func scratchVec(buf []model.Value, n int) []model.Value {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]model.Value, n)
}

// compileEnv is the schema expressions compile against. aggs, set only
// for a groupNode's final expressions, maps canonical aggregate strings
// to pseudo-column indices in the extended (input + aggregates) batch.
type compileEnv struct {
	cols []planCol
	aggs map[string]int
}

type litC struct {
	v   model.Value
	out []model.Value
}

func (c *litC) eval(b *batch) ([]model.Value, error) {
	c.out = scratchVec(c.out, b.N)
	for i := range c.out {
		c.out[i] = c.v
	}
	return c.out, nil
}

type colC struct{ idx int }

func (c *colC) eval(b *batch) ([]model.Value, error) {
	return b.Cols[c.idx], nil
}

type negC struct {
	x   compiledExpr
	out []model.Value
}

func (c *negC) eval(b *batch) ([]model.Value, error) {
	xv, err := c.x.eval(b)
	if err != nil {
		return nil, err
	}
	out := scratchVec(c.out, b.N)
	c.out = out
	for i := 0; i < b.N; i++ {
		v, err := applyNeg(xv[i])
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

type binC struct {
	op   string
	f    ops.Op
	l, r compiledExpr
	out  []model.Value
}

func (c *binC) eval(b *batch) ([]model.Value, error) {
	lv, err := c.l.eval(b)
	if err != nil {
		return nil, err
	}
	rv, err := c.r.eval(b)
	if err != nil {
		return nil, err
	}
	out := scratchVec(c.out, b.N)
	c.out = out
	for i := 0; i < b.N; i++ {
		v, err := applyBinary(c.op, c.f, lv[i], rv[i])
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// notNullC is x IS NOT NULL: the only operator that maps unknown to a known
// boolean instead of propagating it.
type notNullC struct {
	x   compiledExpr
	out []model.Value
}

func (c *notNullC) eval(b *batch) ([]model.Value, error) {
	xv, err := c.x.eval(b)
	if err != nil {
		return nil, err
	}
	out := scratchVec(c.out, b.N)
	c.out = out
	for i := 0; i < b.N; i++ {
		out[i] = model.Bool(xv[i].IsValid())
	}
	return out, nil
}

// callC is a scalar function call with the function resolved at compile
// time. Resolution failure — an unknown function, or one given as many
// arguments as it does not take — is kept, not raised, until a row with all
// arguments non-NULL actually needs the function: over always-NULL
// arguments, or over no rows, it never surfaces.
//
// Every function resolveScalarCall resolves is pure, so a row whose
// arguments are identical (==, see model.Value) to those of the row before
// it in the batch takes that row's result, NULL included, without a call: a
// scan hands batches over in cube order, where quarter(d) sees each day
// once per run of regions, not once per tuple.
type callC struct {
	name       string
	fn         scalarCallFunc
	resolveErr error
	args       []compiledExpr
	argv       [][]model.Value
	out        []model.Value
	buf        []model.Value
}

func (c *callC) eval(b *batch) ([]model.Value, error) {
	if c.argv == nil {
		c.argv = make([][]model.Value, len(c.args))
		c.buf = make([]model.Value, len(c.args))
	}
	argv, buf := c.argv, c.buf
	for i, a := range c.args {
		v, err := a.eval(b)
		if err != nil {
			return nil, err
		}
		argv[i] = v
	}
	out := scratchVec(c.out, b.N)
	c.out = out
	for i := 0; i < b.N; i++ {
		if i > 0 && sameRow(argv, i) {
			out[i] = out[i-1]
			continue
		}
		null := false
		for j := range argv {
			v := argv[j][i]
			if !v.IsValid() {
				null = true
				break
			}
			buf[j] = v
		}
		if null {
			out[i] = model.Value{} // NULL argument: NULL result
			continue
		}
		if c.resolveErr != nil {
			return nil, c.resolveErr
		}
		v, err := c.fn(buf)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// sameRow reports whether every vector holds at row i what it holds at row
// i-1.
func sameRow(vecs [][]model.Value, i int) bool {
	for _, v := range vecs {
		if v[i] != v[i-1] {
			return false
		}
	}
	return true
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
		x, err := compileExpr(e.x, env)
		if err != nil {
			return nil, err
		}
		return &negC{x: x}, nil
	case *binExpr:
		l, err := compileExpr(e.l, env)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(e.r, env)
		if err != nil {
			return nil, err
		}
		return &binC{op: e.op, f: arith(e.op), l: l, r: r}, nil
	case *notNullExpr:
		x, err := compileExpr(e.x, env)
		if err != nil {
			return nil, err
		}
		return &notNullC{x: x}, nil
	case *callExpr:
		if ops.IsAggregation(e.name) {
			if env.aggs != nil {
				if idx, ok := env.aggs[exprString(e)]; ok {
					return &colC{idx: idx}, nil
				}
			}
			return nil, fmt.Errorf("sql: aggregate %s outside grouped context", e.name)
		}
		args := make([]compiledExpr, len(e.args))
		for i, a := range e.args {
			c, err := compileExpr(a, env)
			if err != nil {
				return nil, err
			}
			args[i] = c
		}
		fn, err := resolveScalarCall(e.name, len(args))
		return &callC{name: e.name, fn: fn, resolveErr: err, args: args}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported expression %T", e)
	}
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

// batchScratch is an operator-owned output buffer. Reusing it across
// next() calls is safe under the same batch-validity rule as expression
// scratches: a returned batch is only live until the next call to next()
// on the operator that produced it.
type batchScratch struct {
	b       batch
	backing []model.Value
}

// get returns the scratch shaped to rows×width, all columns sliced from
// one flat backing array. Contents are stale; callers overwrite.
func (s *batchScratch) get(rows, width int) *batch {
	need := rows * width
	if cap(s.backing) < need {
		s.backing = make([]model.Value, need)
	}
	backing := s.backing[:need]
	if cap(s.b.Cols) < width {
		s.b.Cols = make([][]model.Value, width)
	}
	s.b.Cols = s.b.Cols[:width]
	for j := 0; j < width; j++ {
		s.b.Cols[j] = backing[j*rows : (j+1)*rows : (j+1)*rows]
	}
	s.b.N = rows
	return &s.b
}

// gatherInto copies the selected row indexes of b into the scratch.
func gatherInto(s *batchScratch, b *batch, sel []int) *batch {
	out := s.get(len(sel), len(b.Cols))
	for j, c := range b.Cols {
		col := out.Cols[j]
		for i, r := range sel {
			col[i] = c[r]
		}
	}
	return out
}

// appendBatch appends src's rows onto dst column-wise.
func appendBatch(dst, src *batch) {
	for j := range dst.Cols {
		dst.Cols[j] = append(dst.Cols[j], src.Cols[j]...)
	}
	dst.N += src.N
}

// drainOp consumes an operator to completion into one batch.
func drainOp(op execOp, width int) (*batch, error) {
	all := &batch{Cols: make([][]model.Value, width)}
	for {
		b, err := op.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return all, nil
		}
		appendBatch(all, b)
	}
}

// scanOp streams a table's version in chunk-row batches, reading it where it
// lies, through its view. Each batch is the one scratch refilled with the
// scan's projected columns only, which the batch-validity rule above permits;
// nothing of the table is copied whole. The context is polled once per batch.
type scanOp struct {
	ctx      context.Context
	m        opMetrics
	view     *model.View
	proj     []int // table columns to emit
	fill     []int // the emitted columns a batch has to hold, where not all (groupOp)
	measure  int   // the last column; the ones before it are the dimensions
	pos, end int   // next row to read; number of rows
	scratch  batchScratch
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
	b := o.scratch.get(hi-lo, len(o.proj))
	for j, c := range o.proj {
		if o.fill != nil && !slices.Contains(o.fill, j) {
			continue
		}
		col := b.Cols[j]
		for i := range col {
			col[i] = o.value(lo+i, c)
		}
	}
	o.m.emit(b)
	return b, nil
}

// value returns column c of the version's row i.
func (o *scanOp) value(i, c int) model.Value {
	tu := o.view.Tuple(i)
	if c < o.measure {
		return tu.Dims[c]
	}
	return model.Num(tu.Measure)
}

// at returns the scan's columns at n rows of its view, the i-th being row(i).
func (o *scanOp) at(n int, row func(i int) int) *batch {
	b := &batch{N: n, Cols: make([][]model.Value, len(o.proj))}
	for j, c := range o.proj {
		col := make([]model.Value, n)
		for i := range col {
			col[i] = o.value(row(i), c)
		}
		b.Cols[j] = col
	}
	return b
}

// filterOp keeps rows whose predicate is TRUE.
type filterOp struct {
	n       *filterNode
	m       opMetrics
	child   execOp
	sel     []int
	scratch batchScratch
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
			if keep, ok := pred[i].AsBool(); ok && keep {
				sel = append(sel, i)
			}
		}
		o.sel = sel
		if len(sel) == 0 {
			continue
		}
		var out *batch
		if len(sel) == b.N {
			out = b
		} else {
			out = gatherInto(&o.scratch, b, sel)
		}
		o.m.emit(out)
		return out, nil
	}
}

// joinOp is a hash join (build on the right input, probe from the left;
// NULL keys never match) or, without keys, a block nested-loop cross
// product. Output columns are left's followed by right's.
type joinOp struct {
	n           *joinNode
	m           opMetrics
	left, right execOp

	built      bool
	rightAll   *batch
	index      map[string][]int
	keyb       []byte
	lsel, rsel []int
	keyBuf     []model.Value
	keyVecs    [][]model.Value
	scratch    batchScratch
}

func (o *joinOp) build() error {
	rightWidth := len(o.n.right.cols())
	all := &batch{Cols: make([][]model.Value, rightWidth)}
	index := make(map[string][]int)
	keyBuf := make([]model.Value, len(o.n.ckRight))
	keyVecs := make([][]model.Value, len(o.n.ckRight))
	for {
		b, err := o.right.next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if len(o.n.ckRight) > 0 {
			for i, ck := range o.n.ckRight {
				v, err := ck.eval(b)
				if err != nil {
					return err
				}
				keyVecs[i] = v
			}
			base := all.N
			for r := 0; r < b.N; r++ {
				null := false
				for i := range keyVecs {
					v := keyVecs[i][r]
					if !v.IsValid() {
						null = true
						break
					}
					keyBuf[i] = v
				}
				if null {
					continue
				}
				o.keyb = model.AppendKey(o.keyb[:0], keyBuf)
				k := string(o.keyb)
				index[k] = append(index[k], base+r)
			}
		}
		appendBatch(all, b)
	}
	o.rightAll = all
	o.index = index
	o.built = true
	return nil
}

func (o *joinOp) next() (*batch, error) {
	if !o.built {
		if err := o.build(); err != nil {
			return nil, err
		}
	}
	leftWidth := len(o.n.left.cols())
	rightWidth := len(o.n.right.cols())
	if o.keyBuf == nil {
		o.keyBuf = make([]model.Value, len(o.n.ckLeft))
		o.keyVecs = make([][]model.Value, len(o.n.ckLeft))
	}
	keyBuf, keyVecs := o.keyBuf, o.keyVecs
	for {
		lb, err := o.left.next()
		if err != nil || lb == nil {
			return nil, err
		}
		lsel, rsel := o.lsel[:0], o.rsel[:0]
		if len(o.n.ckLeft) > 0 {
			for i, ck := range o.n.ckLeft {
				v, err := ck.eval(lb)
				if err != nil {
					return nil, err
				}
				keyVecs[i] = v
			}
			for r := 0; r < lb.N; r++ {
				null := false
				for i := range keyVecs {
					v := keyVecs[i][r]
					if !v.IsValid() {
						null = true
						break
					}
					keyBuf[i] = v
				}
				if null {
					continue
				}
				o.keyb = model.AppendKey(o.keyb[:0], keyBuf)
				for _, rr := range o.index[string(o.keyb)] {
					lsel = append(lsel, r)
					rsel = append(rsel, rr)
				}
			}
		} else {
			for r := 0; r < lb.N; r++ {
				for rr := 0; rr < o.rightAll.N; rr++ {
					lsel = append(lsel, r)
					rsel = append(rsel, rr)
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
		width := leftWidth + rightWidth
		if outIdx != nil {
			width = len(outIdx)
		}
		out := o.scratch.get(len(lsel), width)
		for k := 0; k < width; k++ {
			ci := k
			if outIdx != nil {
				ci = outIdx[k]
			}
			col := out.Cols[k]
			if ci < leftWidth {
				src := lb.Cols[ci]
				for i, r := range lsel {
					col[i] = src[r]
				}
			} else {
				src := o.rightAll.Cols[ci-leftWidth]
				for i, r := range rsel {
					col[i] = src[r]
				}
			}
		}
		o.m.emit(out)
		return out, nil
	}
}

// projectOp computes the output expressions and drops rows with a NULL
// output (the cube partial-function contract).
type projectOp struct {
	n       *projectNode
	m       opMetrics
	child   execOp
	sel     []int
	vecs    [][]model.Value
	passed  batch
	scratch batchScratch
}

func (o *projectOp) next() (*batch, error) {
	for {
		b, err := o.child.next()
		if err != nil || b == nil {
			return nil, err
		}
		if o.vecs == nil {
			o.vecs = make([][]model.Value, len(o.n.compiled))
		}
		vecs := o.vecs
		for i, c := range o.n.compiled {
			v, err := c.eval(b)
			if err != nil {
				return nil, err
			}
			vecs[i] = v
		}
		sel := o.sel[:0]
		for r := 0; r < b.N; r++ {
			null := false
			for i := range vecs {
				if !vecs[i][r].IsValid() {
					null = true
					break
				}
			}
			if !null {
				sel = append(sel, r)
			}
		}
		o.sel = sel
		if len(sel) == 0 {
			continue
		}
		var out *batch
		if len(sel) == b.N {
			o.passed.N = b.N
			o.passed.Cols = append(o.passed.Cols[:0], vecs...)
			out = &o.passed
		} else {
			out = o.scratch.get(len(sel), len(vecs))
			for j, v := range vecs {
				col := out.Cols[j]
				for i, r := range sel {
					col[i] = v[r]
				}
			}
		}
		o.m.emit(out)
		return out, nil
	}
}

// groupOp is aggregation by group ordinal. It consumes its whole input, a
// batch at a time, and folds each aggregate's argument column into per-group
// accumulators with ops.FoldColumn, its one fold loop; a row without a group
// — a NULL in the key — is in no bag, and neither is a NULL argument. Then it
// evaluates the final expressions over the groups' representative rows, their
// first, extended with the aggregate pseudo-columns, dropping NULL outputs.
//
// The ordinals have one of two sources (see ordinals), which nothing after
// them can tell apart. Where the plan groups a stored version by a function of
// its dimension tuples (groupNode.partSig) and the version's key set has been
// grouped so before, they are that Partition's: no key is evaluated, encoded or
// hashed, the scan fills only what the evaluated aggregate arguments read, and
// the representative rows are read from the version. Otherwise an Assigner
// hands them out for the encoded key of every row — and, under such a plan,
// records them for the key set as it goes. Under such a plan an aggregate of
// the version's measure (aggSpec.measure) folds the version's own measure
// column, which no batch holds a copy of.
type groupOp struct {
	n       *groupNode
	m       opMetrics
	child   execOp
	done    bool
	scratch batchScratch
	states  [][]ops.Acc // [aggregate][group ordinal]

	scan     *scanOp          // the child, where its view's key set keeps the partition
	measures []float64        // the scan's view's measure column, where scan is set
	part     *model.Partition // the ordinals, where the key set had them
	asg      *model.Assigner  // their source otherwise
	built    *obs.Counter
	row      int // input rows seen so far: the next batch's first row in the view

	keyVecs    [][]model.Value
	keyBuf     []model.Value
	ords, kept []uint32
	sel        []int
	argVecs    [][]model.Value // [aggregate] its argument over the batch, where evaluated
	vals       []float64       // one argument's numbers, NULLs left out
	vords      []uint32        // their ordinals, where a NULL was left out
}

// newGroupOp picks the source of the ordinals off the plan and the scanned
// version's key set, and says which on the statement's sql.exec span.
func newGroupOp(ctx context.Context, n *groupNode, child execOp, reg *obs.Registry) *groupOp {
	o := &groupOp{
		n: n, m: newOpMetrics(reg, "groupby"), child: child,
		keyVecs: make([][]model.Value, len(n.ckKeys)), keyBuf: make([]model.Value, len(n.ckKeys)),
		argVecs: make([][]model.Value, len(n.aggs)),
	}
	source := "hash"
	if scan, ok := child.(*scanOp); ok && n.partSig != "" {
		o.scan, o.measures = scan, scan.view.Measures()
		if o.part = scan.view.Partition(n.partSig); o.part != nil {
			source, scan.fill = "partition", n.argCols
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
	ords := o.ords[:0]
rows:
	for r := 0; r < b.N; r++ {
		for i, vec := range o.keyVecs {
			if !vec[r].IsValid() {
				ords = append(ords, model.NoGroup)
				continue rows
			}
			o.keyBuf[i] = vec[r]
		}
		ords = append(ords, o.asg.AssignRow(lo+r, o.keyBuf))
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
	reps := &batch{Cols: make([][]model.Value, childWidth)}
	ngroups := 0
	if o.part != nil {
		ngroups = o.part.Groups()
	}
	o.states = make([][]ops.Acc, len(o.n.aggs))
	o.grow(ngroups)
	rowBuf := make([]model.Value, childWidth)

	for {
		b, err := o.child.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		lo := o.row
		ords, err := o.ordinals(b)
		if err != nil {
			return nil, err
		}
		if o.part == nil {
			for r, g := range ords {
				if int(g) == ngroups { // the assigner's first sight of the group
					if ngroups++; o.scan == nil {
						reps.AppendRow(b.Row(r, rowBuf))
					}
				}
			}
			o.grow(ngroups)
		}
		if err := o.fold(b, ords, lo); err != nil {
			return nil, err
		}
	}
	if o.scan != nil {
		// The representative rows lie in the version, at the groups' first rows.
		if o.part == nil {
			o.part = o.asg.Partition()
			o.built.Inc()
		}
		reps = o.scan.at(ngroups, o.part.First)
	}

	// A global aggregate always has one group, even over zero rows: the
	// representative row is all-NULL, each aggregate its fold of the empty bag.
	if len(o.n.groupBy) == 0 && ngroups == 0 {
		ngroups = 1
		o.grow(ngroups)
		reps.AppendRow(make([]model.Value, childWidth))
	}

	if ngroups == 0 {
		return nil, nil
	}

	// Extended batch: representative rows + one column per aggregate. An empty
	// bag whose fold is undefined stays NULL, which drops its row.
	ext := &batch{N: reps.N, Cols: make([][]model.Value, childWidth+len(o.n.aggs))}
	copy(ext.Cols, reps.Cols)
	for ai, spec := range o.n.aggs {
		col := make([]model.Value, ngroups)
		empty, defined := spec.fold.Empty()
		for gi := range col {
			if acc := &o.states[ai][gi]; acc.N() > 0 {
				col[gi] = model.Num(acc.Result(spec.fold))
			} else if defined {
				col[gi] = model.Num(empty)
			}
		}
		ext.Cols[childWidth+ai] = col
	}

	vecs := make([][]model.Value, len(o.n.finals))
	for i, c := range o.n.finals {
		v, err := c.eval(ext)
		if err != nil {
			return nil, err
		}
		vecs[i] = v
	}
	var sel []int
	for r := 0; r < ext.N; r++ {
		null := false
		for i := range vecs {
			if !vecs[i][r].IsValid() {
				null = true
				break
			}
		}
		if !null {
			sel = append(sel, r)
		}
	}
	if len(sel) == 0 {
		return nil, nil
	}
	out := &batch{N: len(sel), Cols: make([][]model.Value, len(vecs))}
	for j, v := range vecs {
		col := make([]model.Value, len(sel))
		for i, r := range sel {
			col[i] = v[r]
		}
		out.Cols[j] = col
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

// fold folds b, the batch whose rows start at row lo of the input, into every
// aggregate's groups, one column at a time. An aggregate of the version's
// measure folds the view's column under ords, past the rows without a group;
// any other evaluates its argument over the rows with one. Every argument is
// evaluated before any is folded, and a non-numeric value fails the batch at
// the first row that has one, as a fold a row at a time would.
func (o *groupOp) fold(b *batch, ords []uint32, lo int) error {
	var kb *batch
	var kept []uint32
	for i, spec := range o.n.aggs {
		if spec.measure && o.measures != nil {
			continue
		}
		if kb == nil {
			if kb, kept = o.withGroups(b, ords); kb.N == 0 {
				return nil // no row has a group, and the measure column has nothing to fold
			}
		}
		v, err := spec.carg.eval(kb)
		if err != nil {
			return err
		}
		o.argVecs[i] = v[:kb.N]
	}
	bad, badRow := -1, b.N
	for i, spec := range o.n.aggs {
		if spec.measure && o.measures != nil {
			ops.FoldColumn(spec.fold, o.states[i], ords, o.measures[lo:])
			continue
		}
		vals, r := o.unpack(o.argVecs[i])
		if r >= 0 {
			if r < badRow {
				bad, badRow = i, r
			}
			continue
		}
		vords := kept
		if len(vals) < len(kept) { // a NULL was left out, and its ordinal goes with it
			vords = o.vords[:0]
			for r, v := range o.argVecs[i] {
				if v.IsValid() {
					vords = append(vords, kept[r])
				}
			}
			o.vords = vords
		}
		ops.FoldColumn(spec.fold, o.states[i], vords, vals)
	}
	if bad >= 0 {
		return fmt.Errorf("sql: aggregate %s over non-numeric value %v", o.n.aggs[bad].name, o.argVecs[bad][badRow])
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
	return gatherInto(&o.scratch, b, sel), kept
}

// unpack returns the numbers of an evaluated argument, NULLs left out — they
// are not part of the bag — or the row of its first non-numeric value.
func (o *groupOp) unpack(vec []model.Value) ([]float64, int) {
	vals := o.vals[:0]
	for r, v := range vec {
		if !v.IsValid() {
			continue
		}
		f, ok := v.AsNumber()
		if !ok {
			return nil, r
		}
		vals = append(vals, f)
	}
	o.vals = vals
	return vals, -1
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

	out := &result{all: all, order: sortedRows(all)}
	for i := range p.names {
		out.cols = append(out.cols, Column{Name: p.names[i], Type: p.types[i]})
	}
	span.SetAttr(obs.Int("rows", all.N))
	span.End()
	return out, nil
}
