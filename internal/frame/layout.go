package frame

import (
	"bytes"
	"fmt"
	"slices"

	"exlengine/internal/model"
	"exlengine/internal/ops"
)

// Layout is where the values of a relation's columns lie, in a frame and in
// an ETL stream alike. A row refers to the tuple each of the layout's versions
// fed into it, by its ordinal there, and holds only what was computed from
// them: numbers, and dimension values such as quarter(d) or a group's key.
// Every other value is read from the version where it lies, and is never
// copied into a row.
type Layout struct {
	Names      []string
	cols       []col         // by name
	views      []*model.View // the versions a row's ordinals index
	nums, vals int           // computed numbers and dimension values a row holds
}

// col is where the values of a column lie.
type col struct {
	src   int   // the version whose tuple holds them, or -1 where they were computed
	at    int   // that tuple's dimension, or -1 for its measure; or the computed column's place in a row's nums or vals
	shift int64 // added to the version's value as it is read
	num   bool  // a computed number, else a computed dimension value
}

// Source returns the layout of rows that each refer to one tuple of c: column
// names[i] reads the tuple's column fields[i], a dimension or the measure,
// shifted by shifts[i] where shifts is not nil.
func Source(c *model.Cube, fields, names []string, shifts []int64) (*Layout, error) {
	sch := c.Schema()
	l := &Layout{Names: names, cols: make([]col, 0, len(fields)), views: []*model.View{c.View()}}
	for i, fld := range fields {
		k := col{at: sch.DimIndex(fld)}
		if k.at < 0 && fld != sch.Measure {
			return nil, fmt.Errorf("%s has no column %s", sch.Name, fld)
		}
		if shifts != nil {
			k.shift = shifts[i]
		}
		l.cols = append(l.cols, k)
	}
	return l, nil
}

// Computed returns the layout of the rows a kernel hands out (Grouping,
// PadMerger, Series): a key's dimension values, then a number.
func Computed(names ...string) *Layout {
	l := &Layout{Names: names, nums: 1, vals: len(names) - 1}
	for j := range l.vals {
		l.cols = append(l.cols, col{src: -1, at: j})
	}
	l.cols = append(l.cols, col{src: -1, num: true})
	return l
}

// Join returns the layout of the merge of l and r on keys: l's columns, then
// r's other columns (R's merge layout).
func (l *Layout) Join(r *Layout, keys []string) *Layout {
	j := &Layout{Names: slices.Clone(l.Names), cols: slices.Clone(l.cols), views: append(slices.Clip(l.views), r.views...),
		nums: l.nums + r.nums, vals: l.vals + r.vals}
	for i, name := range r.Names {
		if slices.Contains(keys, name) {
			continue
		}
		c := r.cols[i]
		switch {
		case c.src >= 0:
			c.src += len(l.views)
		case c.num:
			c.at += l.nums
		default:
			c.at += l.vals
		}
		j.Names, j.cols = append(j.Names, name), append(j.cols, c)
	}
	return j
}

// Calculated returns the layout of l's rows with the columns names computed by
// exprs, one after another: a name l has is overwritten, any other appended. A
// column that renames one (Col) lies where that one does; a number (Apply,
// Const) is held as a number, anything else as a dimension value.
func (l *Layout) Calculated(names []string, exprs []Expr) *Layout {
	c := &Layout{Names: slices.Clone(l.Names), cols: slices.Clone(l.cols), views: l.views, nums: l.nums, vals: l.vals}
	for i, e := range exprs {
		k := col{src: -1}
		switch e := e.(type) {
		case Col:
			if j := slices.Index(c.Names, e.Name); j >= 0 {
				k = c.cols[j]
				break
			}
			k.at, c.vals = c.vals, c.vals+1
		case Apply, Const:
			k.at, k.num, c.nums = c.nums, true, c.nums+1
		default:
			k.at, c.vals = c.vals, c.vals+1
		}
		if j := slices.Index(c.Names, names[i]); j >= 0 {
			c.cols[j] = k
		} else {
			c.Names, c.cols = append(c.Names, names[i]), append(c.cols, k)
		}
	}
	return c
}

// columns returns the positions of names among l's columns; what names the step.
func (l *Layout) columns(names []string, what string) ([]int, error) {
	idx := make([]int, len(names))
	for i, name := range names {
		if idx[i] = slices.Index(l.Names, name); idx[i] < 0 {
			return nil, fmt.Errorf("%s: unknown column %s", what, name)
		}
	}
	return idx, nil
}

// used returns the positions of the columns of l that names name, each once:
// all a step that reads those columns has to read.
func (l *Layout) used(names ...string) []int {
	var cols []int
	for _, name := range names {
		if j := slices.Index(l.Names, name); j >= 0 && !slices.Contains(cols, j) {
			cols = append(cols, j)
		}
	}
	return cols
}

// Value returns column c of row i of b, a batch of l.
func (l *Layout) Value(b *Batch, i, c int) model.Value {
	k := l.cols[c]
	switch {
	case k.num:
		return model.Num(b.nums[i*l.nums+k.at])
	case k.src < 0:
		return b.vals[i*l.vals+k.at]
	}
	view, r := l.views[k.src], int(b.refs[i*len(l.views)+k.src])
	var v model.Value
	if k.at >= 0 {
		v = view.Dims(r)[k.at]
	} else {
		v = model.Num(view.At(r))
	}
	if k.shift != 0 {
		v, _ = ops.ShiftValue(v, k.shift) // Scan saw that it shifts
	}
	return v
}

// values reads the columns cols of row i of b into vs, and is false where one
// of them is undefined.
func (l *Layout) values(vs []model.Value, b *Batch, i int, cols []int) bool {
	for k, c := range cols {
		if vs[k] = l.Value(b, i, c); !vs[k].IsValid() {
			return false
		}
	}
	return true
}

// key appends to buf the key of the columns cols of row i of b, and is false
// where one of them is undefined.
func (l *Layout) key(buf []byte, b *Batch, i int, cols []int) ([]byte, bool) {
	for _, c := range cols {
		v := l.Value(b, i, c)
		if !v.IsValid() {
			return buf, false
		}
		buf = model.AppendOrderedKey(buf, v)
	}
	return buf, true
}

// Scan hands out a row for each tuple of l's one version in cube order, l
// being a Source layout; where filter is a dimension, only for the tuples
// whose value there equals v. A key shift that leaves its period's range is
// an error.
func (l *Layout) Scan(filter int, v model.Value, out Sink) error {
	view := l.views[0]
	for i := range view.Len() {
		dims := view.Dims(i)
		if filter >= 0 && !dims[filter].Equal(v) {
			continue
		}
		for _, c := range l.cols {
			if c.shift != 0 && c.at >= 0 {
				if _, err := ops.ShiftValue(dims[c.at], c.shift); err != nil {
					return err
				}
			}
		}
		o := out.Row()
		o.refs = append(o.refs, int32(i))
		if err := out.End(); err != nil {
			return err
		}
	}
	return nil
}

// Batch is rows of a layout, one after another: a row's ordinals, one per
// version, its computed numbers and its computed dimension values. Only the
// last hold pointers, and only where dimension values were computed.
type Batch struct {
	N    int
	refs []int32
	nums []float64
	vals []model.Value
}

// NewBatch returns an empty batch with room for n rows of l.
func NewBatch(n int, l *Layout) *Batch {
	b := &Batch{}
	b.Reserve(n, l)
	return b
}

// Reserve makes room in b, an empty batch, for n rows of l: a batch may have
// served rows of another layout.
func (b *Batch) Reserve(n int, l *Layout) {
	b.refs, b.nums, b.vals = slices.Grow(b.refs, n*len(l.views)), slices.Grow(b.nums, n*l.nums), slices.Grow(b.vals, n*l.vals)
}

// Reset empties b for reuse, letting go of the values it held.
func (b *Batch) Reset() {
	clear(b.vals)
	b.N, b.refs, b.nums, b.vals = 0, b.refs[:0], b.nums[:0], b.vals[:0]
}

// Append appends every row of from, a batch of b's layout.
func (b *Batch) Append(from *Batch) {
	b.N, b.refs, b.nums, b.vals = b.N+from.N, append(b.refs, from.refs...), append(b.nums, from.nums...), append(b.vals, from.vals...)
}

// add appends row i of from, a batch of l, to the row b is filling.
func (b *Batch) add(from *Batch, i int, l *Layout) {
	w := len(l.views)
	b.refs = append(b.refs, from.refs[i*w:(i+1)*w]...)
	b.nums = append(b.nums, from.nums[i*l.nums:(i+1)*l.nums]...)
	b.vals = append(b.vals, from.vals[i*l.vals:(i+1)*l.vals]...)
}

// Sink takes the rows a step hands out, one at a time: the step appends a row
// to the batch Row returns, then End counts it. A batch is a Sink that keeps
// every row; an ETL step's sends its rows downstream a batch at a time.
type Sink interface {
	Row() *Batch
	End() error
}

// Row returns b itself.
func (b *Batch) Row() *Batch { return b }

// End counts the row appended.
func (b *Batch) End() error {
	b.N++
	return nil
}

// Merger is the merge step's body (Merge's, and the ETL merge join's). The
// right side is indexed by the hash of each row's key, each row chained to the
// next with its key in arrival order (model.Chains). No key is kept: where a
// probe meets a row, the row's key is read again through its references. Each
// left row is then handed out followed by its matches, in that order.
type Merger struct {
	Out        *Layout
	l, r       *Layout
	lk, rk     []int
	build      *Batch
	index      *model.Chains
	key, other []byte
}

// NewMerger returns the body of the merge of l and r on keys.
func NewMerger(l, r *Layout, keys []string) (*Merger, error) {
	lk, err := l.columns(keys, "merge")
	if err != nil {
		return nil, err
	}
	rk, err := r.columns(keys, "merge")
	if err != nil {
		return nil, err
	}
	return &Merger{Out: l.Join(r, keys), l: l, r: r, lk: lk, rk: rk}, nil
}

// Build indexes build, every row of the right side. A row with an undefined
// key matches nothing.
func (m *Merger) Build(build *Batch) {
	m.build, m.index = build, model.NewChains(build.N)
	for i := range build.N {
		var ok bool
		if m.key, ok = m.r.key(m.key[:0], build, i, m.rk); ok {
			m.index.Add(int32(i), model.HashKey(m.key), m.has)
		}
	}
}

// has reports whether right row q has the key in m.key.
func (m *Merger) has(q int32) bool {
	m.other, _ = m.r.key(m.other[:0], m.build, int(q), m.rk)
	return bytes.Equal(m.key, m.other)
}

// Probe hands out each row of b, a batch of the left side, joined with each of
// its matches.
func (m *Merger) Probe(b *Batch, out Sink) error {
	for i := range b.N {
		var ok bool
		if m.key, ok = m.l.key(m.key[:0], b, i, m.lk); !ok {
			continue
		}
		for q := m.index.Head(model.HashKey(m.key), m.has); q >= 0; q = m.index.Next(q) {
			o := out.Row()
			o.add(b, i, m.l)
			o.add(m.build, int(q), m.r)
			if err := out.End(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Calculator is the calculation step's body (MapCol's, and the ETL
// calculator's). Each expression is bound once against the columns in front
// of it, and evaluated over one reused row into which only the columns the
// expressions read are read. A row where one is undefined (NA) is dropped: it
// contributes nothing.
type Calculator struct {
	Out    *Layout
	in     *Layout
	fields []RowFunc
	slots  []int  // by field: its column in Out, and its place in row
	held   []bool // by field: whether a row holds its value, else its column renames one
	row    []model.Value
	used   []int
}

// NewCalculator returns the body that computes the columns names of in's rows
// by exprs, as Calculated lays them out.
func NewCalculator(in *Layout, names []string, exprs []Expr) (*Calculator, error) {
	n := len(exprs)
	c := &Calculator{Out: in.Calculated(names, exprs), in: in, fields: make([]RowFunc, 0, n), slots: make([]int, 0, n), held: make([]bool, 0, n)}
	bound := slices.Clip(in.Names)
	var read []string
	for i, e := range exprs {
		f, err := Bind(e, bound)
		if err != nil {
			return nil, err
		}
		a, renames := e.(Col)
		c.fields, c.slots, read = append(c.fields, f), append(c.slots, slices.Index(c.Out.Names, names[i])), exprCols(read, e)
		c.held = append(c.held, !renames || !slices.Contains(bound, a.Name))
		if !slices.Contains(bound, names[i]) {
			bound = append(bound, names[i])
		}
	}
	c.row, c.used = make([]model.Value, len(c.Out.cols)), in.used(read...)
	return c, nil
}

// Run hands out each row of b, a batch of in, with the computed columns: a row
// holds the values of the fields that do not rename a column, in field order,
// after in's (Calculated).
func (c *Calculator) Run(b *Batch, out Sink) error {
rows:
	for i := range b.N {
		for _, j := range c.used {
			c.row[j] = c.in.Value(b, i, j)
		}
		for k, field := range c.fields {
			v, err := field(c.row)
			if err != nil {
				return err
			}
			if !v.IsValid() {
				continue rows
			}
			c.row[c.slots[k]] = v
		}
		o := out.Row()
		o.add(b, i, c.in)
		for k, j := range c.slots {
			switch {
			case !c.held[k]:
			case c.Out.cols[j].num:
				x, _ := c.row[j].AsNumber()
				o.nums = append(o.nums, x)
			default:
				o.vals = append(o.vals, c.row[j])
			}
		}
		if err := out.End(); err != nil {
			return err
		}
	}
	return nil
}

// exprCols appends to names the names of the columns e reads.
func exprCols(names []string, e Expr) []string {
	switch e := e.(type) {
	case Col:
		return append(names, e.Name)
	case Apply:
		for _, a := range e.Args {
			names = exprCols(names, a)
		}
	case PShift:
		return exprCols(names, e.X)
	case DimApply:
		return exprCols(names, e.X)
	}
	return names
}

// Output is the output step's body (ToCube's, and the ETL output step's): it
// builds a cube of the rows it is handed, fields naming their dimensions, then
// their measure, as the revision of prev (model.NewBuilderOn), on prev's key
// set where the rows are its dimension tuples in order. A row with an
// undefined value is no tuple: a cube is a partial function.
type Output struct {
	l    *Layout
	idx  []int
	dims []model.Value
	bld  *model.Builder
}

// NewOutput returns the body that builds a cube under sch of rows of l.
func NewOutput(l *Layout, fields []string, prev *model.Cube, sch model.Schema) (*Output, error) {
	idx, err := l.columns(fields, "output")
	if err != nil {
		return nil, err
	}
	return &Output{l: l, idx: idx, dims: make([]model.Value, len(sch.Dims)), bld: model.NewBuilderOn(prev, sch)}, nil
}

// Add adds every row of b, a batch of the output's layout.
func (o *Output) Add(b *Batch) error {
	for i := range b.N {
		for k := range o.dims {
			o.dims[k] = o.l.Value(b, i, o.idx[k])
		}
		if err := o.bld.AddRow(o.dims, o.l.Value(b, i, o.idx[len(o.idx)-1])); err != nil {
			return err
		}
	}
	return nil
}

// Build returns the cube of the rows added.
func (o *Output) Build() (*model.Cube, error) { return o.bld.Build() }
