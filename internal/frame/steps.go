package frame

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"

	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
)

// Step is one statement of a frame program.
type Step interface{ stepNode() }

// Copy binds a fresh copy of frame In to variable Out.
type Copy struct{ Out, In string }

// MapCol adds (or overwrites) column Col of the frame bound to Var with
// the row-wise expression E.
type MapCol struct {
	Var string
	Col string
	E   Expr
}

// Filter keeps only the rows of Var whose column Col equals V.
type Filter struct {
	Var string
	Col string
	V   model.Value
}

// SelectCols projects In onto Cols (renamed to As when non-nil) into Out.
type SelectCols struct {
	Out, In string
	Cols    []string
	As      []string
}

// Merge joins frames X and Y on the shared columns By into Out (R's
// merge(x, y, by=c(...))). An empty By is a cross join.
type Merge struct {
	Out, X, Y string
	By        []string
}

// GroupAgg groups In by the By columns and aggregates column ValCol with
// operator Agg into a frame with columns By… + OutCol.
type GroupAgg struct {
	Out, In string
	By      []string
	Agg     string
	ValCol  string
	OutCol  string
}

// PadMerge is the outer-join step behind the padded vectorial operators:
// frames X and Y are joined on the Keys columns over the UNION of their
// key tuples, missing measures default to Default, and OutCol holds
// Op(xval, yval). The output columns are Keys… + OutCol.
type PadMerge struct {
	Out, X, Y  string
	Keys       []string
	XVal, YVal string
	Op         string // scalar operator name ("add", "sub")
	Default    float64
	OutCol     string
}

// SeriesOp applies a whole-series black box to In (columns TimeCol,
// ValCol, sorted chronologically) into Out with the same columns.
type SeriesOp struct {
	Out, In         string
	Op              string
	Params          []float64
	TimeCol, ValCol string
}

func (Copy) stepNode()       {}
func (MapCol) stepNode()     {}
func (Filter) stepNode()     {}
func (SelectCols) stepNode() {}
func (Merge) stepNode()      {}
func (GroupAgg) stepNode()   {}
func (PadMerge) stepNode()   {}
func (SeriesOp) stepNode()   {}

// Program is the frame translation of a single tgd: steps that read the
// operand frames (bound by cube name) and leave the result bound to Result.
type Program struct {
	TgdID  string
	Target string // cube the program populates
	Result string // variable holding the final frame
	Steps  []Step
}

// Script is the frame translation of a whole mapping, one program per tgd
// in stratification order.
type Script struct {
	Programs []*Program
}

// Env binds frame variables during execution.
type Env map[string]*Frame

// RunContext executes a program in the environment; the result frame is bound
// to p.Result (and returned). A tracer carried by the context records one
// span per frame operation.
func (p *Program) RunContext(ctx context.Context, env Env) (*Frame, error) {
	for _, s := range p.Steps {
		_, span := obs.StartSpan(ctx, "frame.op", obs.String("op", stepName(s)))
		err := runStep(s, env)
		span.EndErr(err)
		if err != nil {
			return nil, fmt.Errorf("frame: tgd %s: %w", p.TgdID, err)
		}
	}
	out, ok := env[p.Result]
	if !ok {
		return nil, fmt.Errorf("frame: tgd %s left no result %s", p.TgdID, p.Result)
	}
	return out, nil
}

// stepName names a frame operation for spans: the step's Go type without
// the package qualifier.
func stepName(s Step) string {
	return strings.TrimPrefix(fmt.Sprintf("%T", s), "frame.")
}

func get(env Env, name string) (*Frame, error) {
	f, ok := env[name]
	if !ok {
		return nil, fmt.Errorf("unknown frame %s", name)
	}
	return f, nil
}

func runStep(s Step, env Env) error {
	switch s := s.(type) {
	case Copy:
		in, err := get(env, s.In)
		if err != nil {
			return err
		}
		env[s.Out] = in.Clone()
		return nil

	case MapCol:
		f, err := get(env, s.Var)
		if err != nil {
			return err
		}
		cols, j := f.Cols, f.ColIndex(s.Col)
		if j < 0 {
			cols, j = append(slices.Clip(f.Cols), s.Col), len(f.Cols)
		}
		eval, err := Bind(s.E, cols)
		if err != nil {
			return err
		}
		if j == len(f.Cols) {
			f.Cols = cols
			for i := range f.Rows {
				f.Rows[i] = append(f.Rows[i], model.Value{})
			}
		}
		for _, row := range f.Rows {
			v, err := eval(row)
			if err != nil {
				return err
			}
			row[j] = v
		}
		return nil

	case Filter:
		f, err := get(env, s.Var)
		if err != nil {
			return err
		}
		j := f.ColIndex(s.Col)
		if j < 0 {
			return fmt.Errorf("filter: unknown column %s", s.Col)
		}
		kept := f.Rows[:0:0]
		for _, row := range f.Rows {
			if row[j].IsValid() && row[j].Equal(s.V) {
				kept = append(kept, row)
			}
		}
		f.Rows = kept
		return nil

	case SelectCols:
		in, err := get(env, s.In)
		if err != nil {
			return err
		}
		idx := make([]int, len(s.Cols))
		for i, c := range s.Cols {
			j := in.ColIndex(c)
			if j < 0 {
				return fmt.Errorf("select: unknown column %s", c)
			}
			idx[i] = j
		}
		names := s.Cols
		if s.As != nil {
			names = s.As
		}
		out := &Frame{Cols: append([]string(nil), names...)}
		for _, row := range in.Rows {
			nr := make([]model.Value, len(idx))
			for i, j := range idx {
				nr[i] = row[j]
			}
			out.Rows = append(out.Rows, nr)
		}
		env[s.Out] = out
		return nil

	case Merge:
		x, err := get(env, s.X)
		if err != nil {
			return err
		}
		y, err := get(env, s.Y)
		if err != nil {
			return err
		}
		out, err := merge(x, y, s.By)
		if err != nil {
			return err
		}
		env[s.Out] = out
		return nil

	case GroupAgg:
		in, err := get(env, s.In)
		if err != nil {
			return err
		}
		out, err := groupAgg(in, s)
		if err != nil {
			return err
		}
		env[s.Out] = out
		return nil

	case PadMerge:
		x, err := get(env, s.X)
		if err != nil {
			return err
		}
		y, err := get(env, s.Y)
		if err != nil {
			return err
		}
		out, err := padMerge(x, y, s)
		if err != nil {
			return err
		}
		env[s.Out] = out
		return nil

	case SeriesOp:
		in, err := get(env, s.In)
		if err != nil {
			return err
		}
		out, err := seriesOp(in, s)
		if err != nil {
			return err
		}
		env[s.Out] = out
		return nil

	default:
		return fmt.Errorf("unknown step %T", s)
	}
}

// merge hash-joins two frames on the shared By columns; the output has
// X's columns followed by Y's non-join columns (R's merge layout).
func merge(x, y *Frame, by []string) (*Frame, error) {
	xIdx := make([]int, len(by))
	yIdx := make([]int, len(by))
	for i, c := range by {
		xi, yi := x.ColIndex(c), y.ColIndex(c)
		if xi < 0 || yi < 0 {
			return nil, fmt.Errorf("merge: join column %s missing", c)
		}
		xIdx[i], yIdx[i] = xi, yi
	}
	yKeep := make([]int, 0, len(y.Cols))
	for j, c := range y.Cols {
		if !slices.Contains(by, c) {
			yKeep = append(yKeep, j)
		}
	}
	out := &Frame{Cols: append([]string(nil), x.Cols...)}
	for _, j := range yKeep {
		out.Cols = append(out.Cols, y.Cols[j])
	}

	index := make(map[string][][]model.Value, len(y.Rows))
	keyBuf := make([]model.Value, len(by))
	for _, r := range y.Rows {
		if rowKey(keyBuf, r, yIdx) {
			k := model.EncodeKey(keyBuf)
			index[k] = append(index[k], r)
		}
	}
	for _, rx := range x.Rows {
		if !rowKey(keyBuf, rx, xIdx) {
			continue
		}
		for _, ry := range index[model.EncodeKey(keyBuf)] {
			nr := make([]model.Value, 0, len(out.Cols))
			nr = append(nr, rx...)
			for _, j := range yKeep {
				nr = append(nr, ry[j])
			}
			out.Rows = append(out.Rows, nr)
		}
	}
	return out, nil
}

// Kernel is what GroupAgg and SeriesOp compute, a row at a time: Add takes
// every row of the input, then Each hands fn every row of the output. The
// frame steps feed it a frame, the ETL runtime's aggregator and series steps
// their input stream.
type Kernel interface {
	Add(row []model.Value) error
	Each(fn func(row []model.Value) error) error
}

// collect runs a kernel over rows into a frame with the columns cols.
func collect(k Kernel, rows [][]model.Value, cols ...string) (*Frame, error) {
	for _, row := range rows {
		if err := k.Add(row); err != nil {
			return nil, err
		}
	}
	out := NewFrame(cols...)
	return out, k.Each(func(row []model.Value) error {
		out.Rows = append(out.Rows, row)
		return nil
	})
}

// columns returns the positions of names among cols; what names the step.
func columns(cols, names []string, what string) ([]int, error) {
	idx := make([]int, len(names))
	for i, c := range names {
		if idx[i] = slices.Index(cols, c); idx[i] < 0 {
			return nil, fmt.Errorf("%s: unknown column %s", what, c)
		}
	}
	return idx, nil
}

// rowKey reads the row's values at idx into key, and is false where one of
// them is undefined.
func rowKey(key, row []model.Value, idx []int) bool {
	for i, j := range idx {
		if !row[j].IsValid() {
			return false
		}
		key[i] = row[j]
	}
	return true
}

// measure reads the value column of a row: ok is false where it is undefined.
func measure(v model.Value, what string) (f float64, ok bool, err error) {
	if !v.IsValid() {
		return 0, false, nil
	}
	if f, ok = v.AsNumber(); !ok {
		return 0, false, fmt.Errorf("%s: non-numeric value %v", what, v)
	}
	return f, true, nil
}

// keyOrder is the order a kernel hands its groups out in: cube order, the
// byte order of their keys (model.AppendKey), so that a cube built of its rows
// needs no sort and follows its predecessor (model.NewBuilderOn). Groups that
// were first seen in that order — a key set's, grouped by a prefix of its
// dimensions or mapped point by point — are handed out as they were numbered.
type keyOrder struct {
	n         int    // groups seen
	last, key []byte // the newest group's key, and scratch
	unsorted  bool   // a group was first seen below the one before it
}

// add notes the key of a new group, the n-th.
func (k *keyOrder) add(key []model.Value) {
	k.key = model.AppendKey(k.key[:0], key)
	if k.n > 0 && bytes.Compare(k.last, k.key) >= 0 {
		k.unsorted = true
	}
	k.last, k.key = k.key, k.last
	k.n++
}

// ordinals returns the ordinals of the groups in cube order, where key gives
// an ordinal's key.
func (k *keyOrder) ordinals(key func(o int) []model.Value) []int {
	ords := make([]int, k.n)
	for o := range ords {
		ords[o] = o
	}
	if !k.unsorted {
		return ords
	}
	keys := make([]string, k.n)
	for o := range keys {
		k.key = model.AppendKey(k.key[:0], key(o))
		keys[o] = string(k.key)
	}
	slices.SortFunc(ords, func(a, b int) int { return strings.Compare(keys[a], keys[b]) })
	return ords
}

// Grouping is GroupAgg's kernel. Groups are numbered by a model.Assigner in
// the order they are first seen, and each folds its bag in an ops.Acc; a row
// whose key or value is undefined is in no group. Its output is one row per
// group, the key and then the fold, in cube order (keyOrder).
type Grouping struct {
	by    []int
	val   int
	fold  ops.Fold
	asg   *model.Assigner
	key   []model.Value
	keys  [][]model.Value // by ordinal, with room for the fold
	accs  []ops.Acc       // by ordinal
	order keyOrder
}

// NewGrouping returns the kernel of s over rows with the columns cols. An
// unknown aggregation fails here, before any row.
func NewGrouping(s GroupAgg, cols []string) (*Grouping, error) {
	fold, err := ops.FoldOf(s.Agg)
	if err != nil {
		return nil, err
	}
	idx, err := columns(cols, append(slices.Clone(s.By), s.ValCol), "aggregate")
	if err != nil {
		return nil, err
	}
	n := len(s.By)
	return &Grouping{by: idx[:n], val: idx[n], fold: fold, asg: model.NewAssigner(), key: make([]model.Value, n)}, nil
}

// Add folds the row into its group.
func (g *Grouping) Add(row []model.Value) error {
	if !rowKey(g.key, row, g.by) {
		return nil
	}
	v, ok, err := measure(row[g.val], "aggregate")
	if !ok {
		return err
	}
	o := g.asg.Assign(g.key)
	if int(o) == len(g.accs) {
		g.keys = append(g.keys, append(make([]model.Value, 0, len(g.key)+1), g.key...))
		g.accs = append(g.accs, ops.Acc{})
		g.order.add(g.key)
	}
	g.accs[o].Add(g.fold, v)
	return nil
}

// Each hands fn the row of every group.
func (g *Grouping) Each(fn func(row []model.Value) error) error {
	for _, o := range g.order.ordinals(func(o int) []model.Value { return g.keys[o] }) {
		if err := fn(append(g.keys[o], model.Num(g.accs[o].Result(g.fold)))); err != nil {
			return err
		}
	}
	return nil
}

func groupAgg(in *Frame, s GroupAgg) (*Frame, error) {
	k, err := NewGrouping(s, in.Cols)
	if err != nil {
		return nil, err
	}
	return collect(k, in.Rows, append(slices.Clone(s.By), s.OutCol)...)
}

// PadMerger is PadMerge's kernel, fed the rows of either operand: the union of
// their key tuples is numbered by one model.Assigner, and an operand's measure
// at a point is that of its last row there, or the default where it has none.
// Its output is one row per point, the key and then Op of the two measures, in
// cube order (keyOrder); a point where Op is undefined has none.
type PadMerger struct {
	sides  [2][]int // per operand: its key columns, then its value column
	op     ops.Op
	def    float64
	asg    *model.Assigner
	key    []model.Value
	points []padPoint // by ordinal
	order  keyOrder
}

type padPoint struct {
	key []model.Value // with room for the result
	v   [2]float64
}

// NewPadMerger returns the kernel of s over operands with the columns xCols
// and yCols.
func NewPadMerger(s PadMerge, xCols, yCols []string) (*PadMerger, error) {
	m := &PadMerger{def: s.Default, asg: model.NewAssigner(), key: make([]model.Value, len(s.Keys))}
	vals := [2]string{s.XVal, s.YVal}
	for i, cols := range [2][]string{xCols, yCols} {
		idx, err := columns(cols, append(slices.Clone(s.Keys), vals[i]), "pad-merge")
		if err != nil {
			return nil, err
		}
		m.sides[i] = idx
	}
	var err error
	if m.op, err = ops.OpOf(s.Op); err == nil && m.op.Arity() != 2 {
		err = fmt.Errorf("frame: pad-merge takes a binary operator, not %s", s.Op)
	}
	return m, err
}

// Add reads a row of the operand side: 0 for X, 1 for Y.
func (m *PadMerger) Add(side int, row []model.Value) error {
	idx := m.sides[side]
	n := len(idx) - 1
	if !rowKey(m.key, row, idx[:n]) {
		return nil
	}
	v, ok, err := measure(row[idx[n]], "pad-merge")
	if !ok {
		return err
	}
	o := m.asg.Assign(m.key)
	if int(o) == len(m.points) {
		m.points = append(m.points, padPoint{key: append(make([]model.Value, 0, n+1), m.key...), v: [2]float64{m.def, m.def}})
		m.order.add(m.key)
	}
	m.points[o].v[side] = v
	return nil
}

// Each hands fn the row of every point.
func (m *PadMerger) Each(fn func(row []model.Value) error) error {
	for _, o := range m.order.ordinals(func(o int) []model.Value { return m.points[o].key }) {
		p := m.points[o]
		if v, ok := m.op.At(p.v[0], p.v[1]); ok {
			if err := fn(append(p.key, model.Num(v))); err != nil {
				return err
			}
		}
	}
	return nil
}

func padMerge(x, y *Frame, s PadMerge) (*Frame, error) {
	m, err := NewPadMerger(s, x.Cols, y.Cols)
	if err != nil {
		return nil, err
	}
	for side, f := range [2]*Frame{x, y} {
		for _, row := range f.Rows {
			if err := m.Add(side, row); err != nil {
				return nil, err
			}
		}
	}
	out := NewFrame(append(slices.Clone(s.Keys), s.OutCol)...)
	return out, m.Each(func(row []model.Value) error {
		out.Rows = append(out.Rows, row)
		return nil
	})
}

// Series is SeriesOp's kernel: it gathers the points of the rows it takes and
// applies the black box to them whole. Its output is the series in time order,
// one (time, value) row per point.
type Series struct {
	op     string
	params []float64
	t, v   int
	pts    []ops.SeriesPoint
}

// NewSeries returns the kernel of s over rows with the columns cols.
func NewSeries(s SeriesOp, cols []string) (*Series, error) {
	idx, err := columns(cols, []string{s.TimeCol, s.ValCol}, "series "+s.Op)
	if err != nil {
		return nil, err
	}
	return &Series{op: s.Op, params: s.Params, t: idx[0], v: idx[1]}, nil
}

// Add takes the row's point.
func (s *Series) Add(row []model.Value) error {
	p, ok := row[s.t].AsPeriod()
	if !ok {
		return fmt.Errorf("series %s: non-period time value %v", s.op, row[s.t])
	}
	v, ok := row[s.v].AsNumber()
	if !ok {
		return fmt.Errorf("series %s: non-numeric value %v", s.op, row[s.v])
	}
	s.pts = append(s.pts, ops.SeriesPoint{P: p, V: v})
	return nil
}

// Each applies the black box and hands fn the row of every point.
func (s *Series) Each(fn func(row []model.Value) error) error {
	if err := ops.ApplySeries(s.op, s.pts, s.params); err != nil {
		return err
	}
	for _, pt := range s.pts {
		if err := fn([]model.Value{model.Per(pt.P), model.Num(pt.V)}); err != nil {
			return err
		}
	}
	return nil
}

func seriesOp(in *Frame, s SeriesOp) (*Frame, error) {
	k, err := NewSeries(s, in.Cols)
	if err != nil {
		return nil, err
	}
	return collect(k, in.Rows, s.TimeCol, s.ValCol)
}
