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
// to p.Result (and returned). It looks at the context before each step and
// stops with its error once it is done. A tracer carried by the context
// records one span per frame operation.
func (p *Program) RunContext(ctx context.Context, env Env) (*Frame, error) {
	for _, s := range p.Steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
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

// runStep runs one step, binding the frame it makes. A frame is never written
// to: a step that changes rows binds a new batch of them, and one that only
// renames or picks columns a new layout over the same batch.
func runStep(s Step, env Env) error {
	switch s := s.(type) {
	case Copy: // the frame itself, which no step changes
		return bind(env, s.Out, func(in ...*Frame) (*Frame, error) { return in[0], nil }, s.In)

	case MapCol:
		return bind(env, s.Var, func(in ...*Frame) (*Frame, error) {
			c, err := NewCalculator(in[0].Layout, []string{s.Col}, []Expr{s.E})
			if err != nil {
				return nil, err
			}
			f := &Frame{c.Out, in[0].rows}
			if c.Out.nums == in[0].nums && c.Out.vals == in[0].vals { // the column renames one: it holds nothing
				return f, nil
			}
			f.rows = NewBatch(in[0].rows.N, c.Out)
			return f, c.Run(in[0].rows, f.rows)
		}, s.Var)

	case Filter:
		return bind(env, s.Var, func(in ...*Frame) (*Frame, error) {
			j, err := in[0].columns([]string{s.Col}, "filter")
			if err != nil {
				return nil, err
			}
			f := &Frame{in[0].Layout, &Batch{}}
			for i := range in[0].rows.N {
				if v := in[0].Value(in[0].rows, i, j[0]); v.IsValid() && v.Equal(s.V) {
					f.rows.add(in[0].rows, i, in[0].Layout)
					f.rows.N++
				}
			}
			return f, nil
		}, s.Var)

	case SelectCols:
		return bind(env, s.Out, func(in ...*Frame) (*Frame, error) {
			idx, err := in[0].columns(s.Cols, "select")
			if err != nil {
				return nil, err
			}
			l := &Layout{Names: slices.Clone(s.Cols), views: in[0].views, nums: in[0].nums, vals: in[0].vals}
			if s.As != nil {
				l.Names = slices.Clone(s.As)
			}
			for _, j := range idx {
				l.cols = append(l.cols, in[0].cols[j])
			}
			return &Frame{l, in[0].rows}, nil
		}, s.In)

	case Merge:
		return bind(env, s.Out, func(in ...*Frame) (*Frame, error) {
			m, err := NewMerger(in[0].Layout, in[1].Layout, s.By)
			if err != nil {
				return nil, err
			}
			m.Build(in[1].rows)
			f := &Frame{m.Out, &Batch{}}
			return f, m.Probe(in[0].rows, f.rows)
		}, s.X, s.Y)

	case GroupAgg:
		return bind(env, s.Out, func(in ...*Frame) (*Frame, error) {
			k, err := NewGrouping(s, in[0].Layout)
			if err != nil {
				return nil, err
			}
			return runKernel(k, k.Out, in[0].rows)
		}, s.In)

	case SeriesOp:
		return bind(env, s.Out, func(in ...*Frame) (*Frame, error) {
			k, err := NewSeries(s, in[0].Layout)
			if err != nil {
				return nil, err
			}
			return runKernel(k, k.Out, in[0].rows)
		}, s.In)

	case PadMerge:
		return bind(env, s.Out, func(in ...*Frame) (*Frame, error) {
			m, err := NewPadMerger(s, in[0].Layout, in[1].Layout)
			for side := 0; side < 2 && err == nil; side++ {
				err = m.Add(side, in[side].rows)
			}
			if err != nil {
				return nil, err
			}
			f := &Frame{m.Out, &Batch{}}
			return f, m.Each(f.rows)
		}, s.X, s.Y)
	}
	return fmt.Errorf("unknown step %T", s)
}

// bind binds to out the frame fn makes of the frames bound to inputs, unless
// one is unbound or fn fails.
func bind(env Env, out string, fn func(in ...*Frame) (*Frame, error), inputs ...string) error {
	in := make([]*Frame, len(inputs))
	for i, name := range inputs {
		var ok bool
		if in[i], ok = env[name]; !ok {
			return fmt.Errorf("unknown frame %s", name)
		}
	}
	f, err := fn(in...)
	if err == nil {
		env[out] = f
	}
	return err
}

// Kernel is what GroupAgg and SeriesOp compute: Add takes every row of the
// input, a batch at a time, then Each hands out every row of the output. A
// frame step feeds it the frame's one batch, the ETL aggregator and series
// steps each batch of their input stream.
type Kernel interface {
	Add(b *Batch) error
	Each(out Sink) error
}

// runKernel returns the frame of k's output, of layout out, over the rows in.
func runKernel(k Kernel, out *Layout, in *Batch) (*Frame, error) {
	f := &Frame{out, &Batch{}}
	if err := k.Add(in); err != nil {
		return nil, err
	}
	return f, k.Each(f.rows)
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

// groups numbers a kernel's groups by a model.Assigner in the order they are
// first seen, and keeps each one's key. It hands them out in cube order, the
// byte order of their keys (model.AppendKey), so that a cube built of its rows
// needs no sort and follows its predecessor (model.NewBuilderOn). Groups that
// were first seen in that order — a key set's, grouped by a prefix of its
// dimensions or mapped point by point — are handed out as they were numbered.
type groups struct {
	asg       *model.Assigner
	key       []model.Value   // the row's, as it is read
	keys      [][]model.Value // by ordinal
	last, enc []byte          // the newest group's key, encoded, and scratch
	unsorted  bool            // a group was first seen below the one before it
}

func newGroups(n int) groups { return groups{asg: model.NewAssigner(), key: make([]model.Value, n)} }

// assign returns the ordinal of the group of key, and whether it is new.
func (g *groups) assign() (int, bool) {
	o := int(g.asg.Assign(g.key))
	if o < len(g.keys) {
		return o, false
	}
	g.enc = model.AppendKey(g.enc[:0], g.key)
	if o > 0 && bytes.Compare(g.last, g.enc) >= 0 {
		g.unsorted = true
	}
	g.last, g.enc = g.enc, g.last
	g.keys = append(g.keys, slices.Clone(g.key))
	return o, true
}

// each hands out the row of every group in cube order: its key, then the
// number fn gives; a group for which fn is not ok has none.
func (g *groups) each(out Sink, fn func(o int) (float64, bool)) error {
	ords := make([]int, len(g.keys))
	for o := range ords {
		ords[o] = o
	}
	if g.unsorted {
		enc := make([]string, len(g.keys))
		for o, key := range g.keys {
			g.enc = model.AppendKey(g.enc[:0], key)
			enc[o] = string(g.enc)
		}
		slices.SortFunc(ords, func(a, b int) int { return strings.Compare(enc[a], enc[b]) })
	}
	for _, o := range ords {
		v, ok := fn(o)
		if !ok {
			continue
		}
		r := out.Row()
		r.vals, r.nums = append(r.vals, g.keys[o]...), append(r.nums, v)
		if err := out.End(); err != nil {
			return err
		}
	}
	return nil
}

// Grouping is GroupAgg's kernel. Each group folds its bag in an ops.Acc; a row
// whose key or value is undefined is in no group. Its output, of layout Out,
// is one row per group, the key and then the fold, in cube order (groups).
type Grouping struct {
	Out  *Layout
	in   *Layout
	by   []int
	val  int
	fold ops.Fold
	groups
	accs []ops.Acc // by ordinal
}

// NewGrouping returns the kernel of s over rows of in. An unknown aggregation
// fails here, before any row.
func NewGrouping(s GroupAgg, in *Layout) (*Grouping, error) {
	fold, err := ops.FoldOf(s.Agg)
	if err != nil {
		return nil, err
	}
	idx, err := in.columns(append(slices.Clone(s.By), s.ValCol), "aggregate")
	if err != nil {
		return nil, err
	}
	n := len(s.By)
	return &Grouping{Out: Computed(append(slices.Clone(s.By), s.OutCol)...), in: in, by: idx[:n], val: idx[n], fold: fold, groups: newGroups(n)}, nil
}

// Add folds each row of b into its group.
func (g *Grouping) Add(b *Batch) error {
	for i := range b.N {
		if !g.in.values(g.key, b, i, g.by) {
			continue
		}
		v, ok, err := measure(g.in.Value(b, i, g.val), "aggregate")
		if !ok {
			if err != nil {
				return err
			}
			continue
		}
		o, fresh := g.assign()
		if fresh {
			g.accs = append(g.accs, ops.Acc{})
		}
		g.accs[o].Add(g.fold, v)
	}
	return nil
}

// Each hands out the row of every group.
func (g *Grouping) Each(out Sink) error {
	return g.each(out, func(o int) (float64, bool) { return g.accs[o].Result(g.fold), true })
}

// PadMerger is PadMerge's kernel, fed the rows of either operand: the union of
// their key tuples is numbered as one, and an operand's measure at a point is
// that of its last row there, or the default where it has none. Its output, of
// layout Out, is one row per point, the key and then Op of the two measures,
// in cube order (groups); a point where Op is undefined has none.
type PadMerger struct {
	Out   *Layout
	sides [2]*Layout
	cols  [2][]int // per operand: its key columns, then its value column
	op    ops.Op
	def   float64
	groups
	vs [][2]float64 // by ordinal
}

// NewPadMerger returns the kernel of s over operands of the layouts x and y.
func NewPadMerger(s PadMerge, x, y *Layout) (*PadMerger, error) {
	m := &PadMerger{Out: Computed(append(slices.Clone(s.Keys), s.OutCol)...), sides: [2]*Layout{x, y}, def: s.Default, groups: newGroups(len(s.Keys))}
	for i, val := range [2]string{s.XVal, s.YVal} {
		idx, err := m.sides[i].columns(append(slices.Clone(s.Keys), val), "pad-merge")
		if err != nil {
			return nil, err
		}
		m.cols[i] = idx
	}
	var err error
	if m.op, err = ops.OpOf(s.Op); err == nil && m.op.Arity() != 2 {
		err = fmt.Errorf("frame: pad-merge takes a binary operator, not %s", s.Op)
	}
	return m, err
}

// Add reads the rows of b, of the operand side: 0 for X, 1 for Y.
func (m *PadMerger) Add(side int, b *Batch) error {
	l, idx := m.sides[side], m.cols[side]
	n := len(idx) - 1
	for i := range b.N {
		if !l.values(m.key, b, i, idx[:n]) {
			continue
		}
		v, ok, err := measure(l.Value(b, i, idx[n]), "pad-merge")
		if !ok {
			if err != nil {
				return err
			}
			continue
		}
		o, fresh := m.assign()
		if fresh {
			m.vs = append(m.vs, [2]float64{m.def, m.def})
		}
		m.vs[o][side] = v
	}
	return nil
}

// Each hands out the row of every point.
func (m *PadMerger) Each(out Sink) error {
	return m.each(out, func(o int) (float64, bool) { return m.op.At(m.vs[o][0], m.vs[o][1]) })
}

// Series is SeriesOp's kernel: it gathers the points of the rows it takes and
// applies the black box to them whole. Its output, of layout Out, is the series
// in time order, one (time, value) row per point.
type Series struct {
	Out    *Layout
	in     *Layout
	op     string
	params []float64
	t, v   int
	pts    []ops.SeriesPoint
}

// NewSeries returns the kernel of s over rows of in.
func NewSeries(s SeriesOp, in *Layout) (*Series, error) {
	idx, err := in.columns([]string{s.TimeCol, s.ValCol}, "series "+s.Op)
	if err != nil {
		return nil, err
	}
	return &Series{Out: Computed(s.TimeCol, s.ValCol), in: in, op: s.Op, params: s.Params, t: idx[0], v: idx[1]}, nil
}

// Add takes the point of each row of b.
func (s *Series) Add(b *Batch) error {
	for i := range b.N {
		t := s.in.Value(b, i, s.t)
		p, ok := t.AsPeriod()
		if !ok {
			return fmt.Errorf("series %s: non-period time value %v", s.op, t)
		}
		v := s.in.Value(b, i, s.v)
		x, ok := v.AsNumber()
		if !ok {
			return fmt.Errorf("series %s: non-numeric value %v", s.op, v)
		}
		s.pts = append(s.pts, ops.SeriesPoint{P: p, V: x})
	}
	return nil
}

// Each applies the black box and hands out the row of every point.
func (s *Series) Each(out Sink) error {
	if err := ops.ApplySeries(s.op, s.pts, s.params); err != nil {
		return err
	}
	for _, pt := range s.pts {
		r := out.Row()
		r.vals, r.nums = append(r.vals, model.Per(pt.P)), append(r.nums, pt.V)
		if err := out.End(); err != nil {
			return err
		}
	}
	return nil
}
