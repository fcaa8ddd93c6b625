package frame

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
)

// Step is one statement of a frame program.
type Step interface{ stepNode() }

// Copy binds a fresh copy of frame In to variable Out.
type Copy struct{ Out, In string }

// Rename renames columns (parallel slices From → To) of frame In into Out.
type Rename struct {
	Out, In  string
	From, To []string
}

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
func (Rename) stepNode()     {}
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

// Run executes a program in the environment; the result frame is bound to
// p.Result (and returned).
func (p *Program) Run(env Env) (*Frame, error) {
	return p.RunContext(context.Background(), env)
}

// RunContext is Run under a context: a tracer carried by the context
// records one span per frame operation.
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

	case Rename:
		in, err := get(env, s.In)
		if err != nil {
			return err
		}
		out := in.Clone()
		for i, from := range s.From {
			j := out.ColIndex(from)
			if j < 0 {
				return fmt.Errorf("rename: unknown column %s", from)
			}
			out.Cols[j] = s.To[i]
		}
		env[s.Out] = out
		return nil

	case MapCol:
		f, err := get(env, s.Var)
		if err != nil {
			return err
		}
		j := f.ColIndex(s.Col)
		if j < 0 {
			f.Cols = append(f.Cols, s.Col)
			j = len(f.Cols) - 1
			for i := range f.Rows {
				f.Rows[i] = append(f.Rows[i], model.Value{})
			}
		}
		for i, row := range f.Rows {
			v, err := evalExpr(s.E, f, row)
			if err != nil {
				return err
			}
			f.Rows[i][j] = v
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
		shared := false
		for _, b := range by {
			if c == b {
				shared = true
				break
			}
		}
		if !shared {
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
		ok := true
		for i, j := range yIdx {
			if !r[j].IsValid() {
				ok = false
				break
			}
			keyBuf[i] = r[j]
		}
		if !ok {
			continue
		}
		k := model.EncodeKey(keyBuf)
		index[k] = append(index[k], r)
	}
	for _, rx := range x.Rows {
		ok := true
		for i, j := range xIdx {
			if !rx[j].IsValid() {
				ok = false
				break
			}
			keyBuf[i] = rx[j]
		}
		if !ok {
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

func groupAgg(in *Frame, s GroupAgg) (*Frame, error) {
	byIdx := make([]int, len(s.By))
	for i, c := range s.By {
		j := in.ColIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("aggregate: unknown column %s", c)
		}
		byIdx[i] = j
	}
	vj := in.ColIndex(s.ValCol)
	if vj < 0 {
		return nil, fmt.Errorf("aggregate: unknown value column %s", s.ValCol)
	}
	type group struct {
		key []model.Value
		agg ops.Aggregator
	}
	groups := make(map[string]*group)
	var order []string
	keyBuf := make([]model.Value, len(byIdx))
	for _, row := range in.Rows {
		ok := true
		for i, j := range byIdx {
			if !row[j].IsValid() {
				ok = false
				break
			}
			keyBuf[i] = row[j]
		}
		if !ok || !row[vj].IsValid() {
			continue
		}
		v, okNum := row[vj].AsNumber()
		if !okNum {
			return nil, fmt.Errorf("aggregate: non-numeric value %v", row[vj])
		}
		k := model.EncodeKey(keyBuf)
		g, okG := groups[k]
		if !okG {
			agg, err := ops.NewAggregator(s.Agg)
			if err != nil {
				return nil, err
			}
			g = &group{key: append([]model.Value(nil), keyBuf...), agg: agg}
			groups[k] = g
			order = append(order, k)
		}
		g.agg.Add(v)
	}
	out := &Frame{Cols: append(append([]string(nil), s.By...), s.OutCol)}
	// The byte order of the keys is the cube order of the groups.
	sort.Strings(order)
	for _, k := range order {
		g := groups[k]
		row := append(append([]model.Value(nil), g.key...), model.Num(g.agg.Result()))
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func padMerge(x, y *Frame, s PadMerge) (*Frame, error) {
	type side struct {
		f      *Frame
		keyIdx []int
		valIdx int
	}
	prepare := func(f *Frame, val string) (side, error) {
		sd := side{f: f, keyIdx: make([]int, len(s.Keys))}
		for i, k := range s.Keys {
			j := f.ColIndex(k)
			if j < 0 {
				return sd, fmt.Errorf("pad-merge: key column %s missing", k)
			}
			sd.keyIdx[i] = j
		}
		sd.valIdx = f.ColIndex(val)
		if sd.valIdx < 0 {
			return sd, fmt.Errorf("pad-merge: value column %s missing", val)
		}
		return sd, nil
	}
	sx, err := prepare(x, s.XVal)
	if err != nil {
		return nil, err
	}
	sy, err := prepare(y, s.YVal)
	if err != nil {
		return nil, err
	}
	fn, err := ops.Scalar(s.Op)
	if err != nil {
		return nil, err
	}

	type entry struct {
		key []model.Value
		v   float64
	}
	index := func(sd side) (map[string]entry, error) {
		out := make(map[string]entry, len(sd.f.Rows))
		keyBuf := make([]model.Value, len(sd.keyIdx))
		for _, row := range sd.f.Rows {
			ok := true
			for i, j := range sd.keyIdx {
				if !row[j].IsValid() {
					ok = false
					break
				}
				keyBuf[i] = row[j]
			}
			if !ok || !row[sd.valIdx].IsValid() {
				continue
			}
			v, isNum := row[sd.valIdx].AsNumber()
			if !isNum {
				return nil, fmt.Errorf("pad-merge: non-numeric value %v", row[sd.valIdx])
			}
			out[model.EncodeKey(keyBuf)] = entry{key: append([]model.Value(nil), keyBuf...), v: v}
		}
		return out, nil
	}
	mx, err := index(sx)
	if err != nil {
		return nil, err
	}
	my, err := index(sy)
	if err != nil {
		return nil, err
	}

	out := &Frame{Cols: append(append([]string(nil), s.Keys...), s.OutCol)}
	emit := func(key []model.Value, xv, yv float64) error {
		v, err := fn(xv, yv)
		if err != nil {
			if ops.ErrUndefined(err) {
				return nil
			}
			return err
		}
		out.Rows = append(out.Rows, append(append([]model.Value(nil), key...), model.Num(v)))
		return nil
	}
	for k, ev := range mx {
		yv := s.Default
		if o, ok := my[k]; ok {
			yv = o.v
		}
		if err := emit(ev.key, ev.v, yv); err != nil {
			return nil, err
		}
	}
	for k, ev := range my {
		if _, ok := mx[k]; ok {
			continue
		}
		if err := emit(ev.key, s.Default, ev.v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func seriesOp(in *Frame, s SeriesOp) (*Frame, error) {
	tj := in.ColIndex(s.TimeCol)
	vj := in.ColIndex(s.ValCol)
	if tj < 0 || vj < 0 {
		return nil, fmt.Errorf("series %s: columns %s, %s not found", s.Op, s.TimeCol, s.ValCol)
	}
	pts := make([]ops.SeriesPoint, 0, len(in.Rows))
	for _, row := range in.Rows {
		p, ok := row[tj].AsPeriod()
		if !ok {
			return nil, fmt.Errorf("series %s: non-period time value %v", s.Op, row[tj])
		}
		v, ok := row[vj].AsNumber()
		if !ok {
			return nil, fmt.Errorf("series %s: non-numeric value %v", s.Op, row[vj])
		}
		pts = append(pts, ops.SeriesPoint{P: p, V: v})
	}
	if err := ops.ApplySeries(s.Op, pts, s.Params); err != nil {
		return nil, err
	}
	out := NewFrame(s.TimeCol, s.ValCol)
	for _, pt := range pts {
		out.Rows = append(out.Rows, []model.Value{model.Per(pt.P), model.Num(pt.V)})
	}
	return out, nil
}
