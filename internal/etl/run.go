package etl

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"exlengine/internal/exlerr"
	"exlengine/internal/frame"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
)

// Row is one record flowing through an ETL stream.
type Row []model.Value

const chanCap = 128

// stepHook, when set, is invoked at the start of every step goroutine.
// It exists for deterministic fault injection (internal/faults): a hook
// that panics simulates a crashing step, exercising the runtime's panic
// isolation. Loaded atomically so concurrent flows race-free.
var stepHook atomic.Pointer[func(flowID, stepName string)]

// SetStepHook installs (or, with nil, removes) the step hook.
func SetStepHook(h func(flowID, stepName string)) {
	if h == nil {
		stepHook.Store(nil)
		return
	}
	stepHook.Store(&h)
}

// Run executes a job over the source cubes: flows run in tgd total order;
// within a flow every step is a goroutine and rows flow through channels,
// so "every tuple in the sources is fed into the stream and treated exactly
// once" (Section 5.3). It returns every relation computed by the job.
func Run(job *Job, m *mapping.Mapping, source map[string]*model.Cube) (map[string]*model.Cube, error) {
	return RunContext(context.Background(), job, m, source)
}

// RunContext is Run under a context: cancellation aborts the streaming
// goroutines of the active flow without leaking any of them. On error
// (or cancellation) no partially-computed cube is returned: the result
// map is nil and the shared store passed by the caller is untouched.
func RunContext(ctx context.Context, job *Job, m *mapping.Mapping, source map[string]*model.Cube) (map[string]*model.Cube, error) {
	store := make(map[string]*model.Cube, len(source))
	for _, name := range m.Elementary {
		if c, ok := source[name]; ok {
			store[name] = c
		} else {
			store[name] = model.NewCube(m.Schemas[name]).Freeze()
		}
	}
	out := make(map[string]*model.Cube)
	for _, f := range job.Flows {
		fctx, span := obs.StartSpan(ctx, "etl.flow",
			obs.String("tgd", f.TgdID), obs.String("cube", f.Target), obs.Int("steps", len(f.Steps)))
		c, err := runFlow(fctx, f, store, m.Schemas)
		if err != nil {
			span.EndErr(err)
			return nil, fmt.Errorf("etl: flow %s: %w", f.TgdID, err)
		}
		span.SetAttr(obs.Int("tuples", c.Len()))
		span.End()
		store[f.Target] = c
		out[f.Target] = c
	}
	return out, nil
}

// flowErr records the first error of a flow run.
type flowErr struct {
	mu  sync.Mutex
	err error
}

func (fe *flowErr) set(err error) {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if fe.err == nil && err != nil {
		fe.err = err
	}
}

func (fe *flowErr) get() error {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	return fe.err
}

func runFlow(ctx context.Context, f *Flow, store map[string]*model.Cube, schemas map[string]model.Schema) (*model.Cube, error) {
	// Column schema per step, derived statically.
	cols := make(map[string][]string)
	for i := range f.Steps {
		st := &f.Steps[i]
		switch st.Type {
		case TableInput:
			cols[st.Name] = st.As
		case MergeJoin:
			left, right := cols[st.Left], cols[st.Right]
			merged := append([]string(nil), left...)
			for _, c := range right {
				if !containsStr(st.Keys, c) {
					merged = append(merged, c)
				}
			}
			cols[st.Name] = merged
		case Calculator:
			in := f.Inputs(st.Name)
			base := append([]string(nil), cols[in[0]]...)
			for _, c := range st.Calcs {
				base = append(base, c.Field)
			}
			cols[st.Name] = base
		case Aggregator:
			cols[st.Name] = append(append([]string(nil), st.Keys...), st.OutField)
		case SeriesCalc:
			cols[st.Name] = []string{st.TimeField, st.ValueField}
		case PadJoin:
			cols[st.Name] = append(append([]string(nil), st.Keys...), st.OutField)
		case TableOutput:
			in := f.Inputs(st.Name)
			cols[st.Name] = cols[in[0]]
		}
	}

	// One channel per hop; generated flows are trees, so each step has one
	// consumer.
	chans := make(map[string]chan Row)
	for _, h := range f.Hops {
		if _, dup := chans[h.From]; dup {
			return nil, fmt.Errorf("step %s has more than one consumer", h.From)
		}
		chans[h.From] = make(chan Row, chanCap)
	}
	// Structural validation up front: a malformed flow must fail cleanly
	// instead of deadlocking goroutines on missing channels.
	outputs := 0
	for i := range f.Steps {
		st := &f.Steps[i]
		if st.Type == TableOutput {
			outputs++
			continue
		}
		if _, ok := chans[st.Name]; !ok {
			return nil, fmt.Errorf("step %s has no consumer", st.Name)
		}
	}
	if outputs != 1 {
		return nil, fmt.Errorf("flow must have exactly one output step, found %d", outputs)
	}

	// The flow context links every step: the first failing step cancels
	// it, which unblocks producers parked on full channels (their sends
	// select on ctx.Done), so no goroutine outlives the flow even when a
	// step dies mid-stream.
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()

	fe := &flowErr{}
	var wg sync.WaitGroup
	var result *model.Cube

	for i := range f.Steps {
		st := &f.Steps[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Step goroutines run concurrently, so each opens its own span
			// directly under the flow span (steps of one flow overlap; the
			// tracer tolerates concurrent children).
			sctx, span := obs.StartSpan(fctx, "etl.step",
				obs.String("step", st.Name), obs.String("type", string(st.Type)))
			// Panic isolation: a crashing step becomes a typed error and
			// cancels the flow instead of deadlocking it. runStep's own
			// deferred close has already run by the time we recover, so
			// downstream consumers still see end-of-stream.
			defer func() {
				if r := recover(); r != nil {
					err := exlerr.Recovered(r, debug.Stack())
					span.EndErr(err)
					fe.set(err)
					cancel()
				}
			}()
			err := runStep(sctx, f, st, cols, chans, store, schemas, &result)
			span.EndErr(err)
			if err != nil {
				fe.set(err)
				cancel()
			}
		}()
	}
	wg.Wait()
	if err := fe.get(); err != nil {
		return nil, err
	}
	if result == nil {
		return nil, fmt.Errorf("flow has no output step")
	}
	return result, nil
}

// send delivers a row downstream, aborting when the flow is cancelled so
// producers never block forever on a consumer that died.
func send(ctx context.Context, out chan<- Row, r Row) error {
	select {
	case out <- r:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func runStep(ctx context.Context, f *Flow, st *Step, cols map[string][]string, chans map[string]chan Row,
	store map[string]*model.Cube, schemas map[string]model.Schema, result **model.Cube) error {

	out := chans[st.Name] // nil for the output step
	// Closing the output channel unconditionally on exit — error, panic or
	// normal completion — guarantees downstream consumers always observe
	// end-of-stream and can never block on a dead producer.
	defer func() {
		if out != nil {
			close(out)
		}
	}()
	if hp := stepHook.Load(); hp != nil {
		(*hp)(f.TgdID, st.Name)
	}

	switch st.Type {
	case TableInput:
		cube, ok := store[st.Table]
		if !ok {
			return fmt.Errorf("table %s not available", st.Table)
		}
		sch := cube.Schema()
		idx := make([]int, len(st.Fields))
		for i, fld := range st.Fields {
			if j := sch.DimIndex(fld); j >= 0 {
				idx[i] = j
			} else if fld == sch.Measure {
				idx[i] = -1
			} else {
				return fmt.Errorf("table %s has no column %s", st.Table, fld)
			}
		}
		filterIdx := -2
		if st.FilterField != "" {
			filterIdx = sch.DimIndex(st.FilterField)
			if filterIdx < 0 {
				return fmt.Errorf("filter column %s not in %s", st.FilterField, st.Table)
			}
		}
		return cube.Ordered(func(tu model.Tuple) error {
			if filterIdx >= 0 && !tu.Dims[filterIdx].Equal(st.filterVal) {
				return nil
			}
			row := make(Row, len(idx))
			for i, j := range idx {
				var v model.Value
				if j < 0 {
					v = model.Num(tu.Measure)
				} else {
					v = tu.Dims[j]
				}
				if st.Shifts != nil && st.Shifts[i] != 0 {
					sv, err := ops.ShiftValue(v, st.Shifts[i])
					if err != nil {
						return err
					}
					v = sv
				}
				if !v.IsValid() {
					return nil
				}
				row[i] = v
			}
			return send(ctx, out, row)
		})

	case MergeJoin:
		leftCh, rightCh := chans[st.Left], chans[st.Right]
		leftCols, rightCols := cols[st.Left], cols[st.Right]
		lk := make([]int, len(st.Keys))
		rk := make([]int, len(st.Keys))
		for i, k := range st.Keys {
			lk[i] = indexOf(leftCols, k)
			rk[i] = indexOf(rightCols, k)
			if lk[i] < 0 || rk[i] < 0 {
				return fmt.Errorf("join key %s missing", k)
			}
		}
		var keep []int
		for j, c := range rightCols {
			if !containsStr(st.Keys, c) {
				keep = append(keep, j)
			}
		}
		// Build side: the right stream is buffered into a hash index.
		index := make(map[string][]Row)
		keyBuf := make([]model.Value, len(rk))
		for r := range rightCh {
			ok := true
			for i, j := range rk {
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
		// Probe side: the left stream flows through.
		for l := range leftCh {
			ok := true
			for i, j := range lk {
				if !l[j].IsValid() {
					ok = false
					break
				}
				keyBuf[i] = l[j]
			}
			if !ok {
				continue
			}
			for _, r := range index[model.EncodeKey(keyBuf)] {
				nr := make(Row, 0, len(l)+len(keep))
				nr = append(nr, l...)
				for _, j := range keep {
					nr = append(nr, r[j])
				}
				if err := send(ctx, out, nr); err != nil {
					return err
				}
			}
		}
		return nil

	case Calculator:
		in := chans[f.Inputs(st.Name)[0]]
		myCols := cols[st.Name]
		for row := range in {
			nr := make(Row, 0, len(myCols))
			nr = append(nr, row...)
			failed := false
			for _, c := range st.Calcs {
				v, err := frame.Eval(c.Expr(), myCols[:len(nr)], nr)
				if err != nil {
					return err
				}
				if !v.IsValid() {
					// Undefined point: the row contributes nothing.
					failed = true
					break
				}
				nr = append(nr, v)
			}
			if !failed {
				if err := send(ctx, out, nr); err != nil {
					return err
				}
			}
		}
		return nil

	case Aggregator:
		in := chans[f.Inputs(st.Name)[0]]
		inCols := cols[f.Inputs(st.Name)[0]]
		ki := make([]int, len(st.Keys))
		for i, k := range st.Keys {
			ki[i] = indexOf(inCols, k)
			if ki[i] < 0 {
				return fmt.Errorf("group key %s missing", k)
			}
		}
		vi := indexOf(inCols, st.ValueField)
		if vi < 0 {
			return fmt.Errorf("value field %s missing", st.ValueField)
		}
		type group struct {
			key []model.Value
			agg ops.Aggregator
		}
		groups := make(map[string]*group)
		keyBuf := make([]model.Value, len(ki))
		for row := range in {
			for i, j := range ki {
				keyBuf[i] = row[j]
			}
			v, ok := row[vi].AsNumber()
			if !ok {
				return fmt.Errorf("non-numeric aggregation input %v", row[vi])
			}
			k := model.EncodeKey(keyBuf)
			g, okG := groups[k]
			if !okG {
				agg, err := ops.NewAggregator(st.Agg)
				if err != nil {
					return err
				}
				g = &group{key: append([]model.Value(nil), keyBuf...), agg: agg}
				groups[k] = g
			}
			g.agg.Add(v)
		}
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		// The byte order of the keys is the cube order of the groups.
		sort.Strings(keys)
		for _, k := range keys {
			g := groups[k]
			if err := send(ctx, out, append(append(Row(nil), g.key...), model.Num(g.agg.Result()))); err != nil {
				return err
			}
		}
		return nil

	case SeriesCalc:
		in := chans[f.Inputs(st.Name)[0]]
		inCols := cols[f.Inputs(st.Name)[0]]
		ti := indexOf(inCols, st.TimeField)
		vi := indexOf(inCols, st.ValueField)
		if ti < 0 || vi < 0 {
			return fmt.Errorf("series fields %s, %s missing", st.TimeField, st.ValueField)
		}
		var pts []ops.SeriesPoint
		for row := range in {
			p, ok := row[ti].AsPeriod()
			if !ok {
				return fmt.Errorf("non-period time value %v", row[ti])
			}
			v, ok := row[vi].AsNumber()
			if !ok {
				return fmt.Errorf("non-numeric series value %v", row[vi])
			}
			pts = append(pts, ops.SeriesPoint{P: p, V: v})
		}
		if err := ops.ApplySeries(st.Op, pts, st.Params); err != nil {
			return err
		}
		for _, pt := range pts {
			if err := send(ctx, out, Row{model.Per(pt.P), model.Num(pt.V)}); err != nil {
				return err
			}
		}
		return nil

	case PadJoin:
		leftCh, rightCh := chans[st.Left], chans[st.Right]
		leftCols, rightCols := cols[st.Left], cols[st.Right]
		type entry struct {
			key []model.Value
			v   float64
		}
		collect := func(ch <-chan Row, colNames []string, valField string) (map[string]entry, error) {
			ki := make([]int, len(st.Keys))
			for i, k := range st.Keys {
				ki[i] = indexOf(colNames, k)
				if ki[i] < 0 {
					return nil, fmt.Errorf("pad join key %s missing", k)
				}
			}
			vi := indexOf(colNames, valField)
			if vi < 0 {
				return nil, fmt.Errorf("pad join value field %s missing", valField)
			}
			out := make(map[string]entry)
			keyBuf := make([]model.Value, len(ki))
			for row := range ch {
				ok := true
				for i, j := range ki {
					if !row[j].IsValid() {
						ok = false
						break
					}
					keyBuf[i] = row[j]
				}
				if !ok || !row[vi].IsValid() {
					continue
				}
				v, isNum := row[vi].AsNumber()
				if !isNum {
					return nil, fmt.Errorf("pad join: non-numeric value %v", row[vi])
				}
				out[model.EncodeKey(keyBuf)] = entry{key: append([]model.Value(nil), keyBuf...), v: v}
			}
			return out, nil
		}
		mr, err := collect(rightCh, rightCols, st.RightField)
		if err != nil {
			return err
		}
		ml, err := collect(leftCh, leftCols, st.ValueField)
		if err != nil {
			return err
		}
		fn, err := ops.Scalar(st.Op)
		if err != nil {
			return err
		}
		emit := func(key []model.Value, l, r float64) error {
			v, err := fn(l, r)
			if err != nil {
				if ops.ErrUndefined(err) {
					return nil
				}
				return err
			}
			return send(ctx, out, append(append(Row(nil), key...), model.Num(v)))
		}
		for k, e := range ml {
			r := st.Default
			if o, ok := mr[k]; ok {
				r = o.v
			}
			if err := emit(e.key, e.v, r); err != nil {
				return err
			}
		}
		for k, e := range mr {
			if _, ok := ml[k]; ok {
				continue
			}
			if err := emit(e.key, st.Default, e.v); err != nil {
				return err
			}
		}
		return nil

	case TableOutput:
		in := chans[f.Inputs(st.Name)[0]]
		inCols := cols[f.Inputs(st.Name)[0]]
		sch, ok := schemas[st.Table]
		if !ok {
			return fmt.Errorf("no schema for output %s", st.Table)
		}
		idx := make([]int, len(st.Fields))
		for i, fld := range st.Fields {
			idx[i] = indexOf(inCols, fld)
			if idx[i] < 0 {
				return fmt.Errorf("output field %s missing from stream", fld)
			}
		}
		b := model.NewBuilder(sch)
		dims := make([]model.Value, len(sch.Dims))
		for row := range in {
			for i := range dims {
				dims[i] = row[idx[i]]
			}
			if err := b.AddRow(dims, row[idx[len(idx)-1]]); err != nil {
				return err
			}
		}
		// Publish the cube only after the stream completed: a flow that
		// errors never exposes a partially-written result.
		if err := ctx.Err(); err != nil {
			return err
		}
		cube, err := b.Build()
		*result = cube
		return err

	default:
		return fmt.Errorf("unknown step type %s", st.Type)
	}
}

func indexOf(xs []string, s string) int {
	for i, x := range xs {
		if x == s {
			return i
		}
	}
	return -1
}
