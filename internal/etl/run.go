package etl

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
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

// RunContext executes a job over the source cubes: flows run in tgd total
// order; within a flow every step is a goroutine and rows flow through
// channels, so "every tuple in the sources is fed into the stream and treated
// exactly once" (Section 5.3). It returns every relation computed by the job.
// Cancellation aborts the streaming goroutines of the active flow without
// leaking any of them. On error (or cancellation) no partially-computed cube
// is returned: the result map is nil and the shared store passed by the
// caller is untouched.
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
				if !slices.Contains(st.Keys, c) {
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
			lk[i] = slices.Index(leftCols, k)
			rk[i] = slices.Index(rightCols, k)
			if lk[i] < 0 || rk[i] < 0 {
				return fmt.Errorf("join key %s missing", k)
			}
		}
		var keep []int
		for j, c := range rightCols {
			if !slices.Contains(st.Keys, c) {
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

	// The blocking steps are frame's kernels, fed the stream.
	case Aggregator:
		in := f.Inputs(st.Name)[0]
		k, err := frame.NewGrouping(frame.GroupAgg{By: st.Keys, Agg: st.Agg, ValCol: st.ValueField}, cols[in])
		if err != nil {
			return err
		}
		return pipe(ctx, chans[in], k, out)

	case SeriesCalc:
		in := f.Inputs(st.Name)[0]
		k, err := frame.NewSeries(frame.SeriesOp{Op: st.Op, Params: st.Params, TimeCol: st.TimeField, ValCol: st.ValueField}, cols[in])
		if err != nil {
			return err
		}
		return pipe(ctx, chans[in], k, out)

	case PadJoin:
		m, err := frame.NewPadMerger(frame.PadMerge{Keys: st.Keys, XVal: st.ValueField, YVal: st.RightField, Op: st.Op, Default: st.Default},
			cols[st.Left], cols[st.Right])
		if err != nil {
			return err
		}
		for side, in := range [2]chan Row{chans[st.Left], chans[st.Right]} {
			for row := range in {
				if err := m.Add(side, row); err != nil {
					return err
				}
			}
		}
		return m.Each(func(row []model.Value) error { return send(ctx, out, row) })

	case TableOutput:
		in := chans[f.Inputs(st.Name)[0]]
		inCols := cols[f.Inputs(st.Name)[0]]
		sch, ok := schemas[st.Table]
		if !ok {
			return fmt.Errorf("no schema for output %s", st.Table)
		}
		idx := make([]int, len(st.Fields))
		for i, fld := range st.Fields {
			idx[i] = slices.Index(inCols, fld)
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

// pipe feeds every row of in to the kernel, then sends its rows downstream.
func pipe(ctx context.Context, in <-chan Row, k frame.Kernel, out chan<- Row) error {
	for row := range in {
		if err := k.Add(row); err != nil {
			return err
		}
	}
	return k.Each(func(row []model.Value) error { return send(ctx, out, row) })
}
