package etl

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"exlengine/internal/exlerr"
	"exlengine/internal/frame"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/obs"
)

// A step sends its rows downstream in batches of batchSize: one channel
// operation moves a batch, not a row. Batches of 64, 256 and 1 024 rows
// measure alike on BenchmarkProductOnEveryTarget (internal/backend).
const batchSize = 256

// chanCap is a hop's capacity in batches, chanCap×batchSize rows: enough for
// a producer to run a few batches ahead of its consumer.
const chanCap = 4

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
// channels in batches, each step seeing them in the order a row-at-a-time
// stream would, so "every tuple in the sources is fed into the stream and
// treated exactly once" (Section 5.3). It returns every relation computed by
// the job. Cancellation aborts the streaming goroutines of the active flow
// without leaking any of them. On error (or cancellation) no
// partially-computed cube is returned: the result map is nil and the shared
// store passed by the caller is untouched.
//
// prev maps a cube the job computes to its previous version (it may be nil):
// a flow's output step builds the cube as that version's revision
// (model.NewBuilderOn), on its key set where the stream holds its dimension
// tuples in order.
func RunContext(ctx context.Context, job *Job, m *mapping.Mapping, source, prev map[string]*model.Cube) (map[string]*model.Cube, error) {
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
		c, err := runFlow(fctx, f, store, m.Schemas, prev[f.Target])
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

// runFlow runs one flow and returns the cube its output step built, as the
// revision of prev (nil for none).
func runFlow(ctx context.Context, f *Flow, store map[string]*model.Cube, schemas map[string]model.Schema, prev *model.Cube) (*model.Cube, error) {
	// One channel per hop; generated flows are trees, so each step has one
	// consumer.
	chans := make(map[string]chan *frame.Batch)
	for _, h := range f.Hops {
		if _, dup := chans[h.From]; dup {
			return nil, fmt.Errorf("step %s has more than one consumer", h.From)
		}
		chans[h.From] = make(chan *frame.Batch, chanCap)
	}
	// Structural validation up front: a malformed flow must fail cleanly
	// instead of deadlocking goroutines on missing channels. Every step's
	// body is built here too, once, over the layouts of its inputs' streams,
	// so a step that cannot run fails the flow before any goroutine starts.
	outputs := 0
	streams := make(map[string]*frame.Layout, len(f.Steps))
	bodies := make([]any, len(f.Steps))
	for i := range f.Steps {
		st := &f.Steps[i]
		if st.Type == TableOutput {
			outputs++
		} else if _, ok := chans[st.Name]; !ok {
			return nil, fmt.Errorf("step %s has no consumer", st.Name)
		}
		var err error
		if bodies[i], streams[st.Name], err = bodyOf(f, st, streams, store, schemas, prev); err != nil {
			return nil, err
		}
	}
	if outputs != 1 {
		return nil, fmt.Errorf("flow must have exactly one output step, found %d", outputs)
	}
	// Room for every batch the hops can hold at once: chanCap queued, one
	// being filled and one being read on each.
	free := make(batches, len(f.Hops)*(chanCap+2))

	// The flow context links every step: the first failing step cancels
	// it with its error, the flow's, which unblocks producers parked on
	// full channels (their sends select on ctx.Done), so no goroutine
	// outlives the flow even when a step dies mid-stream.
	fctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

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
					cancel(err)
				}
			}()
			err := runStep(sctx, f, st, bodies[i], streams, chans, free, store, &result)
			span.EndErr(err)
			if err != nil {
				cancel(err)
			}
		}()
	}
	wg.Wait()
	if err := context.Cause(fctx); err != nil {
		return nil, err
	}
	return result, nil
}

// bodyOf builds the body of st in internal/frame over the layouts of its
// inputs' streams, and returns it with the layout of the rows it sends, its
// Out. A table input's body is that layout, which scans the table; the output
// step sends no rows, and builds the flow's cube as the revision of prev. A
// row refers to the tuple each input of the stream fed into it and holds only
// what the flow computed (frame.Layout).
func bodyOf(f *Flow, st *Step, streams map[string]*frame.Layout, store map[string]*model.Cube,
	schemas map[string]model.Schema, prev *model.Cube) (any, *frame.Layout, error) {

	in := f.input(st.Name)
	reads := []string{in}
	switch st.Type {
	case TableInput:
		reads = nil
	case MergeJoin, PadJoin:
		reads = []string{st.Left, st.Right}
	}
	for _, name := range reads {
		if streams[name] == nil {
			return nil, nil, fmt.Errorf("step %s reads no stream %q before it", st.Name, name)
		}
	}
	switch st.Type {
	case TableInput:
		cube, ok := store[st.Table]
		if !ok {
			return nil, nil, fmt.Errorf("table %s not available", st.Table)
		}
		if st.FilterField != "" && cube.Schema().DimIndex(st.FilterField) < 0 {
			return nil, nil, fmt.Errorf("filter column %s not in %s", st.FilterField, st.Table)
		}
		l, err := frame.Source(cube, st.Fields, st.As, st.Shifts)
		if err != nil {
			return nil, nil, err
		}
		return l, l, nil
	case MergeJoin:
		m, err := frame.NewMerger(streams[st.Left], streams[st.Right], st.Keys)
		if err != nil {
			return nil, nil, err
		}
		return m, m.Out, nil
	case Calculator:
		names, exprs := st.calcs()
		c, err := frame.NewCalculator(streams[in], names, exprs)
		if err != nil {
			return nil, nil, err
		}
		return c, c.Out, nil
	case Aggregator:
		g, err := frame.NewGrouping(frame.GroupAgg{By: st.Keys, Agg: st.Agg, ValCol: st.ValueField, OutCol: st.OutField}, streams[in])
		if err != nil {
			return nil, nil, err
		}
		return g, g.Out, nil
	case SeriesCalc:
		k, err := frame.NewSeries(frame.SeriesOp{Op: st.Op, Params: st.Params, TimeCol: st.TimeField, ValCol: st.ValueField}, streams[in])
		if err != nil {
			return nil, nil, err
		}
		return k, k.Out, nil
	case PadJoin:
		m, err := frame.NewPadMerger(frame.PadMerge{Keys: st.Keys, XVal: st.ValueField, YVal: st.RightField, Op: st.Op, Default: st.Default, OutCol: st.OutField},
			streams[st.Left], streams[st.Right])
		if err != nil {
			return nil, nil, err
		}
		return m, m.Out, nil
	case TableOutput:
		sch, ok := schemas[st.Table]
		if !ok {
			return nil, nil, fmt.Errorf("no schema for output %s", st.Table)
		}
		o, err := frame.NewOutput(streams[in], st.Fields, prev, sch)
		if err != nil {
			return nil, nil, err
		}
		return o, nil, nil
	}
	return nil, nil, fmt.Errorf("unknown step type %s", st.Type)
}

// calcs returns the fields a Calculator step computes, and their expressions.
func (st *Step) calcs() ([]string, []frame.Expr) {
	names, exprs := make([]string, len(st.Calcs)), make([]frame.Expr, len(st.Calcs))
	for i, c := range st.Calcs {
		names[i], exprs[i] = c.Field, c.expr
	}
	return names, exprs
}

// batcher collects a step's output rows into batches and sends each one
// downstream when it is full, aborting when the flow is cancelled so a
// producer never blocks forever on a consumer that died. It is the Sink the
// step bodies of internal/frame hand their rows to.
type batcher struct {
	ctx   context.Context
	out   chan<- *frame.Batch
	free  batches
	s     *frame.Layout // of the rows it sends
	batch *frame.Batch
}

// Row returns the batch whose next row the step fills, taking one from the
// free list where there is one; End counts the row.
func (w *batcher) Row() *frame.Batch {
	if w.batch == nil {
		select {
		case w.batch = <-w.free:
			w.batch.Reserve(batchSize, w.s)
		default:
			w.batch = frame.NewBatch(batchSize, w.s)
		}
	}
	return w.batch
}

// End ends the row filled in Row's batch, sending the batch once it is full.
func (w *batcher) End() error {
	if w.batch.N++; w.batch.N < batchSize {
		return nil
	}
	return w.flush()
}

// flush sends the rows collected so far, if any: at a full batch and once
// more at end of stream.
func (w *batcher) flush() error {
	if w.batch == nil || w.batch.N == 0 {
		return nil
	}
	select {
	case w.out <- w.batch:
		w.batch = nil
		return nil
	case <-w.ctx.Done():
		return w.ctx.Err()
	}
}

// batches is a flow's free list: every consumer hands back each batch it
// has read, having copied out what it keeps, and producers fill those
// before making new ones, so a stream of any length allocates a few
// batches a hop. The list lives as long as the flow.
type batches chan *frame.Batch

// recycle hands back a batch its consumer has read, letting go of the
// values it held; it is left to the collector when the list is full.
func (fl batches) recycle(b *frame.Batch) {
	b.Reset()
	select {
	case fl <- b:
	default:
	}
}

// drain hands fn every batch of the stream in, handing each back once it is
// read, then flushes what fn collected.
func (w *batcher) drain(in <-chan *frame.Batch, fn func(b *frame.Batch) error) error {
	for b := range in {
		if err := fn(b); err != nil {
			return err
		}
		w.free.recycle(b)
	}
	return w.flush()
}

// runStep runs one step of f: it moves the batches of its inputs through the
// step's body, built by bodyOf, and sends what the body hands out. The output
// step leaves the cube it built in *result.
func runStep(ctx context.Context, f *Flow, st *Step, body any, streams map[string]*frame.Layout, chans map[string]chan *frame.Batch, free batches,
	store map[string]*model.Cube, result **model.Cube) error {

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
	w := &batcher{ctx: ctx, out: out, free: free, s: streams[st.Name]}
	in := f.input(st.Name)

	switch b := body.(type) {
	case *frame.Layout: // a table input
		if err := b.Scan(store[st.Table].Schema().DimIndex(st.FilterField), st.filterVal, w); err != nil {
			return err
		}
		return w.flush()

	case *frame.Merger:
		// A right stream that reads a whole table, where the merge aligns, is
		// drained and let go: a left row's match is found by its ordinal. Any
		// other is buffered whole, its rows copied into one batch (counting
		// them first sizes it once) and indexed. The left stream then flows
		// through.
		if r := f.Step(st.Right); r.Type == TableInput && r.FilterField == "" && b.Whole() {
			for r := range chans[st.Right] {
				free.recycle(r)
			}
		} else {
			var right []*frame.Batch
			n := 0
			for r := range chans[st.Right] {
				right = append(right, r)
				n += r.N
			}
			build := frame.NewBatch(n, streams[st.Right])
			for _, r := range right {
				build.Append(r)
				free.recycle(r)
			}
			b.Build(build)
		}
		obs.CurrentSpan(ctx).SetAttr(frame.JoinAttr(b))
		return w.drain(chans[st.Left], func(l *frame.Batch) error { return b.Probe(l, w) })

	case *frame.Calculator:
		return w.drain(chans[in], func(r *frame.Batch) error { return b.Run(r, w) })

	// The blocking steps are frame's kernels, fed the stream.
	case frame.Kernel:
		err := w.drain(chans[in], b.Add)
		if err == nil {
			err = b.Each(w)
		}
		if err != nil {
			return err
		}
		return w.flush()

	case *frame.PadMerger:
		var err error
		for side, name := range [2]string{st.Left, st.Right} {
			if err == nil {
				err = w.drain(chans[name], func(r *frame.Batch) error { return b.Add(side, r) })
			}
		}
		if err == nil {
			err = b.Each(w)
		}
		if err != nil {
			return err
		}
		return w.flush()

	case *frame.Output:
		if err := w.drain(chans[in], b.Add); err != nil {
			return err
		}
		// Publish the cube only after the stream completed: a flow that
		// errors never exposes a partially-written result.
		if err := ctx.Err(); err != nil {
			return err
		}
		cube, err := b.Build()
		*result = cube
		return err
	}
	return fmt.Errorf("step %s has no body", st.Name)
}
