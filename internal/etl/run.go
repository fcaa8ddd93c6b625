package etl

import (
	"bytes"
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
	chans := make(map[string]chan *batch)
	for _, h := range f.Hops {
		if _, dup := chans[h.From]; dup {
			return nil, fmt.Errorf("step %s has more than one consumer", h.From)
		}
		chans[h.From] = make(chan *batch, chanCap)
	}
	// Structural validation up front: a malformed flow must fail cleanly
	// instead of deadlocking goroutines on missing channels. The layout of
	// every stream is derived here too, from its producer's inputs'.
	outputs := 0
	streams := make(map[string]*stream, len(f.Steps))
	for i := range f.Steps {
		st := &f.Steps[i]
		if st.Type == TableOutput {
			outputs++
			continue
		}
		if _, ok := chans[st.Name]; !ok {
			return nil, fmt.Errorf("step %s has no consumer", st.Name)
		}
		var err error
		if streams[st.Name], err = streamOf(f, st, streams, store); err != nil {
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
	result := prev

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
			err := runStep(sctx, f, st, streams, chans, free, store, schemas, &result)
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

// stream is the layout of the rows a step sends. A row refers to the tuple
// each input of the stream fed into it, by its ordinal in that input's
// version, and holds only what the flow computed: numbers, and dimension
// values such as quarter(d) or a group's key. Every other value is read from
// the version where it lies, and is never copied into a row.
type stream struct {
	names      []string
	cols       []col         // by name
	views      []*model.View // by input: the version its ordinals index
	nums, vals int           // computed numbers and dimension values a row holds
}

// col is where the values of a stream's column lie.
type col struct {
	src   int   // the input whose tuple holds them, or -1 where the flow computed them
	at    int   // that tuple's dimension, or -1 for its measure; or the computed column's place in a row's nums or vals
	shift int64 // added to the input's value as it is read
	num   bool  // a computed number, else a computed dimension value
}

// streamOf derives the layout of the rows st sends from those of its inputs;
// the output step sends none.
func streamOf(f *Flow, st *Step, streams map[string]*stream, store map[string]*model.Cube) (*stream, error) {
	switch st.Type {
	case TableInput:
		cube, ok := store[st.Table]
		if !ok {
			return nil, fmt.Errorf("table %s not available", st.Table)
		}
		sch := cube.Schema()
		s := &stream{names: st.As, views: []*model.View{cube.View()}}
		for i, fld := range st.Fields {
			c := col{at: sch.DimIndex(fld)}
			if c.at < 0 && fld != sch.Measure {
				return nil, fmt.Errorf("table %s has no column %s", st.Table, fld)
			}
			if st.Shifts != nil {
				c.shift = st.Shifts[i]
			}
			s.cols = append(s.cols, c)
		}
		if st.FilterField != "" && sch.DimIndex(st.FilterField) < 0 {
			return nil, fmt.Errorf("filter column %s not in %s", st.FilterField, st.Table)
		}
		return s, nil
	case MergeJoin:
		l, r := streams[st.Left], streams[st.Right]
		s := &stream{names: slices.Clone(l.names), cols: slices.Clone(l.cols), views: append(slices.Clip(l.views), r.views...),
			nums: l.nums + r.nums, vals: l.vals + r.vals}
		for j, name := range r.names {
			if slices.Contains(st.Keys, name) {
				continue
			}
			c := r.cols[j]
			switch {
			case c.src >= 0:
				c.src += len(l.views)
			case c.num:
				c.at += l.nums
			default:
				c.at += l.vals
			}
			s.names, s.cols = append(s.names, name), append(s.cols, c)
		}
		return s, nil
	case Calculator:
		in := streams[f.Inputs(st.Name)[0]]
		s := &stream{names: slices.Clone(in.names), cols: slices.Clone(in.cols), views: in.views, nums: in.nums, vals: in.vals}
		for _, c := range st.Calcs {
			k := col{src: -1}
			switch e := c.expr.(type) {
			case frame.Col: // an alias, where the column is there
				if j := slices.Index(s.names, e.Name); j >= 0 {
					k = s.cols[j]
					break
				}
				k.at, s.vals = s.vals, s.vals+1
			case frame.Apply, frame.Const:
				k.at, k.num, s.nums = s.nums, true, s.nums+1
			default:
				k.at, s.vals = s.vals, s.vals+1
			}
			s.names, s.cols = append(s.names, c.Field), append(s.cols, k)
		}
		return s, nil
	case Aggregator, PadJoin:
		return kernelStream(append(slices.Clone(st.Keys), st.OutField)), nil
	case SeriesCalc:
		return kernelStream([]string{st.TimeField, st.ValueField}), nil
	}
	return nil, nil
}

// kernelStream is the layout of the rows one of frame's kernels hands out:
// the key's dimension values, then the number.
func kernelStream(names []string) *stream {
	s := &stream{names: names, nums: 1, vals: len(names) - 1}
	for j := range s.vals {
		s.cols = append(s.cols, col{src: -1, at: j})
	}
	s.cols = append(s.cols, col{src: -1, num: true})
	return s
}

// value returns column c of row i of b, a batch of s.
func (s *stream) value(b *batch, i, c int) model.Value {
	k := s.cols[c]
	switch {
	case k.num:
		return model.Num(b.nums[i*s.nums+k.at])
	case k.src < 0:
		return b.vals[i*s.vals+k.at]
	}
	tu := s.views[k.src].Tuple(int(b.refs[i*len(s.views)+k.src]))
	v := model.Num(tu.Measure)
	if k.at >= 0 {
		v = tu.Dims[k.at]
	}
	if k.shift != 0 {
		v, _ = ops.ShiftValue(v, k.shift) // the input step saw that it shifts
	}
	return v
}

// read fills row at cols with those columns of row i of b, a batch of s; the
// rest of row is left as it is.
func (s *stream) read(b *batch, i int, row []model.Value, cols []int) {
	for _, c := range cols {
		row[c] = s.value(b, i, c)
	}
}

// used returns the positions of the columns of s that names name, each once:
// all a step that reads those columns has to read.
func (s *stream) used(names ...string) []int {
	var cols []int
	for _, name := range names {
		if j := slices.Index(s.names, name); j >= 0 && !slices.Contains(cols, j) {
			cols = append(cols, j)
		}
	}
	return cols
}

// exprCols appends to names the names of the columns e reads.
func exprCols(names []string, e frame.Expr) []string {
	switch e := e.(type) {
	case frame.Col:
		return append(names, e.Name)
	case frame.Apply:
		for _, a := range e.Args {
			names = exprCols(names, a)
		}
	case frame.PShift:
		return exprCols(names, e.X)
	case frame.DimApply:
		return exprCols(names, e.X)
	}
	return names
}

// columns returns the positions of names among s's columns; what names them.
func (s *stream) columns(names []string, what string) ([]int, error) {
	idx := make([]int, len(names))
	for i, name := range names {
		if idx[i] = slices.Index(s.names, name); idx[i] < 0 {
			return nil, fmt.Errorf("%s %s missing from stream", what, name)
		}
	}
	return idx, nil
}

// key appends to buf the key of the values of row i of b at cols, and is
// false where one of them is undefined.
func (s *stream) key(buf []byte, b *batch, i int, cols []int) ([]byte, bool) {
	for _, c := range cols {
		v := s.value(b, i, c)
		if !v.IsValid() {
			return buf, false
		}
		buf = model.AppendOrderedKey(buf, v)
	}
	return buf, true
}

// batch is rows of a stream, one after another: a row's ordinals, one per
// input, its computed numbers and its computed dimension values. Only the
// last hold pointers, and only where the flow computes dimension values.
type batch struct {
	n    int
	refs []int32
	nums []float64
	vals []model.Value
}

// newBatch returns an empty batch with room for n rows of s.
func newBatch(n int, s *stream) *batch {
	b := &batch{}
	b.reserve(n, s)
	return b
}

// reserve makes room in b, an empty batch, for n rows of s: a batch off the
// free list may have served a stream of another layout.
func (b *batch) reserve(n int, s *stream) {
	b.refs, b.nums, b.vals = slices.Grow(b.refs, n*len(s.views)), slices.Grow(b.nums, n*s.nums), slices.Grow(b.vals, n*s.vals)
}

// add appends row i of from, a batch of s, to the row b is filling.
func (b *batch) add(from *batch, i int, s *stream) {
	w := len(s.views)
	b.refs = append(b.refs, from.refs[i*w:(i+1)*w]...)
	b.nums = append(b.nums, from.nums[i*s.nums:(i+1)*s.nums]...)
	b.vals = append(b.vals, from.vals[i*s.vals:(i+1)*s.vals]...)
}

// batcher collects a step's output rows into batches and sends each one
// downstream when it is full, aborting when the flow is cancelled so a
// producer never blocks forever on a consumer that died.
type batcher struct {
	ctx   context.Context
	out   chan<- *batch
	free  batches
	s     *stream // of the rows it sends
	batch *batch
}

// row returns the batch whose next row the step fills, taking one from the
// free list where there is one; end counts the row.
func (w *batcher) row() *batch {
	if w.batch == nil {
		select {
		case w.batch = <-w.free:
			w.batch.reserve(batchSize, w.s)
		default:
			w.batch = newBatch(batchSize, w.s)
		}
	}
	return w.batch
}

// end ends the row filled in row's batch, sending the batch once it is full.
func (w *batcher) end() error {
	if w.batch.n++; w.batch.n < batchSize {
		return nil
	}
	return w.flush()
}

// flush sends the rows collected so far, if any: at a full batch and once
// more at end of stream.
func (w *batcher) flush() error {
	if w.batch == nil || w.batch.n == 0 {
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
type batches chan *batch

// recycle hands back a batch its consumer has read, letting go of the
// values it held; it is left to the collector when the list is full.
func (fl batches) recycle(b *batch) {
	clear(b.vals)
	b.n, b.refs, b.nums, b.vals = 0, b.refs[:0], b.nums[:0], b.vals[:0]
	select {
	case fl <- b:
	default:
	}
}

// drain calls fn on every row of the stream in, handing each batch back
// once it is read, then flushes what fn collected.
func (w *batcher) drain(in <-chan *batch, fn func(b *batch, i int) error) error {
	for b := range in {
		for i := range b.n {
			if err := fn(b, i); err != nil {
				return err
			}
		}
		w.free.recycle(b)
	}
	return w.flush()
}

// runStep runs one step of f. The output step finds the previous version of
// the flow's cube in *result (nil for none) and leaves the cube it built there.
func runStep(ctx context.Context, f *Flow, st *Step, streams map[string]*stream, chans map[string]chan *batch, free batches,
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
	w := &batcher{ctx: ctx, out: out, free: free, s: streams[st.Name]}
	in := append(f.Inputs(st.Name), "")[0] // the first input, if any

	switch st.Type {
	case TableInput:
		s, sch := w.s, store[st.Table].Schema()
		filter := sch.DimIndex(st.FilterField)
		v := s.views[0]
		for i := range v.Len() {
			tu := v.Tuple(i)
			if filter >= 0 && !tu.Dims[filter].Equal(st.filterVal) {
				continue
			}
			for _, c := range s.cols {
				if c.shift != 0 && c.at >= 0 {
					if _, err := ops.ShiftValue(tu.Dims[c.at], c.shift); err != nil {
						return err
					}
				}
			}
			b := w.row()
			b.refs = append(b.refs, int32(i))
			if err := w.end(); err != nil {
				return err
			}
		}
		return w.flush()

	case MergeJoin:
		l, r := streams[st.Left], streams[st.Right]
		lk, err := l.columns(st.Keys, "join key")
		if err != nil {
			return err
		}
		rk, err := r.columns(st.Keys, "join key")
		if err != nil {
			return err
		}
		// Build side: the right stream is buffered whole, its rows copied
		// into one batch, then indexed by the hash of their key, each row
		// chained to the following one with the key in arrival order
		// (model.Chains). No key is kept: where a probe meets a row, the row's
		// key is read again through its references. Counting the rows first
		// sizes them once.
		var right []*batch
		n := 0
		for b := range chans[st.Right] {
			right = append(right, b)
			n += b.n
		}
		build, index := newBatch(n, r), model.NewChains(n)
		var key, other []byte
		has := func(q int32) bool {
			other, _ = r.key(other[:0], build, int(q), rk)
			return bytes.Equal(key, other)
		}
		for _, b := range right {
			for i := range b.n {
				var ok bool
				if key, ok = r.key(key[:0], b, i, rk); !ok {
					continue
				}
				build.add(b, i, r)
				index.Add(int32(build.n), model.HashKey(key), has)
				build.n++
			}
			free.recycle(b)
		}
		// Probe side: the left stream flows through, each row followed by
		// its matches in the order the build side arrived.
		return w.drain(chans[st.Left], func(b *batch, i int) error {
			var ok bool
			if key, ok = l.key(key[:0], b, i, lk); !ok {
				return nil
			}
			for m := index.Head(model.HashKey(key), has); m >= 0; m = index.Next(m) {
				o := w.row()
				o.add(b, i, l)
				o.add(build, int(m), r)
				if err := w.end(); err != nil {
					return err
				}
			}
			return nil
		})

	case Calculator:
		s, is := w.s, streams[in]
		base := len(is.cols)
		// Each field is bound against the columns in front of it, and read
		// from one reused row, into which only the input's columns the fields
		// read are read.
		fields := make([]frame.RowFunc, len(st.Calcs))
		var names []string
		for i, c := range st.Calcs {
			var err error
			if fields[i], err = frame.Bind(c.expr, s.names[:base+i]); err != nil {
				return err
			}
			names = exprCols(names, c.expr)
		}
		row, used := make([]model.Value, len(s.cols)), is.used(names...)
		return w.drain(chans[in], func(b *batch, i int) error {
			is.read(b, i, row, used)
			for k, field := range fields {
				v, err := field(row)
				if err != nil || !v.IsValid() {
					return err // an undefined point: the row contributes nothing
				}
				row[base+k] = v
			}
			o := w.row()
			o.add(b, i, is)
			o.nums, o.vals = append(o.nums, make([]float64, s.nums-is.nums)...), append(o.vals, make([]model.Value, s.vals-is.vals)...)
			for c, k := range s.cols[base:] { // an alias of an input's column has its values there
				if k.src < 0 && k.num {
					o.nums[len(o.nums)-s.nums+k.at], _ = row[base+c].AsNumber()
				} else if k.src < 0 {
					o.vals[len(o.vals)-s.vals+k.at] = row[base+c]
				}
			}
			return w.end()
		})

	// The blocking steps are frame's kernels, fed the stream.
	case Aggregator, SeriesCalc:
		var k frame.Kernel
		var err error
		if st.Type == Aggregator {
			k, err = frame.NewGrouping(frame.GroupAgg{By: st.Keys, Agg: st.Agg, ValCol: st.ValueField}, streams[in].names)
		} else {
			k, err = frame.NewSeries(frame.SeriesOp{Op: st.Op, Params: st.Params, TimeCol: st.TimeField, ValCol: st.ValueField}, streams[in].names)
		}
		if err == nil {
			err = w.feed(chans[in], streams[in], streams[in].used(append(slices.Clip(st.Keys), st.TimeField, st.ValueField)...), k.Add)
		}
		if err != nil {
			return err
		}
		return emit(k.Each, w)

	case PadJoin:
		l, r := streams[st.Left], streams[st.Right]
		m, err := frame.NewPadMerger(frame.PadMerge{Keys: st.Keys, XVal: st.ValueField, YVal: st.RightField, Op: st.Op, Default: st.Default},
			l.names, r.names)
		if err != nil {
			return err
		}
		for side, name := range [2]string{st.Left, st.Right} {
			used := streams[name].used(append(slices.Clip(st.Keys), [2]string{st.ValueField, st.RightField}[side])...)
			if err := w.feed(chans[name], streams[name], used, func(row []model.Value) error { return m.Add(side, row) }); err != nil {
				return err
			}
		}
		return emit(m.Each, w)

	case TableOutput:
		s := streams[in]
		sch, ok := schemas[st.Table]
		if !ok {
			return fmt.Errorf("no schema for output %s", st.Table)
		}
		idx, err := s.columns(st.Fields, "output field")
		if err != nil {
			return err
		}
		bld := model.NewBuilderOn(*result, sch)
		dims := make([]model.Value, len(sch.Dims))
		err = w.drain(chans[in], func(b *batch, i int) error {
			for k := range dims {
				dims[k] = s.value(b, i, idx[k])
			}
			return bld.AddRow(dims, s.value(b, i, idx[len(idx)-1]))
		})
		if err != nil {
			return err
		}
		// Publish the cube only after the stream completed: a flow that
		// errors never exposes a partially-written result.
		if err := ctx.Err(); err != nil {
			return err
		}
		cube, err := bld.Build()
		*result = cube
		return err

	default:
		return fmt.Errorf("unknown step type %s", st.Type)
	}
}

// feed hands add every row of the stream in, of layout s, in one reused row
// into which the columns cols, all add reads, are read: what add keeps of it,
// it copies.
func (w *batcher) feed(in <-chan *batch, s *stream, cols []int, add func(row []model.Value) error) error {
	row := make([]model.Value, len(s.cols))
	return w.drain(in, func(b *batch, i int) error {
		s.read(b, i, row, cols)
		return add(row)
	})
}

// emit sends every row a kernel's Each hands out downstream: its key's
// dimension values, then its number.
func emit(each func(fn func(row []model.Value) error) error, w *batcher) error {
	err := each(func(row []model.Value) error {
		o, n := w.row(), len(row)-1
		x, _ := row[n].AsNumber()
		o.vals, o.nums = append(o.vals, row[:n]...), append(o.nums, x)
		return w.end()
	})
	if err != nil {
		return err
	}
	return w.flush()
}
