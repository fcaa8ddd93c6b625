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

// runFlow runs one flow and returns the cube its output step built, as the
// revision of prev (nil for none).
func runFlow(ctx context.Context, f *Flow, store map[string]*model.Cube, schemas map[string]model.Schema, prev *model.Cube) (*model.Cube, error) {
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
	chans := make(map[string]chan []Row)
	for _, h := range f.Hops {
		if _, dup := chans[h.From]; dup {
			return nil, fmt.Errorf("step %s has more than one consumer", h.From)
		}
		chans[h.From] = make(chan []Row, chanCap)
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
	// Room for every batch the hops can hold at once: chanCap queued, one
	// being filled and one being read on each.
	free := make(batches, len(f.Hops)*(chanCap+2))

	// The flow context links every step: the first failing step cancels
	// it, which unblocks producers parked on full channels (their sends
	// select on ctx.Done), so no goroutine outlives the flow even when a
	// step dies mid-stream.
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()

	fe := &flowErr{}
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
					fe.set(err)
					cancel()
				}
			}()
			err := runStep(sctx, f, st, cols, chans, free, store, schemas, &result)
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
	return result, nil
}

// batcher collects a step's output rows into batches and sends each one
// downstream when it is full, aborting when the flow is cancelled so a
// producer never blocks forever on a consumer that died.
type batcher struct {
	ctx   context.Context
	out   chan<- []Row
	free  batches
	size  int // of a new batch: batchSize, or fewer where the step sends fewer rows
	batch []Row
}

// add appends a row to the batch, sending the batch once it is full.
func (b *batcher) add(r Row) error {
	if b.batch == nil {
		b.batch = b.free.get(b.size)
	}
	b.batch = append(b.batch, r)
	if len(b.batch) < batchSize {
		return nil
	}
	return b.flush()
}

// flush sends the rows collected so far, if any: at a full batch and once
// more at end of stream.
func (b *batcher) flush() error {
	if len(b.batch) == 0 {
		return nil
	}
	select {
	case b.out <- b.batch:
		b.batch = nil
		return nil
	case <-b.ctx.Done():
		return b.ctx.Err()
	}
}

// batches is a flow's free list of batch arrays: every consumer hands back
// each batch it has read, and producers fill those before making new ones,
// so a stream of any length allocates a few batches a hop. The list lives
// as long as the flow.
type batches chan []Row

// get returns an empty batch, one read before where there is one, else a
// new one with room for n rows.
func (fl batches) get(n int) []Row {
	select {
	case batch := <-fl:
		return batch
	default:
		return make([]Row, 0, n)
	}
}

// recycle hands back a batch its consumer has read. The rows it held live on
// in their slabs; the batch lets go of them, and is left to the collector
// when the list is full.
func (fl batches) recycle(batch []Row) {
	clear(batch)
	select {
	case fl <- batch[:0]:
	default:
	}
}

// slab hands out rows of one width cut from a shared backing array, each a
// full-capacity window of it, so an append to one row can never reach its
// neighbour. An array is never reused: a row stays valid for as long as a
// downstream step holds it.
type slab struct {
	w    int
	vals []model.Value
}

// reserve makes room for n more rows where the array has less: a new array
// of n rows, and of as many more as its size class holds, which the
// allocator would spend on it anyway.
func (s *slab) reserve(n int) {
	if len(s.vals) >= n*s.w {
		return
	}
	s.vals = slices.Grow([]model.Value(nil), n*s.w)
	s.vals = s.vals[:cap(s.vals)-cap(s.vals)%max(s.w, 1)]
}

// empty reports whether every row of the array has been taken.
func (s *slab) empty() bool { return len(s.vals) == 0 }

// next returns the row the slab hands out next, to be filled in place: take
// hands it out, else the next call returns it again.
func (s *slab) next() Row { return Row(s.vals[:s.w:s.w]) }

// take hands out the row next returned.
func (s *slab) take() Row {
	r := s.next()
	s.vals = s.vals[s.w:]
	return r
}

// joinKey appends to buf the key of the row's values at idx, and is false
// where one of them is undefined.
func joinKey(buf []byte, row Row, idx []int) ([]byte, bool) {
	for _, j := range idx {
		if !row[j].IsValid() {
			return buf, false
		}
		buf = model.AppendOrderedKey(buf, row[j])
	}
	return buf, true
}

// runStep runs one step of f. The output step finds the previous version of
// the flow's cube in *result (nil for none) and leaves the cube it built there.
func runStep(ctx context.Context, f *Flow, st *Step, cols map[string][]string, chans map[string]chan []Row, free batches,
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
	b := &batcher{ctx: ctx, out: out, free: free, size: batchSize}

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
		rows := slab{w: len(idx)}
		left := cube.Len() // tuples not yet read
		b.size = min(batchSize, left)
		err := cube.Ordered(func(tu model.Tuple) error {
			left--
			if filterIdx >= 0 && !tu.Dims[filterIdx].Equal(st.filterVal) {
				return nil
			}
			if rows.empty() {
				rows.reserve(min(batchSize, left+1))
			}
			row := rows.next()
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
			return b.add(rows.take())
		})
		if err != nil {
			return err
		}
		return b.flush()

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
		// Build side: the right stream is buffered whole, then indexed by
		// key to the first of its rows with the key; next chains each row to
		// the following one with the same key, in arrival order. Counting
		// the rows first sizes the index once.
		var right [][]Row
		n := 0
		for batch := range rightCh {
			right = append(right, batch)
			n += len(batch)
		}
		build := make([]Row, 0, n)
		next := make([]int32, 0, n)
		last := make([]int32, 0, n) // read at a key's first row: its chain's end
		first := make(map[string]int32, n)
		var key []byte
		for _, batch := range right {
			for _, r := range batch {
				var ok bool
				if key, ok = joinKey(key[:0], r, rk); !ok {
					continue
				}
				i := int32(len(build))
				build, next, last = append(build, r), append(next, -1), append(last, i)
				if h, seen := first[string(key)]; seen {
					next[last[h]], last[h] = i, i
				} else {
					first[string(key)] = i
				}
			}
			b.free.recycle(batch)
		}
		// Probe side: the left stream flows through. Each batch's matches
		// are counted first, so the slab is sized to the rows it will hold.
		rows := slab{w: len(leftCols) + len(keep)}
		var heads []int32 // by probe row of the batch: its first match, or -1
		for batch := range leftCh {
			heads = heads[:0]
			n := 0
			for _, l := range batch {
				h := int32(-1)
				var ok bool
				if key, ok = joinKey(key[:0], l, lk); ok {
					if m, found := first[string(key)]; found {
						h = m
					}
				}
				heads = append(heads, h)
				for m := h; m >= 0; m = next[m] {
					n++
				}
			}
			rows.reserve(n)
			for i, l := range batch {
				for m := heads[i]; m >= 0; m = next[m] {
					nr := rows.take()
					copy(nr, l)
					for k, j := range keep {
						nr[len(leftCols)+k] = build[m][j]
					}
					if err := b.add(nr); err != nil {
						return err
					}
				}
			}
			b.free.recycle(batch)
		}
		return b.flush()

	case Calculator:
		in := chans[f.Inputs(st.Name)[0]]
		myCols := cols[st.Name]
		base := len(myCols) - len(st.Calcs)
		// Each field is bound against the columns in front of it.
		fields := make([]frame.RowFunc, len(st.Calcs))
		for i, c := range st.Calcs {
			var err error
			if fields[i], err = frame.Bind(c.Expr(), myCols[:base+i]); err != nil {
				return err
			}
		}
		rows := slab{w: len(myCols)}
		for batch := range in {
			rows.reserve(len(batch))
			for _, row := range batch {
				nr := rows.next()
				copy(nr, row)
				defined := true
				for i, field := range fields {
					v, err := field(nr)
					if err != nil {
						return err
					}
					if defined = v.IsValid(); !defined {
						break // undefined point: the row contributes nothing
					}
					nr[base+i] = v
				}
				if !defined {
					continue
				}
				if err := b.add(rows.take()); err != nil {
					return err
				}
			}
			b.free.recycle(batch)
		}
		return b.flush()

	// The blocking steps are frame's kernels, fed the stream.
	case Aggregator:
		in := f.Inputs(st.Name)[0]
		k, err := frame.NewGrouping(frame.GroupAgg{By: st.Keys, Agg: st.Agg, ValCol: st.ValueField}, cols[in])
		if err != nil {
			return err
		}
		return pipe(chans[in], k, b)

	case SeriesCalc:
		in := f.Inputs(st.Name)[0]
		k, err := frame.NewSeries(frame.SeriesOp{Op: st.Op, Params: st.Params, TimeCol: st.TimeField, ValCol: st.ValueField}, cols[in])
		if err != nil {
			return err
		}
		return pipe(chans[in], k, b)

	case PadJoin:
		m, err := frame.NewPadMerger(frame.PadMerge{Keys: st.Keys, XVal: st.ValueField, YVal: st.RightField, Op: st.Op, Default: st.Default},
			cols[st.Left], cols[st.Right])
		if err != nil {
			return err
		}
		for side, in := range [2]chan []Row{chans[st.Left], chans[st.Right]} {
			for batch := range in {
				for _, row := range batch {
					if err := m.Add(side, row); err != nil {
						return err
					}
				}
				b.free.recycle(batch)
			}
		}
		return emit(m.Each, b)

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
		bld := model.NewBuilderOn(*result, sch)
		dims := make([]model.Value, len(sch.Dims))
		for batch := range in {
			for _, row := range batch {
				for i := range dims {
					dims[i] = row[idx[i]]
				}
				if err := bld.AddRow(dims, row[idx[len(idx)-1]]); err != nil {
					return err
				}
			}
			b.free.recycle(batch)
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

// pipe feeds every row of in to the kernel, then sends its rows downstream.
func pipe(in <-chan []Row, k frame.Kernel, b *batcher) error {
	for batch := range in {
		for _, row := range batch {
			if err := k.Add(row); err != nil {
				return err
			}
		}
		b.free.recycle(batch)
	}
	return emit(k.Each, b)
}

// emit sends every row a kernel's Each hands out downstream.
func emit(each func(fn func(row []model.Value) error) error, b *batcher) error {
	if err := each(func(row []model.Value) error { return b.add(row) }); err != nil {
		return err
	}
	return b.flush()
}
