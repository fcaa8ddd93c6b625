// Package dispatch implements EXLEngine's dispatcher (Section 6): it
// assigns every determination subgraph to its target engine, runs the
// generated executables there — "each target engine then only executes its
// native code" — and moves cube data between engines through a shared
// snapshot, applying parallelization where the dependency DAG allows
// (independent subgraphs run concurrently, in waves).
//
// Every target is a deterministic in-process engine, so the dispatcher
// tries each permitted target once: runs are cancellable through a
// context, panics inside target engines are recovered into typed errors
// (exlerr), and a fragment whose target fails is re-routed to the next
// target the operator-support matrix permits, the chase being the
// universal last resort. Every attempt and fallback is recorded in a
// Report.
package dispatch

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"exlengine/internal/backend"
	"exlengine/internal/chase"
	"exlengine/internal/determine"
	"exlengine/internal/exlerr"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
)

// Dispatcher executes determination plans against the target engines.
type Dispatcher struct {
	// Parallel enables wave-based concurrent execution of independent
	// subgraphs. Sequential execution gives the same results.
	Parallel bool
	// Degrade enables fallback re-routing: a fragment whose target fails
	// is re-run on the next target the operator-support matrix permits,
	// chase last.
	Degrade bool
	// FragmentTimeout bounds each fragment attempt; zero means no bound.
	// An attempt that outlives it fails like any other and degrades.
	FragmentTimeout time.Duration
	// Middleware wraps fragment execution, outermost first. Fault
	// injection (internal/faults) hooks in here.
	Middleware []Middleware
}

// Fragment describes one fragment attempt to middleware.
type Fragment struct {
	Index  int // fragment position in the plan
	Target ops.Target
	Cubes  []string // the derived cubes the fragment produces
}

// Runner executes a fragment attempt over a snapshot.
type Runner func(ctx context.Context, fr Fragment, snap map[string]*model.Cube) (map[string]*model.Cube, error)

// Middleware wraps a Runner, observing or perturbing fragment execution.
type Middleware func(Runner) Runner

// TgdSource resolves the tgds generated for one derived cube (its
// statement's tgds, auxiliaries included, in stratification order).
type TgdSource func(cube string) []*mapping.Tgd

// Run executes the subgraphs over the snapshot (cube name -> instance),
// returning every derived cube computed. The snapshot must contain all
// elementary cubes the plan needs; derived cubes produced by one subgraph
// become inputs of later ones. Run is RunContext without cancellation,
// discarding the report.
func (d *Dispatcher) Run(subs []determine.Subgraph, tgds TgdSource,
	schemas map[string]model.Schema, snap map[string]*model.Cube) (map[string]*model.Cube, error) {
	out, _, err := d.RunContext(context.Background(), subs, tgds, schemas, snap)
	return out, err
}

// RunContext executes the plan under a context: cancelling the context
// aborts the run between (and during) fragment attempts. The returned
// Report lists every attempt and fallback, even when the run fails. It
// is RunContextIncr without an incremental plan.
func (d *Dispatcher) RunContext(ctx context.Context, subs []determine.Subgraph, tgds TgdSource,
	schemas map[string]model.Schema, snap map[string]*model.Cube) (map[string]*model.Cube, *Report, error) {
	return d.RunContextIncr(ctx, subs, tgds, schemas, snap, nil)
}

// runPlan is RunContextIncr behind the dispatch span. A non-nil incr puts
// the run in incremental mode: fragments consume the delta front and
// publish their outputs' movement back into it.
func (d *Dispatcher) runPlan(ctx context.Context, subs []determine.Subgraph, tgds TgdSource,
	schemas map[string]model.Schema, snap map[string]*model.Cube, incr *incrState) (map[string]*model.Cube, *Report, error) {

	start := time.Now()
	rep := &Report{Fragments: make([]FragmentReport, len(subs))}

	// Working snapshot shared across subgraphs.
	work := make(map[string]*model.Cube, len(snap))
	for k, v := range snap {
		work[k] = v
	}
	results := make(map[string]*model.Cube)

	frags := make([]*fragment, len(subs))
	for i, sub := range subs {
		f, err := buildFragment(sub, tgds, schemas)
		if err != nil {
			rep.Elapsed = time.Since(start)
			return nil, rep, err
		}
		frags[i] = f
	}

	if !d.Parallel {
		for i, f := range frags {
			out, fr, err := d.runFragment(ctx, i, subs[i], f, work, incr)
			rep.Fragments[i] = fr
			if err != nil {
				rep.Elapsed = time.Since(start)
				return nil, rep, err
			}
			for k, v := range out {
				work[k] = v
				results[k] = v
			}
		}
		rep.Elapsed = time.Since(start)
		return results, rep, nil
	}

	// Wave-based parallel execution: a fragment is ready when every input
	// produced by the plan is already available.
	produced := make(map[string]int) // cube -> fragment index
	for i, f := range frags {
		for _, c := range f.produces {
			produced[c] = i
		}
	}
	done := make([]bool, len(frags))
	for {
		var wave []int
		for i, f := range frags {
			if done[i] {
				continue
			}
			ready := true
			for _, in := range f.inputs {
				if j, ok := produced[in]; ok && !done[j] {
					ready = false
					break
				}
			}
			if ready {
				wave = append(wave, i)
			}
		}
		if len(wave) == 0 {
			break
		}
		var mu sync.Mutex
		var wg sync.WaitGroup
		var firstErr error
		for _, i := range wave {
			i := i
			f := frags[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, fr, err := d.runFragment(ctx, i, subs[i], f, work, incr)
				mu.Lock()
				defer mu.Unlock()
				rep.Fragments[i] = fr
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				for k, v := range out {
					results[k] = v
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			rep.Elapsed = time.Since(start)
			return nil, rep, firstErr
		}
		// Publish the wave's outputs to the shared snapshot. Fragments of
		// the wave that produced nothing (impossible today) would simply
		// publish nothing: failed attempts never reach this point, so the
		// shared snapshot only ever sees complete fragment outputs.
		for _, i := range wave {
			for _, c := range frags[i].produces {
				if v, ok := results[c]; ok {
					work[c] = v
				}
			}
			done[i] = true
		}
	}
	for i := range frags {
		if !done[i] {
			rep.Elapsed = time.Since(start)
			return nil, rep, fmt.Errorf("dispatch: unresolvable fragment dependencies")
		}
	}
	rep.Elapsed = time.Since(start)
	return results, rep, nil
}

// runFragment executes one fragment with fallback degradation, recording
// every attempt in the report, in the span tree and in the metrics
// registry carried by the context.
func (d *Dispatcher) runFragment(ctx context.Context, idx int, sub determine.Subgraph,
	f *fragment, snap map[string]*model.Cube, incr *incrState) (map[string]*model.Cube, FragmentReport, error) {

	ctx, span := obs.StartSpan(ctx, "fragment",
		obs.Int("index", idx), obs.Strings("cubes", f.produces), obs.String("target", string(f.target)))
	out, fr, err := d.runFragmentAttempts(ctx, idx, sub, f, snap, incr)
	if fr.Final != "" {
		span.SetAttr(obs.String("final", string(fr.Final)))
	}
	span.EndErr(err)
	return out, fr, err
}

// runFragmentAttempts is runFragment behind the fragment span.
func (d *Dispatcher) runFragmentAttempts(ctx context.Context, idx int, sub determine.Subgraph,
	f *fragment, snap map[string]*model.Cube, incr *incrState) (map[string]*model.Cube, FragmentReport, error) {

	start := time.Now()
	met := obs.MetricsFrom(ctx)
	fr := FragmentReport{Index: idx, Cubes: append([]string(nil), f.produces...), Primary: f.target}

	targets := []ops.Target{f.target}
	if d.Degrade {
		targets = append(targets, determine.FallbackOrder(sub)...)
	}

	// The fragment's view of the delta front is the same for every
	// attempt: its producers finished in earlier waves, and its own
	// outputs are published only once an attempt has succeeded.
	var view *fragView
	if incr != nil {
		view = incr.view(f)
	}
	var oc outcome
	runner := Runner(func(ctx context.Context, info Fragment, snap map[string]*model.Cube) (map[string]*model.Cube, error) {
		return f.run(ctx, info.Target, snap, view, &oc)
	})
	for i := len(d.Middleware) - 1; i >= 0; i-- {
		runner = d.Middleware[i](runner)
	}

	var lastErr error
	for i, target := range targets {
		if i > 0 {
			fr.Fallbacks = append(fr.Fallbacks, target)
			met.Counter(obs.Label(obs.MetricFallbacks, "target", string(target))).Add(1)
		}
		actx, aspan := obs.StartSpan(ctx, "attempt", obs.String("target", string(target)))
		out, err := d.exec(actx, runner, Fragment{Index: idx, Target: target, Cubes: fr.Cubes}, snap)
		aspan.EndErr(err)
		if err == nil {
			fr.Attempts = append(fr.Attempts, Attempt{Target: target})
			fr.Final = target
			fr.Mode = oc.mode
			if incr != nil {
				incr.publish(f, out, oc.outDeltas)
				fr.Incremental = oc.mode != ModeFull
				fr.FellBackFull = oc.mode == ModeFull
				fr.FallbackReason = oc.reason
			}
			fr.Elapsed = time.Since(start)
			met.Counter(obs.Label(obs.MetricFragments, "target", string(target))).Add(1)
			return out, fr, nil
		}
		lastErr = err
		rec := Attempt{Target: target, Err: err.Error(), Class: exlerr.ClassOf(err), Panic: exlerr.IsPanic(err)}
		fr.Attempts = append(fr.Attempts, rec)
		if rec.Panic {
			met.Counter(obs.MetricPanics).Add(1)
		}
		if exlerr.IsCancellation(err) && ctx.Err() != nil {
			// The run itself was cancelled: stop, don't degrade. An expired
			// fragment timeout leaves ctx alive and degrades below.
			fr.Elapsed = time.Since(start)
			return nil, fr, err
		}
		if rec.Class == exlerr.EgdViolation {
			// The data itself is inconsistent; every target computes
			// the same data-exchange semantics, so degradation would
			// only repeat the violation.
			met.Counter(obs.MetricEgdViolations).Add(1)
			fr.Elapsed = time.Since(start)
			return nil, fr, err
		}
	}
	fr.Elapsed = time.Since(start)
	return nil, fr, fmt.Errorf("dispatch: fragment %d %v failed on every permitted target: %w", idx, fr.Cubes, lastErr)
}

// exec performs a single attempt: it applies the fragment timeout,
// isolates panics from the target engine (and any middleware) into typed
// errors, and refuses to start under a cancelled context.
func (d *Dispatcher) exec(ctx context.Context, runner Runner, fr Fragment,
	snap map[string]*model.Cube) (out map[string]*model.Cube, err error) {

	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if d.FragmentTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.FragmentTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, exlerr.Recovered(r, debug.Stack())
		}
	}()
	return runner(ctx, fr, snap)
}

// fragment is one subgraph compiled into a self-contained mapping.
type fragment struct {
	target   ops.Target
	m        *mapping.Mapping
	produces []string // the subgraph's visible derived cubes
	inputs   []string // relations read from the shared snapshot
	// solver is the mapping compiled for maintenance, built by the first
	// maintained attempt and reused by its fallbacks (a full run on any
	// target, the chase included, is backend.Run). A fragment is run by
	// one goroutine at a time.
	solver *chase.Solver
}

func (f *fragment) chaseSolver() *chase.Solver {
	if f.solver == nil {
		f.solver = chase.New(f.m)
	}
	return f.solver
}

// buildFragment assembles the sub-mapping for a subgraph: the tgds of its
// statements in order, with the relations they read (and do not produce)
// acting as the fragment's elementary relations.
func buildFragment(sub determine.Subgraph, tgds TgdSource, schemas map[string]model.Schema) (*fragment, error) {
	f := &fragment{target: sub.Target}
	m := &mapping.Mapping{Schemas: make(map[string]model.Schema)}

	producedHere := make(map[string]bool)
	for _, ref := range sub.Stmts {
		ts := tgds(ref.Cube())
		if len(ts) == 0 {
			return nil, fmt.Errorf("dispatch: no tgds for cube %s", ref.Cube())
		}
		for _, t := range ts {
			// Shallow-copy the tgd: the source mapping is shared read-only
			// (between engines, via the compile cache), while the fragment
			// restratifies its private copies below.
			tc := *t
			m.Tgds = append(m.Tgds, &tc)
			producedHere[t.Target()] = true
			if sch, ok := schemas[t.Target()]; ok {
				m.Schemas[t.Target()] = sch
			} else {
				return nil, fmt.Errorf("dispatch: no schema for %s", t.Target())
			}
		}
		f.produces = append(f.produces, ref.Cube())
		m.Derived = append(m.Derived, ref.Cube())
	}
	seen := make(map[string]bool)
	for _, t := range m.Tgds {
		for _, a := range t.Lhs {
			if producedHere[a.Rel] || seen[a.Rel] {
				continue
			}
			seen[a.Rel] = true
			f.inputs = append(f.inputs, a.Rel)
			sch, ok := schemas[a.Rel]
			if !ok {
				return nil, fmt.Errorf("dispatch: no schema for input %s", a.Rel)
			}
			m.Schemas[a.Rel] = sch
			m.Elementary = append(m.Elementary, a.Rel)
		}
	}
	for i, t := range m.Tgds {
		t.Stratum = i
	}
	f.m = m
	return f, nil
}

// inputsFrom picks the fragment's input cubes out of the snapshot for an
// attempt on target, refusing to start under a cancelled context.
func (f *fragment) inputsFrom(ctx context.Context, target ops.Target, snap map[string]*model.Cube) (map[string]*model.Cube, error) {
	input := make(map[string]*model.Cube, len(f.inputs))
	for _, in := range f.inputs {
		c, ok := snap[in]
		if !ok {
			return nil, fmt.Errorf("dispatch: input cube %s not available for %s fragment", in, target)
		}
		input[in] = c
	}
	return input, ctx.Err()
}

// keep narrows the maintained solution to the cubes the fragment
// produces, dropping input twins and auxiliary relations.
func (f *fragment) keep(all map[string]*model.Cube) map[string]*model.Cube {
	out := make(map[string]*model.Cube, len(f.produces))
	for _, name := range f.produces {
		if c, ok := all[name]; ok {
			out[name] = c
		}
	}
	return out
}

// outcome captures how the last attempt of a fragment ran; the
// successful attempt's value lands in the fragment report.
type outcome struct {
	mode   string
	reason string // under a plan, why the attempt was a full run
	// outDeltas holds the exact delta of every produced cube that moved,
	// when the attempt derived them; nil when it did not.
	outDeltas map[string]*model.CubeDelta
}

// run brings the fragment up to date over the snapshot, for one attempt
// on target (which differs from the fragment's assigned one when the
// dispatcher degrades). How is read off the view alone (fragView.mode):
// without a plan, or with a view that has a gap, target runs the whole
// fragment; with nothing moved the previous outputs are kept; otherwise
// the compiled chase applies the input deltas to the previous outputs,
// deciding tgd by tgd what it can maintain — a target never sees a
// delta. Each attempt reads the shared snapshot and returns a fresh
// output map, so a failed attempt leaves no trace.
func (f *fragment) run(ctx context.Context, target ops.Target, snap map[string]*model.Cube,
	v *fragView, oc *outcome) (map[string]*model.Cube, error) {

	*oc = outcome{mode: ModeFull}
	input, err := f.inputsFrom(ctx, target, snap)
	if err != nil {
		return nil, err
	}
	if v != nil {
		oc.mode, oc.reason = v.mode(f)
	}

	start := time.Now()
	var out map[string]*model.Cube
	switch oc.mode {
	case ModeReused:
		out, _ = v.reuse(f)
		oc.outDeltas = map[string]*model.CubeDelta{}
	case ModeMaintained:
		din := &chase.DeltaInput{Deltas: v.deltas, BaseOut: v.bases}
		sol, od, stats, err := f.chaseSolver().SolveIncremental(ctx, chase.Instance(input), din)
		if err != nil {
			return nil, err
		}
		if stats.Full > 0 {
			oc.mode = ModeFull
			oc.reason = fmt.Sprintf("%d of %d tgds recomputed in full: %s",
				stats.Full, stats.Tgds, strings.Join(stats.FullTgds, ", "))
		}
		out, oc.outDeltas = f.keep(sol), od
	default:
		if out, err = backend.Run(ctx, target, f.m, input); err != nil {
			return nil, err
		}
	}
	recordAttempt(ctx, target, input, out, start)
	sp := obs.CurrentSpan(ctx)
	sp.SetAttr(obs.String("mode", oc.mode))
	if oc.reason != "" {
		sp.SetAttr(obs.String("reason", oc.reason))
	}
	if v == nil {
		return out, nil
	}

	met := obs.MetricsFrom(ctx)
	if oc.mode == ModeFull {
		met.Counter(obs.Label(obs.MetricIncrFellBack, "target", string(target))).Add(1)
		return out, nil
	}
	met.Counter(obs.Label(obs.MetricIncrFragments, "target", string(target))).Add(1)
	var din, full int
	for name, d := range v.deltas {
		din += d.Size()
		if c := input[name]; c != nil {
			full += c.Len()
		}
	}
	met.Counter(obs.MetricIncrDeltaTuples).Add(int64(din))
	met.Counter(obs.MetricIncrFullTuples).Add(int64(full))
	if sp != nil { // rendering the count allocates
		sp.SetAttr(obs.Int("delta_tuples_in", din))
	}
	return out, nil
}

// recordAttempt accounts for a successful attempt's data movement and
// latency: tuples of the input cubes it was given from the shared
// snapshot, tuples of the cubes it handed back, and the target's
// wall-clock time (successful attempts only, so latency histograms
// describe real work). Full and incremental attempts count alike.
func recordAttempt(ctx context.Context, target ops.Target, input, out map[string]*model.Cube, start time.Time) {
	var read, written int
	for _, c := range input {
		read += c.Len()
	}
	for _, c := range out {
		written += c.Len()
	}
	if sp := obs.CurrentSpan(ctx); sp != nil {
		sp.SetAttr(obs.Int("tuples_in", read))
		sp.SetAttr(obs.Int("tuples_out", written))
	}
	met := obs.MetricsFrom(ctx)
	met.Counter(obs.Label(obs.MetricTuplesRead, "target", string(target))).Add(int64(read))
	met.Counter(obs.Label(obs.MetricTuplesWritten, "target", string(target))).Add(int64(written))
	met.Histogram(obs.Label(obs.MetricTargetLatency, "target", string(target))).ObserveDuration(time.Since(start))
}
