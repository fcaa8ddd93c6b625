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
	// Serial runs every wave one fragment at a time on the calling
	// goroutine, in plan order. The engine sets it for a run whose memory
	// reservation fits only half the estimate (engine.MemoryBudget); the
	// results are the same.
	Serial bool
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

// RunContext executes the subgraphs over the snapshot (cube name ->
// instance) under a context, returning every derived cube computed. The
// snapshot must contain all elementary cubes the plan needs; derived cubes
// produced by one subgraph become inputs of later ones. Cancelling the
// context aborts the run between (and during) fragment attempts. The
// returned Report lists every attempt and fallback, even when the run fails.
//
// A nil front is a full run. Under a front every fragment is brought up to
// date by the one rule of fragment.run, and publishes its produced cubes'
// movement into the front, so that a successful run leaves it holding the
// delta of every cube that moved and has a base, from that base to the cube
// in the results: a store handed these need not diff the results again. On
// the chase target the results are byte-identical to a full run's; on the
// others a maintained point carries the chase's value, which is that
// target's own wherever its fold order is deterministic and within the
// cross-target tolerance otherwise.
func (d *Dispatcher) RunContext(ctx context.Context, subs []determine.Subgraph, tgds TgdSource,
	schemas map[string]model.Schema, snap map[string]*model.Cube, front *chase.Front) (map[string]*model.Cube, *Report, error) {

	attrs := []obs.Attr{obs.Int("fragments", len(subs))}
	if front != nil {
		attrs = append(attrs, obs.Bool("incremental", true))
	}
	ctx, span := obs.StartSpan(ctx, "dispatch", attrs...)
	out, rep, err := d.runPlan(ctx, subs, tgds, schemas, snap, front)
	span.EndErr(err)
	return out, rep, err
}

// runPlan is RunContext behind the dispatch span.
func (d *Dispatcher) runPlan(ctx context.Context, subs []determine.Subgraph, tgds TgdSource,
	schemas map[string]model.Schema, snap map[string]*model.Cube, front *chase.Front) (map[string]*model.Cube, *Report, error) {

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

	// Wave scheduling: a fragment is ready when every input produced by
	// the plan is already available. A wave of one fragment — every wave
	// of a chain — runs on the calling goroutine, as does every wave of a
	// Serial run; the fragments of a wider wave run concurrently. A failed
	// wave fails the run with the error of its lowest-index failing
	// fragment, whichever fragment finished first.
	produced := make(map[string]int) // cube -> fragment index
	for i, f := range frags {
		for _, c := range f.produces {
			produced[c] = i
		}
	}
	done := make([]bool, len(frags))
	// The fragments of a wave narrow and publish the front concurrently; a
	// consumer is only scheduled after its producer's wave, so it never races
	// a publish of a cube it reads, and the mutex alone is enough.
	var mu sync.Mutex
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
		outs := make([]map[string]*model.Cube, len(wave))
		errs := make([]error, len(wave))
		run := func(w int) {
			i := wave[w]
			outs[w], rep.Fragments[i], errs[w] = d.runFragment(ctx, i, subs[i], frags[i], work, front, &mu)
		}
		if d.Serial || len(wave) == 1 {
			for w := range wave {
				if run(w); errs[w] != nil {
					break
				}
			}
		} else {
			var wg sync.WaitGroup
			for w := range wave {
				wg.Add(1)
				go func() {
					defer wg.Done()
					run(w)
				}()
			}
			wg.Wait()
		}
		for _, err := range errs {
			if err != nil {
				rep.Elapsed = time.Since(start)
				return nil, rep, err
			}
		}
		// Publish the wave's outputs to the shared snapshot: failed attempts
		// never reach this point, so the snapshot only ever sees complete
		// fragment outputs.
		for w, i := range wave {
			for k, v := range outs[w] {
				work[k] = v
				results[k] = v
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
	f *fragment, snap map[string]*model.Cube, front *chase.Front, mu *sync.Mutex) (map[string]*model.Cube, FragmentReport, error) {

	ctx, span := obs.StartSpan(ctx, "fragment",
		obs.Int("index", idx), obs.Strings("cubes", f.produces), obs.String("target", string(f.target)))
	out, fr, err := d.runFragmentAttempts(ctx, idx, sub, f, snap, front, mu)
	if fr.Final != "" {
		span.SetAttr(obs.String("final", string(fr.Final)))
	}
	span.EndErr(err)
	return out, fr, err
}

// runFragmentAttempts is runFragment behind the fragment span.
func (d *Dispatcher) runFragmentAttempts(ctx context.Context, idx int, sub determine.Subgraph,
	f *fragment, snap map[string]*model.Cube, front *chase.Front, mu *sync.Mutex) (map[string]*model.Cube, FragmentReport, error) {

	start := time.Now()
	met := obs.MetricsFrom(ctx)
	fr := FragmentReport{Index: idx, Cubes: append([]string(nil), f.produces...), Primary: f.target}

	targets := []ops.Target{f.target}
	if d.Degrade {
		targets = append(targets, determine.FallbackOrder(sub)...)
	}

	// Each attempt gets its own copy of the front narrowed to the fragment,
	// since a maintaining chase extends it and a failed attempt must leave
	// no trace. Every copy is the same: the fragment's producers finished in
	// earlier waves, and its own outputs are published only once an attempt
	// has succeeded.
	var oc outcome
	runner := Runner(func(ctx context.Context, info Fragment, snap map[string]*model.Cube) (map[string]*model.Cube, error) {
		var af *chase.Front
		if front != nil {
			mu.Lock()
			af = front.Narrow(f.inputs, f.produces)
			mu.Unlock()
		}
		return f.run(ctx, info.Target, snap, af, &oc)
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
			if front != nil {
				mu.Lock()
				f.publish(front, oc.front, out)
				mu.Unlock()
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
			m.Tgds = append(m.Tgds, t) // shared read-only with the program's mapping and every run
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

// previous picks the previous version of every cube the fragment derives out
// of the snapshot, for a full run to build its results on (backend.Run).
func (f *fragment) previous(snap map[string]*model.Cube) map[string]*model.Cube {
	prev := make(map[string]*model.Cube, len(f.m.Derived))
	for _, name := range f.m.Derived {
		prev[name] = snap[name]
	}
	return prev
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
	reason string // under a front, why the attempt was a full run
	// front is the attempt's copy of the front, holding the movement of
	// the cubes it produced; nil without a front.
	front *chase.Front
}

// run brings the fragment up to date over the snapshot, for one attempt
// on target (which differs from the fragment's assigned one when the
// dispatcher degrades). How is read off the attempt's narrowed front af
// alone (fragment.mode): without a front, or with one that has a gap,
// target runs the whole fragment; with nothing moved the previous outputs
// are kept; otherwise the compiled chase maintains the previous outputs
// from the input deltas (chase.Solver.Maintain), deciding tgd by tgd what
// it can maintain, whatever target the fragment is assigned to — a target
// never sees a delta, and only ever executes full runs. Either way the
// movement of the produced cubes is published into af, so the front keeps
// propagating to downstream fragments even across a full recompute. Each
// attempt reads the shared snapshot and returns a fresh output map, so a
// failed attempt leaves no trace.
func (f *fragment) run(ctx context.Context, target ops.Target, snap map[string]*model.Cube,
	af *chase.Front, oc *outcome) (map[string]*model.Cube, error) {

	*oc = outcome{mode: ModeFull, front: af}
	input, err := f.inputsFrom(ctx, target, snap)
	if err != nil {
		return nil, err
	}
	if af != nil {
		oc.mode, oc.reason = f.mode(af)
	}

	start := time.Now()
	var out map[string]*model.Cube
	switch oc.mode {
	case ModeReused:
		out = f.reuse(af)
	case ModeMaintained:
		sol, stats, err := f.chaseSolver().Maintain(ctx, chase.Instance(input), af)
		if err != nil {
			return nil, err
		}
		if stats.Full > 0 {
			oc.mode = ModeFull
			oc.reason = fmt.Sprintf("%d of %d tgds recomputed in full: %s", stats.Full, stats.Strata, stats.FullTgds)
		}
		out = f.keep(sol)
	default:
		if out, err = backend.Run(ctx, target, f.m, input, f.previous(snap)); err != nil {
			return nil, err
		}
		if af != nil {
			for _, name := range f.produces {
				af.Publish(name, out[name], nil)
			}
		}
	}
	recordAttempt(ctx, target, input, out, start)
	sp := obs.CurrentSpan(ctx)
	sp.SetAttr(obs.String("mode", oc.mode))
	if oc.reason != "" {
		sp.SetAttr(obs.String("reason", oc.reason))
	}
	if af == nil {
		return out, nil
	}

	met := obs.MetricsFrom(ctx)
	if oc.mode == ModeFull {
		met.Counter(obs.Label(obs.MetricIncrFellBack, "target", string(target))).Add(1)
		return out, nil
	}
	met.Counter(obs.Label(obs.MetricIncrFragments, "target", string(target))).Add(1)
	var din, full int
	for _, name := range f.inputs {
		if d := af.Deltas[name]; d != nil {
			din += d.Size()
			full += input[name].Len()
		}
	}
	met.Counter(obs.MetricIncrDeltaTuples).Add(int64(din))
	met.Counter(obs.MetricIncrFullTuples).Add(int64(full))
	if sp != nil { // rendering the count allocates
		sp.SetAttr(obs.Int("delta_tuples_in", din))
	}
	return out, nil
}

// mode reads off the fragment's narrowed front how it is brought up to date
// and, when that is a full run, which relation forces it: an input that
// moved without a usable delta, or a relation of the fragment — produced or
// auxiliary (whose contents are stored nowhere) — without a previous
// version.
func (f *fragment) mode(af *chase.Front) (mode, reason string) {
	for _, in := range f.inputs {
		if af.FullOnly[in] {
			return ModeFull, fmt.Sprintf("input %s changed without a usable delta", in)
		}
	}
	if len(af.Deltas) == 0 && f.reuse(af) != nil {
		return ModeReused, ""
	}
	for _, t := range f.m.Tgds {
		if af.Bases[t.Target()] == nil {
			return ModeFull, fmt.Sprintf("no previous version of %s to maintain", t.Target())
		}
	}
	return ModeMaintained, ""
}

// reuse returns the previous outputs verbatim, or nil where some produced
// cube has no base.
func (f *fragment) reuse(af *chase.Front) map[string]*model.Cube {
	out := make(map[string]*model.Cube, len(f.produces))
	for _, name := range f.produces {
		b := af.Bases[name]
		if b == nil {
			return nil
		}
		out[name] = b
	}
	return out
}

// publish publishes into the run's front the movement of the fragment's
// produced cubes, out, as its successful attempt published it into its own
// copy af: the bases are the same, so a cube that did not move there has not.
func (f *fragment) publish(front, af *chase.Front, out map[string]*model.Cube) {
	for _, name := range f.produces {
		if d := af.Deltas[name]; d != nil || af.FullOnly[name] {
			front.Publish(name, out[name], d)
		}
	}
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
