// Incremental dispatch: fragments are executed against the deltas of
// their inputs instead of from scratch. The chase maintains its output
// per affected point (chase.SolveIncremental); the SQL engine runs
// INSERT-delta scripts when the fragment's mapping is monotone over the
// changed relations (sqlgen.TranslateDelta); every other target — and
// every non-maintainable shape — recomputes in full, which is recorded
// as FellBackFull in the fragment report. Either way the fragment's
// produced cubes are diffed against their previous versions, so the
// delta front keeps propagating to downstream fragments even across a
// full recompute.
package dispatch

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"exlengine/internal/chase"
	"exlengine/internal/determine"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
	"exlengine/internal/sqlengine"
	"exlengine/internal/sqlgen"
)

// IncrPlan seeds an incremental dispatch run with what is known about
// how the inputs moved since the previous run.
type IncrPlan struct {
	// Deltas maps changed relations to their tuple-level deltas.
	// Relations absent from Deltas and FullOnly are unchanged.
	Deltas map[string]*model.CubeDelta
	// FullOnly marks relations known to have changed without a usable
	// delta; fragments reading one recompute in full.
	FullOnly map[string]bool
	// Bases holds the previous output version of every derived cube the
	// plan produces. A fragment whose produced cube has no base here is
	// recomputed in full and marked FullOnly for its consumers.
	Bases map[string]*model.Cube

	// Front is set by a successful RunContextIncr: the delta front as the
	// run left it, Deltas plus the delta of every produced cube that moved
	// and has a base, each from its base to the cube in the results. A
	// store that is handed these need not diff the results again.
	Front map[string]*model.CubeDelta
}

// RunContextIncr is RunContext under an incremental plan: fragments
// consume the input deltas, reuse or maintain their previous outputs
// where the mapping shape permits, and fall back to full recomputation
// where it does not — the results are byte-identical to RunContext
// either way. A nil plan is a full run.
func (d *Dispatcher) RunContextIncr(ctx context.Context, subs []determine.Subgraph, tgds TgdSource,
	schemas map[string]model.Schema, snap map[string]*model.Cube, plan *IncrPlan) (map[string]*model.Cube, *Report, error) {

	attrs := []obs.Attr{obs.Int("fragments", len(subs)), obs.Bool("parallel", d.Parallel)}
	var incr *incrState
	if plan != nil {
		attrs = append(attrs, obs.Bool("incremental", true))
		incr = newIncrState(plan)
	}
	ctx, span := obs.StartSpan(ctx, "dispatch", attrs...)
	out, rep, err := d.runPlan(ctx, subs, tgds, schemas, snap, incr)
	if incr != nil && err == nil {
		plan.Front = incr.deltas
	}
	span.EndErr(err)
	return out, rep, err
}

// incrState is the delta front shared by the fragments of one run:
// input deltas seed it, and every completed fragment publishes its
// output deltas for the fragments downstream. Fragments of one wave
// read it concurrently while never racing a publish for a cube they
// consume (a consumer is only scheduled after its producer's wave), so
// the mutex alone is enough.
type incrState struct {
	mu       sync.Mutex
	deltas   map[string]*model.CubeDelta
	fullOnly map[string]bool
	bases    map[string]*model.Cube
}

func newIncrState(p *IncrPlan) *incrState {
	s := &incrState{
		deltas:   make(map[string]*model.CubeDelta),
		fullOnly: make(map[string]bool),
		bases:    make(map[string]*model.Cube),
	}
	for name, d := range p.Deltas {
		if d != nil && !d.Empty() {
			s.deltas[name] = d
		}
	}
	for name, v := range p.FullOnly {
		if v {
			s.fullOnly[name] = true
		}
	}
	for name, c := range p.Bases {
		if c != nil {
			s.bases[name] = c
		}
	}
	return s
}

// fragView is one fragment's consistent view of the delta front.
type fragView struct {
	deltas   map[string]*model.CubeDelta // changed fragment inputs
	fullOnly map[string]bool             // fragment inputs changed without a delta
	bases    map[string]*model.Cube      // previous outputs of the fragment's produces
}

func (s *incrState) view(f *fragment) *fragView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := &fragView{
		deltas:   make(map[string]*model.CubeDelta),
		fullOnly: make(map[string]bool),
		bases:    make(map[string]*model.Cube),
	}
	for _, in := range f.inputs {
		if s.fullOnly[in] {
			v.fullOnly[in] = true
		} else if d := s.deltas[in]; d != nil {
			v.deltas[in] = d
		}
	}
	for _, name := range f.produces {
		if b := s.bases[name]; b != nil {
			v.bases[name] = b
		}
	}
	return v
}

// reuse returns the previous outputs verbatim, possible only when every
// produced cube has a base.
func (v *fragView) reuse(f *fragment) (map[string]*model.Cube, bool) {
	out := make(map[string]*model.Cube, len(f.produces))
	for _, name := range f.produces {
		b := v.bases[name]
		if b == nil {
			return nil, false
		}
		out[name] = b
	}
	return out, true
}

// publish records the movement of a completed fragment's outputs.
// outDeltas carries exact deltas when the target derived them (absent
// entry: unchanged); nil means "not derived", and the outputs are
// diffed against their bases here. A produced cube without a base
// becomes FullOnly for its consumers.
func (s *incrState) publish(f *fragment, out map[string]*model.Cube, outDeltas map[string]*model.CubeDelta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range f.produces {
		cur := out[name]
		base := s.bases[name]
		if cur == nil || base == nil {
			s.fullOnly[name] = true
			continue
		}
		if cur == base { // reused untouched
			continue
		}
		var d *model.CubeDelta
		if outDeltas != nil {
			d = outDeltas[name]
		} else {
			d = model.DiffCubes(name, base, cur)
		}
		if d != nil && !d.Empty() {
			s.deltas[name] = d
		}
	}
}

// incrOutcome captures how the last attempt of a fragment ran; the
// successful attempt's value lands in the fragment report.
type incrOutcome struct {
	incremental bool
	fellBack    bool
	reason      string
	outDeltas   map[string]*model.CubeDelta
}

// runOnIncr is runOn under an incremental plan: it executes the
// fragment against its delta view and publishes the movement of its
// outputs for downstream fragments.
func (f *fragment) runOnIncr(ctx context.Context, target ops.Target, snap map[string]*model.Cube,
	st *incrState, oc *incrOutcome) (map[string]*model.Cube, error) {

	*oc = incrOutcome{}
	input, err := f.inputsFrom(ctx, target, snap)
	if err != nil {
		return nil, err
	}
	v := st.view(f)

	start := time.Now()
	out, err := f.execOnIncr(ctx, target, input, v, oc)
	if err != nil {
		return nil, err
	}
	st.publish(f, out, oc.outDeltas)
	recordAttempt(ctx, target, input, out, start)

	met := obs.MetricsFrom(ctx)
	if oc.fellBack {
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
	if sp := obs.CurrentSpan(ctx); sp != nil {
		sp.SetAttr(obs.Int("delta_tuples_in", din))
	}
	return out, nil
}

// execOnIncr executes the fragment incrementally on one target, falling
// back to the target's full execution path when the shape cannot be
// maintained.
func (f *fragment) execOnIncr(ctx context.Context, target ops.Target, input map[string]*model.Cube,
	v *fragView, oc *incrOutcome) (map[string]*model.Cube, error) {

	// Nothing this fragment reads moved and every output has a previous
	// version: reuse them without running any target at all.
	if len(v.deltas) == 0 && len(v.fullOnly) == 0 {
		if out, ok := v.reuse(f); ok {
			oc.incremental = true
			oc.outDeltas = map[string]*model.CubeDelta{}
			return out, nil
		}
	}

	switch target {
	case ops.TargetChase:
		din := &chase.DeltaInput{Deltas: v.deltas, FullOnly: v.fullOnly, BaseOut: v.bases}
		sol, od, stats, err := f.chaseSolver().SolveIncremental(ctx, chase.Instance(input), din)
		if err != nil {
			return nil, err
		}
		if stats.Full > 0 {
			oc.fellBack = true
			oc.reason = fmt.Sprintf("%d of %d tgds recomputed in full", stats.Full, stats.Tgds)
		} else {
			oc.incremental = true
		}
		oc.outDeltas = od
		return f.keep(sol), nil

	case ops.TargetSQL:
		out, od, declined, err := f.execSQLIncr(ctx, input, v)
		if err != nil {
			return nil, err
		}
		if declined == "" {
			oc.incremental = true
			oc.outDeltas = od
			return out, nil
		}
		oc.fellBack = true
		oc.reason = declined
		return f.execOn(ctx, target, input)

	default:
		// Frame and ETL evaluate whole relations; there is no delta entry
		// point. Their outputs are still diffed at publish, so downstream
		// fragments stay incremental.
		oc.fellBack = true
		oc.reason = fmt.Sprintf("target %s cannot maintain deltas", target)
		return f.execOn(ctx, target, input)
	}
}

// execSQLIncr maintains the fragment with an INSERT-delta SQL script.
// A non-empty declined says which shape disqualifies it, and nothing
// was run: an input changed without a delta, a delta that is not
// insert-only, a produced cube without a base, an auxiliary relation
// (their previous contents are not stored anywhere), or a non-monotone
// mapping.
func (f *fragment) execSQLIncr(ctx context.Context, input map[string]*model.Cube,
	v *fragView) (out map[string]*model.Cube, outDeltas map[string]*model.CubeDelta, declined string, err error) {

	changed := make(map[string]bool, len(v.deltas))
	for _, in := range f.inputs {
		if v.fullOnly[in] {
			return nil, nil, fmt.Sprintf("input %s changed without a usable delta", in), nil
		}
		if d := v.deltas[in]; d != nil {
			if !d.PureInsert() {
				return nil, nil, fmt.Sprintf("delta of %s is not insert-only (%d changed, %d deleted)",
					in, len(d.Changed), len(d.Deleted)), nil
			}
			changed[in] = true
		}
	}
	produced := make(map[string]bool, len(f.produces))
	for _, name := range f.produces {
		if v.bases[name] == nil {
			return nil, nil, fmt.Sprintf("no previous version of %s to maintain", name), nil
		}
		produced[name] = true
	}
	for _, t := range f.m.Tgds {
		if !produced[t.Target()] {
			return nil, nil, fmt.Sprintf("auxiliary relation %s has no stored previous version", t.Target()), nil
		}
	}

	script, affected, err := sqlgen.TranslateDelta(f.m, changed)
	if err != nil {
		// Non-monotone (or otherwise untranslatable): full refresh.
		return nil, nil, err.Error(), nil
	}

	db := sqlengine.NewDB()
	for _, in := range f.inputs {
		if err := db.LoadCube(input[in]); err != nil {
			return nil, nil, "", err
		}
	}
	for _, name := range f.produces {
		if err := db.LoadCube(v.bases[name]); err != nil {
			return nil, nil, "", err
		}
	}
	for _, name := range sortedNames(changed) {
		dc, err := sqlgen.DeltaCube(f.m.Schemas[name], v.deltas[name])
		if err != nil {
			return nil, nil, "", err
		}
		if err := db.LoadCube(dc); err != nil {
			return nil, nil, "", err
		}
	}
	if err := sqlgen.ExecuteContext(ctx, script, db); err != nil {
		return nil, nil, "", err
	}

	affectedSet := make(map[string]bool, len(affected))
	for _, name := range affected {
		affectedSet[name] = true
	}
	out = make(map[string]*model.Cube, len(f.produces))
	outDeltas = make(map[string]*model.CubeDelta, len(affected))
	for _, name := range f.produces {
		if !affectedSet[name] {
			out[name] = v.bases[name]
			continue
		}
		cur, err := db.ExtractCube(f.m.Schemas[name])
		if err != nil {
			return nil, nil, "", err
		}
		out[name] = cur
		// The delta side table holds the inserted bindings; rows whose key
		// already existed carry the same value (the chase's egd) and are
		// not additions.
		sch := f.m.Schemas[name]
		sch.Name = sqlgen.DeltaTable(name)
		dcube, err := db.ExtractCube(sch)
		if err != nil {
			return nil, nil, "", err
		}
		base := v.bases[name]
		od := &model.CubeDelta{Name: name, Base: base, Current: cur}
		_ = dcube.Ordered(func(tu model.Tuple) error {
			if _, had := base.Get(tu.Dims); !had {
				od.Added = append(od.Added, tu)
			}
			return nil
		})
		outDeltas[name] = od
	}
	return out, outDeltas, "", nil
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
