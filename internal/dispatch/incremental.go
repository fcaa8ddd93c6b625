// Incremental dispatch: under an IncrPlan a fragment is brought up to
// date from the deltas of its inputs instead of from scratch. One rule
// decides how, from the fragment's view of the delta front alone
// (fragment.run): nothing it reads moved — its previous outputs are
// reused; every input that moved has a delta and every relation of the
// fragment has a previous version — the compiled chase applies the
// deltas (chase.SolveIncremental), whatever target the fragment is
// assigned to; anything else — the assigned target runs the fragment in
// full, recorded as FellBackFull with the relation at fault. A target
// therefore only ever executes full runs. Either way the movement of
// the fragment's produced cubes is published, so the delta front keeps
// propagating to downstream fragments even across a full recompute.
package dispatch

import (
	"context"
	"fmt"
	"sync"

	"exlengine/internal/determine"
	"exlengine/internal/model"
	"exlengine/internal/obs"
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

// RunContextIncr is RunContext under an incremental plan: every fragment
// is brought up to date by the one rule of fragment.run. On the chase
// target the results are byte-identical to RunContext; on the others a
// maintained point carries the chase's value, which is that target's
// own wherever its fold order is deterministic and within the
// cross-target tolerance otherwise. A nil plan is a full run.
func (d *Dispatcher) RunContextIncr(ctx context.Context, subs []determine.Subgraph, tgds TgdSource,
	schemas map[string]model.Schema, snap map[string]*model.Cube, plan *IncrPlan) (map[string]*model.Cube, *Report, error) {

	attrs := []obs.Attr{obs.Int("fragments", len(subs))}
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

// mode reads off the view how the fragment is brought up to date and,
// when that is a full run, which relation forces it: an input that
// changed without a delta, or a relation of the fragment — produced or
// auxiliary (whose contents are stored nowhere) — without a previous
// version.
func (v *fragView) mode(f *fragment) (mode, reason string) {
	for _, in := range f.inputs {
		if v.fullOnly[in] {
			return ModeFull, fmt.Sprintf("input %s changed without a usable delta", in)
		}
	}
	if len(v.deltas) == 0 {
		if _, ok := v.reuse(f); ok {
			return ModeReused, ""
		}
	}
	for _, t := range f.m.Tgds {
		if v.bases[t.Target()] == nil {
			return ModeFull, fmt.Sprintf("no previous version of %s to maintain", t.Target())
		}
	}
	return ModeMaintained, ""
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
