// Package chase implements the data-exchange side of the paper (Section
// 4.2): given the schema mapping generated from an EXL program and a source
// instance, it computes the solution of the data exchange problem with a
// stratified variation of the chase.
//
// The tgds are full (no existential variables) and are applied in statement
// order, completely applying each one before the next, so aggregation and
// black-box dependencies always see fully computed operands. Termination
// follows from the finiteness of the source instance and the acyclicity of
// the program; the functionality egds are enforced during tuple insertion,
// and their violation (impossible for mappings generated from well-formed
// programs, but possible for hand-built ones) fails the chase as in the
// classical setting.
//
// The chase result is the reference against which every other target
// engine (SQL, ETL, frame) is validated.
package chase

import (
	"context"
	"fmt"

	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
)

// Instance maps relation names to cube instances. It plays the role of
// both the source instance I and the target instance J.
type Instance map[string]*model.Cube

// Stats reports what a chase did. Under a front it also says how each tgd
// was brought up to date.
type Stats struct {
	Strata          int // tgds applied (one stratum each)
	TuplesGenerated int // tuples inserted into the target instance, by copies and full applications
	Bindings        int // lhs bindings enumerated across all tgds: where a measure was evaluated

	Skipped        int    // outputs reused untouched (no input moved)
	Incremental    int    // tgds maintained from input deltas
	Full           int    // tgds recomputed from scratch
	FullTgds       string // each tgd recomputed from scratch, "cube (kind)", comma-separated in stratification order
	KeysRecomputed int    // output points recomputed by maintained tgds
}

// Solver chases a fixed mapping over varying source instances. Building it
// compiles every tgd into a plan once (compile.go); Maintain, and Solve and
// SolveContext through it, run those plans, from any number of goroutines.
type Solver struct {
	m     *mapping.Mapping
	plans []*plan // one per m.Tgds entry
}

// New returns a Solver for the mapping. A tgd that cannot be evaluated does
// not fail New: it fails the chase that applies it.
func New(m *mapping.Mapping) *Solver {
	s := &Solver{m: m, plans: make([]*plan, len(m.Tgds))}
	for i, t := range m.Tgds {
		s.plans[i] = compileTgd(t)
	}
	return s
}

// Solve computes the solution J of the data exchange problem for source
// instance I. Relations missing from the source are treated as empty. The
// returned instance contains the copied elementary relations, every derived
// relation and any auxiliary relations of a normalized (unfused) mapping.
func (s *Solver) Solve(source Instance) (Instance, error) {
	return s.SolveContext(context.Background(), source)
}

// SolveContext is Solve under a context: cancellation aborts the chase
// between strata and, inside one, every few thousand tuples; a tracer
// carried by the context records one span per tgd stratum (with binding
// and tuple counts).
func (s *Solver) SolveContext(ctx context.Context, source Instance) (Instance, error) {
	target, _, err := s.Maintain(ctx, source, nil)
	return target, err
}

// elementary returns the target twin of an elementary relation (Σst). A
// frozen source cube is its own twin: nothing in the chase mutates a
// relation it reads. An unfrozen one is still its caller's to mutate, so
// the solution gets a snapshot; a missing one is empty.
func (s *Solver) elementary(source Instance, name string) *model.Cube {
	if c, ok := source[name]; ok {
		return c.Snapshot()
	}
	return model.NewCube(s.m.Schemas[name]).Freeze()
}

// Maintain computes the solution over source, applying the tgds in
// stratification order (Σt) and bringing each output up to date from what
// front knows of how the world moved since its base was computed. A nil
// front knows nothing: every tgd applies in full, and that is the chase of
// Solve. Under a front a tgd none of whose inputs moved reuses its base; a
// tgd whose inputs have deltas recomputes only the output points those
// deltas can reach, retracting points whose support vanished; anything else
// is recomputed in full (maintainTgd). Every output's movement is published
// into front (Front.Publish), so a small elementary churn stays small
// through the whole tgd graph, and front ends holding each relation that
// moved.
//
// The contract is byte-identical output: for every relation, the returned
// instance equals what Solve would produce on the same source, exactly (not
// merely within tolerance). Maintained points are recomputed with the same
// evaluation code and fold order as the full chase, and the others are
// provably untouched by the deltas, so reusing their previous values is
// exact.
func (s *Solver) Maintain(ctx context.Context, source Instance, front *Front) (Instance, *Stats, error) {
	stats := &Stats{}
	target := make(Instance, len(s.m.Schemas))
	for _, name := range s.m.Elementary {
		target[name] = s.elementary(source, name)
		stats.TuplesGenerated += target[name].Len()
	}
	spanName, how := "chase.tgd", ""
	if front != nil {
		spanName, how = "chase.tgd.incr", " incrementally"
		for name, d := range front.Deltas {
			if d == nil || d.Empty() { // no movement
				delete(front.Deltas, name)
			}
		}
	}
	for _, p := range s.plans {
		t := p.t
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		tctx, span := obs.StartSpan(ctx, spanName,
			obs.String("id", t.ID), obs.String("cube", t.Target()), obs.String("kind", t.Kind.String()))
		b0, g0 := stats.Bindings, stats.TuplesGenerated
		var mode string
		var err error
		if front == nil {
			err = s.applyTgd(tctx, p, target, stats)
		} else {
			mode, err = s.maintainTgd(tctx, p, target, front, stats)
		}
		if span != nil { // rendering the counts allocates
			if front == nil {
				span.SetAttr(obs.Int("bindings", stats.Bindings-b0), obs.Int("tuples", stats.TuplesGenerated-g0))
			} else {
				span.SetAttr(obs.String("mode", mode), obs.Int("bindings", stats.Bindings-b0))
			}
		}
		span.EndErr(err)
		if err != nil {
			return nil, nil, fmt.Errorf("chase: applying %s (%s)%s: %w", t.ID, t.Target(), how, err)
		}
		stats.Strata++
	}
	return target, stats, nil
}

// applyTgd applies one tgd in full: its output relation is rebuilt, from
// empty, from its operands as they stand in target.
func (s *Solver) applyTgd(ctx context.Context, p *plan, target Instance, stats *Stats) error {
	if p.err != nil {
		return p.err
	}
	out, err := s.output(ctx, p, target, stats)
	if err == nil {
		target[p.t.Target()] = out
	}
	return err
}

// output computes the tgd's output relation.
func (s *Solver) output(ctx context.Context, p *plan, target Instance, stats *Stats) (*model.Cube, error) {
	schema := s.m.Schemas[p.t.Target()]
	switch p.t.Kind {
	case mapping.BlackBox:
		return applyBlackBox(p, target, schema, stats)
	case mapping.PadVector:
		return applyPadVector(p, target, schema, stats)
	}
	x, err := newExec(ctx, p, p.lhs, target)
	if err != nil {
		return nil, err
	}
	if p.t.Kind == mapping.TupleLevel {
		out, n, err := x.tupleLevel(schema)
		stats.Bindings += x.bindings
		stats.TuplesGenerated += n
		return out, err
	}
	part, err := x.partition()
	if err != nil {
		return nil, err
	}
	groups, err := x.aggregate(part, nil)
	stats.Bindings += x.bindings
	if err != nil {
		return nil, err
	}
	out := model.NewBuilder(schema)
	for _, g := range groups { // first seen in cube order: the builder sorts what that leaves unsorted
		if g.acc.N() == 0 {
			continue
		}
		if err := out.Add(g.dims, g.acc.Result(p.fold)); err != nil {
			return nil, err
		}
		stats.TuplesGenerated++
	}
	return out.Build()
}

// applyBlackBox applies a black-box tgd through ops.SeriesCube: the
// operand's series goes through the function whole, and the output sits on the
// operand's periods one for one — on its key set.
func applyBlackBox(p *plan, target Instance, schema model.Schema, stats *Stats) (*model.Cube, error) {
	t := p.t
	in, ok := target[t.Lhs[0].Rel]
	if !ok {
		return nil, fmt.Errorf("operand %s not computed before black box", t.Lhs[0].Rel)
	}
	out, err := ops.SeriesCube(t.BB, p.series, in, schema, t.BBParams)
	if err != nil {
		return nil, err
	}
	stats.Bindings += in.Len()
	stats.TuplesGenerated += in.Len()
	return out, nil
}

// padOperands resolves the two operands of a padded vectorial tgd.
func padOperands(t *mapping.Tgd, target Instance) (rels [2]*model.Cube, err error) {
	for ai := range rels {
		rel, ok := target[t.Lhs[ai].Rel]
		if !ok {
			return rels, fmt.Errorf("relation %s not available", t.Lhs[ai].Rel)
		}
		rels[ai] = rel
	}
	return rels, nil
}

// padPoint evaluates a padded vectorial tgd at one output dimension
// tuple: each operand is probed at the tuple rearranged into its own
// dimension order (probe[a] is the buffer for that), a missing operand
// measure is the default, and the point is absent when both are missing or
// the operator is undefined there.
func padPoint(p *plan, rels [2]*model.Cube, probe [2][]model.Value, dims []model.Value) (float64, bool) {
	var vals [2]float64
	var present [2]bool
	for ai := range rels {
		for j, i := range p.pad.order[ai] {
			probe[ai][j] = dims[i]
		}
		vals[ai], present[ai] = rels[ai].Get(probe[ai])
		if !present[ai] {
			vals[ai] = p.t.PadDefault
		}
	}
	if !present[0] && !present[1] {
		return 0, false
	}
	v, ok := p.pad.op.At(vals[0], vals[1])
	return v, ok
}

// applyPadVector applies a padded vectorial tgd: the result is defined on
// the union of the operands' dimension tuples, with the default value
// standing in for a missing operand measure. Every tuple of the first
// operand names an output point, then every tuple of the second that the
// first does not have.
func applyPadVector(p *plan, target Instance, schema model.Schema, stats *Stats) (*model.Cube, error) {
	rels, err := padOperands(p.t, target)
	if err != nil {
		return nil, err
	}
	out := model.NewBuilder(schema)
	n := len(p.t.Rhs.Dims)
	probe := [2][]model.Value{make([]model.Value, n), make([]model.Value, n)}
	dims := make([]model.Value, n)
	for ai := range rels {
		err := rels[ai].Ordered(func(tu model.Tuple) error {
			for j, i := range p.pad.order[ai] {
				dims[i] = tu.Dims[j]
			}
			if ai == 1 {
				for j, i := range p.pad.order[0] {
					probe[0][j] = dims[i]
				}
				if _, ok := rels[0].Get(probe[0]); ok {
					return nil // the first operand's scan made this point
				}
			}
			stats.Bindings++
			v, present := padPoint(p, rels, probe, dims)
			if !present {
				return nil
			}
			stats.TuplesGenerated++
			return out.Add(dims, v)
		})
		if err != nil {
			return nil, err
		}
	}
	return out.Build()
}
