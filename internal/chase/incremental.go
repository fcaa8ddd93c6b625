package chase

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/obs"
)

// DeltaInput carries what an incremental chase knows about how the world
// moved since the outputs in BaseOut were computed.
type DeltaInput struct {
	// Deltas maps changed source relations to their tuple-level deltas.
	// Relations absent from Deltas are unchanged. An empty delta is treated
	// as unchanged.
	Deltas map[string]*model.CubeDelta
	// BaseOut holds the previous run's output cubes (derived and
	// auxiliary relations), keyed by name. A tgd with no base output
	// cannot be maintained and is recomputed in full.
	BaseOut map[string]*model.Cube
}

// IncrStats reports what an incremental chase did, tgd by tgd.
type IncrStats struct {
	Tgds        int // tgds considered
	Skipped     int // outputs reused untouched (no input changed)
	Incremental int // tgds maintained from input deltas
	Full        int // tgds recomputed from scratch
	// FullTgds names each tgd recomputed from scratch, "cube (kind)", in
	// stratification order.
	FullTgds []string

	Bindings       int // lhs bindings enumerated, all tgds: where a measure was evaluated
	DeltaTuplesIn  int // input delta tuples consumed by incremental tgds
	KeysRecomputed int // output points recomputed by incremental tgds
	OutputChanges  int // output tuples that actually changed, all tgds
}

// SolveIncremental computes the same solution as Solve over the current
// source instance, but semi-naively: a tgd none of whose inputs changed
// reuses its previous output; a tgd with known input deltas recomputes
// only the output points those deltas can affect, retracting points
// whose support vanished; everything else falls back to a full per-tgd
// recompute. Output deltas propagate down the stratification order, so
// a small elementary churn stays small through the whole tgd graph.
//
// The contract is byte-identical output: for every relation, the
// returned instance equals what Solve would produce on the same source,
// exactly (not merely within tolerance). Affected points are recomputed
// with the same evaluation code and fold order as the full chase, and
// unaffected points are provably untouched by the delta, so reusing
// their previous values is exact.
//
// The second return value maps every relation that changed — inputs as
// given, outputs as derived — to its delta; relations absent from it are
// unchanged (except outputs recomputed with no base to diff against, whose
// movement is unknown). Callers chaining solvers feed these to the next stage.
func (s *Solver) SolveIncremental(ctx context.Context, source Instance, in *DeltaInput) (Instance, map[string]*model.CubeDelta, *IncrStats, error) {
	stats := &IncrStats{}
	chaseStats := &Stats{}
	target := make(Instance, len(s.m.Schemas))
	deltas := make(map[string]*model.CubeDelta, len(in.Deltas))
	for name, d := range in.Deltas {
		if d != nil && !d.Empty() {
			deltas[name] = d
		}
	}
	// fullOnly marks the outputs recomputed with no base to diff against:
	// every tgd consuming one is recomputed in full.
	fullOnly := make(map[string]bool)

	for _, name := range s.m.Elementary {
		target[name] = s.elementary(source, name)
	}

	for _, p := range s.plans {
		t := p.t
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		stats.Tgds++
		outName := t.Target()
		baseOut := in.BaseOut[outName]

		changed, unknown := false, false
		for _, a := range t.Lhs {
			if fullOnly[a.Rel] {
				unknown = true
			} else if d := deltas[a.Rel]; d != nil {
				changed = true
			}
		}

		tctx, span := obs.StartSpan(ctx, "chase.tgd.incr",
			obs.String("id", t.ID), obs.String("cube", outName), obs.String("kind", t.Kind.String()))

		b0 := stats.Bindings + chaseStats.Bindings
		mode, err := s.applyTgdIncr(tctx, p, target, deltas, baseOut, changed, unknown, stats, chaseStats)
		span.SetAttr(obs.String("mode", mode))
		if span != nil { // rendering the count allocates
			span.SetAttr(obs.Int("bindings", stats.Bindings+chaseStats.Bindings-b0))
		}
		span.EndErr(err)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("chase: applying %s (%s) incrementally: %w", t.ID, outName, err)
		}
		switch mode {
		case "skip":
			stats.Skipped++
		case "incremental":
			stats.Incremental++
		default:
			stats.Full++
			stats.FullTgds = append(stats.FullTgds, fmt.Sprintf("%s (%s)", outName, t.Kind))
			if mode == "full-unknown" {
				fullOnly[outName] = true
			}
		}
		if d := deltas[outName]; d != nil {
			stats.OutputChanges += d.Size()
		}
	}
	stats.Bindings += chaseStats.Bindings
	return target, deltas, stats, nil
}

// applyTgdIncr applies one tgd choosing among skip / incremental / full,
// records the tgd's output in target, and — when derivable — its output
// delta in deltas so downstream tgds can stay incremental. The returned
// mode is "skip", "incremental", "full", "full-unchanged" (recomputed,
// but inputs unchanged so the output provably equals the previous run's)
// or "full-unknown" (recomputed with no base to diff against).
func (s *Solver) applyTgdIncr(ctx context.Context, p *plan, target Instance, deltas map[string]*model.CubeDelta, baseOut *model.Cube, changed, unknown bool, stats *IncrStats, chaseStats *Stats) (string, error) {
	outName := p.t.Target()

	// Nothing this tgd reads moved: its output is exactly the previous
	// one. With no previous output to reuse (first run for this cube) it
	// must still be computed, but the result is known-unchanged.
	if !changed && !unknown {
		if baseOut != nil {
			target[outName] = baseOut
			return "skip", nil
		}
		if err := s.applyTgd(ctx, p, target, chaseStats); err != nil {
			return "", err
		}
		return "full-unchanged", nil
	}

	full := func() (string, error) {
		if err := s.applyTgd(ctx, p, target, chaseStats); err != nil {
			return "", err
		}
		if baseOut == nil {
			return "full-unknown", nil
		}
		d := model.DiffCubes(outName, baseOut, target[outName])
		if !d.Empty() {
			deltas[outName] = d
		}
		return "full", nil
	}

	if unknown || baseOut == nil || p.err != nil {
		return full()
	}

	var (
		out *model.Cube
		od  *model.CubeDelta
		ok  bool
		err error
	)
	switch p.t.Kind {
	case mapping.TupleLevel:
		out, od, ok, err = incrTupleLevel(ctx, p, target, deltas, baseOut, stats)
	case mapping.Aggregation:
		out, od, ok, err = incrAggregation(ctx, p, target, deltas, baseOut, stats)
	case mapping.PadVector:
		out, od, ok, err = incrPadVector(p, target, deltas, baseOut, stats)
	default:
		// Black boxes consume a whole series; there is no smaller unit
		// of recomputation. Recomputing in full still yields an exact
		// output delta for downstream tgds via the diff above.
		ok = false
	}
	if err != nil {
		return "", err
	}
	if !ok {
		return full()
	}
	target[outName] = out
	if !od.Empty() {
		deltas[outName] = od
	}
	return "incremental", nil
}

// affectedKeys accumulates the distinct output dimension tuples an input
// delta can influence.
type affectedKeys struct {
	dims map[string][]model.Value
}

func newAffectedKeys() *affectedKeys { return &affectedKeys{dims: make(map[string][]model.Value)} }

func (a *affectedKeys) add(dims []model.Value) {
	k := model.EncodeKey(dims)
	if _, ok := a.dims[k]; !ok {
		a.dims[k] = append([]model.Value(nil), dims...)
	}
}

// sortedKeys returns the keys of a map keyed by row key in cube order, which
// is their byte order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// maintain brings the tgd's output up to date from its previous version by
// recomputing exactly the affected points: recompute returns the current value
// (or absent) of the point with the row key and dimension tuple, and probing
// the previous version for the old one says whether the point was added,
// changed, deleted or left alone.
// The delta that collects is what actually changed, and the new version is
// the previous one with it applied (model.Cube.Apply).
func maintain(name string, baseOut *model.Cube, affected *affectedKeys, stats *IncrStats, recompute func(key string, dims []model.Value) (float64, bool, error)) (*model.Cube, *model.CubeDelta, error) {
	od := &model.CubeDelta{Name: name, Base: baseOut}
	for _, k := range sortedKeys(affected.dims) {
		dims := affected.dims[k]
		stats.KeysRecomputed++
		mv, present, err := recompute(k, dims)
		if err != nil {
			return nil, nil, err
		}
		old, had := baseOut.Get(dims)
		switch {
		case present && !had:
			od.Added = append(od.Added, model.Tuple{Dims: dims, Measure: mv})
		case present && had && mv != old:
			od.Changed = append(od.Changed, model.Tuple{Dims: dims, Measure: mv})
		case !present && had:
			od.Deleted = append(od.Deleted, model.Tuple{Dims: dims, Measure: old})
		}
	}
	var err error
	if od.Current, err = baseOut.Apply(od.Added, od.Changed, od.Deleted); err != nil {
		return nil, nil, err
	}
	return od.Current, od, nil
}

// deltaTuples streams every tuple of the delta (added and changed as
// they are now, deleted as they were) into fn.
func deltaTuples(d *model.CubeDelta, fn func(model.Tuple) error) error {
	for _, t := range d.Added {
		if err := fn(t); err != nil {
			return err
		}
	}
	for _, t := range d.Changed {
		if err := fn(t); err != nil {
			return err
		}
	}
	for _, t := range d.Deleted {
		if err := fn(t); err != nil {
			return err
		}
	}
	return nil
}

// affectedBy inverts atom a (one of x.p.alone) over the tuples of its
// relation's delta and adds the output points those bindings name.
func (x *exec) affectedBy(a *atomPlan, d *model.CubeDelta, affected *affectedKeys, stats *IncrStats) error {
	return deltaTuples(d, func(tu model.Tuple) error {
		stats.DeltaTuplesIn++
		if ok, err := x.bind(a, tu, true); err != nil || !ok {
			return err
		}
		if err := x.rhsDims(); err != nil {
			return err
		}
		affected.add(x.out)
		return nil
	})
}

// incrTupleLevel maintains a tuple-level tgd per output point. It applies
// when the plan has a keyed form (the binding is determined by the output
// key), so each output point has at most one binding — recovered by
// inverting the key — and recomputing a point is a constant number of hash
// probes. Affected points are found by inverting each changed atom over
// its delta tuples, which requires the changed atoms to bind the full key
// themselves.
func incrTupleLevel(ctx context.Context, p *plan, target Instance, deltas map[string]*model.CubeDelta, baseOut *model.Cube, stats *IncrStats) (*model.Cube, *model.CubeDelta, bool, error) {
	k := p.keyed
	if k == nil {
		return nil, nil, false, nil
	}
	for ai := range p.alone {
		if deltas[p.alone[ai].rel] != nil && !k.determines[ai] {
			return nil, nil, false, nil // changed atom does not determine the key
		}
	}
	x, err := newExec(ctx, p, k.atoms, target)
	if err != nil {
		return nil, nil, false, err
	}
	if p.aligned {
		if out, od, ok, err := x.incrColumns(deltas, baseOut, stats); ok || err != nil {
			return out, od, ok, err
		}
	}
	obs.CurrentSpan(ctx).SetAttr(obs.String("eval", "row"))
	affected := newAffectedKeys()
	for ai := range p.alone {
		a := &p.alone[ai]
		if d := deltas[a.rel]; d != nil {
			if err := x.affectedBy(a, d, affected, stats); err != nil {
				return nil, nil, false, err
			}
		}
	}

	recompute := func(_ string, dims []model.Value) (float64, bool, error) {
		// Invert the key into a binding, probe every atom for its unique
		// witness (a vanished one retracts the point) and re-evaluate the
		// measure: the full chase's join and arithmetic, entered at the key.
		if ok, err := x.bind(&k.rhs, model.Tuple{Dims: dims}, true); err != nil || !ok {
			return 0, false, err
		}
		return x.measureOnce(0)
	}
	out, od, err := maintain(p.t.Target(), baseOut, affected, stats, recompute)
	stats.Bindings += x.bindings
	if err != nil {
		return nil, nil, false, err
	}
	return out, od, true, nil
}

// incrColumns maintains a tgd of the column path by row, where every operand
// stands on the previous output's key set and every delta only restates
// measures: a delta tuple names the output point at its own dimension tuple,
// hence at its row of that key set. The affected rows, in cube order, are
// gathered from the operands' measure columns, recomputed by the full run's
// program, and scattered into a copy of the previous output's column — a
// version on its key set, as Apply of the changed points makes it. ok is false,
// with nothing counted, where the path does not apply or a recomputed point is
// undefined (its retraction is the keyed path's).
func (x *exec) incrColumns(deltas map[string]*model.CubeDelta, baseOut *model.Cube, stats *IncrStats) (*model.Cube, *model.CubeDelta, bool, error) {
	p, base := x.p, baseOut.View()
	cols := make([][]float64, len(p.lhs))
	for i := range p.lhs {
		rel := x.rels[i]
		if d := deltas[p.lhs[i].rel]; !rel.SharesKeySet(baseOut) || d != nil && len(d.Added)+len(d.Deleted) > 0 {
			return nil, nil, false, nil
		}
		cols[i] = rel.View().Measures()
	}
	var rows []int
	in := 0
	for i := range p.lhs {
		d := deltas[p.lhs[i].rel]
		if d == nil {
			continue
		}
		for _, tu := range d.Changed {
			if err := x.visit(); err != nil {
				return nil, nil, false, err
			}
			r, ok := base.Row(tu.Dims)
			if !ok {
				return nil, nil, false, nil
			}
			rows = append(rows, r)
		}
		in += len(d.Changed)
	}
	slices.Sort(rows)
	rows = slices.Compact(rows)

	gathered := make([][]float64, len(cols))
	for i, col := range cols {
		gathered[i] = make([]float64, len(rows))
		for j, r := range rows {
			gathered[i][j] = col[r]
		}
	}
	vals, undef, err := x.runProgram(gathered, len(rows))
	if err != nil || undef != nil {
		x.bindings = 0 // the keyed path counts the bindings it makes
		return nil, nil, false, err
	}
	od := &model.CubeDelta{Name: p.t.Target(), Base: baseOut}
	col := slices.Clone(base.Measures())
	for j, r := range rows {
		if v := vals[j]; v != col[r] {
			od.Changed = append(od.Changed, model.Tuple{Dims: base.Tuple(r).Dims, Measure: v})
			col[r] = v
		}
	}
	if od.Current, err = baseOut.DeriveColumn(baseOut.Schema(), col, nil); err != nil {
		return nil, nil, false, err
	}
	stats.DeltaTuplesIn += in
	stats.KeysRecomputed += len(rows)
	stats.Bindings += x.bindings
	obs.CurrentSpan(x.ctx).SetAttr(obs.String("eval", "column"))
	return od.Current, od, true, nil
}

// incrAggregation maintains a single-atom aggregation per output group:
// delta tuples identify the affected groups, and each affected group is
// re-aggregated by the full chase's own scan of the current relation,
// restricted to those groups — the exact fold order the full chase uses —
// so even order-sensitive accumulations (stddev's running moments)
// reproduce the full result bit for bit. No differential aggregate state
// is kept, which is what makes min/max/median retraction work at all. Which
// rows those groups hold is the key set's partition: a group is marked once,
// at its first row, and every row of another is passed over unbound.
func incrAggregation(ctx context.Context, p *plan, target Instance, deltas map[string]*model.CubeDelta, baseOut *model.Cube, stats *IncrStats) (*model.Cube, *model.CubeDelta, bool, error) {
	if !p.aggIncr {
		return nil, nil, false, nil
	}
	x, err := newExec(ctx, p, p.lhs, target)
	if err != nil {
		return nil, nil, false, err
	}
	affected := newAffectedKeys()
	if err := x.affectedBy(&p.alone[0], deltas[p.alone[0].rel], affected, stats); err != nil {
		return nil, nil, false, err
	}
	part, err := x.partition()
	if err != nil {
		return nil, nil, false, err
	}
	only := make([]bool, part.Groups())
	ordinal := make(map[string]uint32, len(affected.dims)) // of the affected groups that still have rows
	v := x.rels[0].View()
	for g := range only {
		if ok, err := x.bind(&x.atoms[0], v.Tuple(part.First(g)), false); err != nil || !ok {
			return nil, nil, false, err
		}
		if err := x.rhsDims(); err != nil {
			return nil, nil, false, err
		}
		x.key = model.AppendKey(x.key[:0], x.out)
		if _, only[g] = affected.dims[string(x.key)]; only[g] {
			ordinal[string(x.key)] = uint32(g)
		}
	}
	groups, err := x.aggregate(part, only)
	stats.Bindings += x.bindings
	if err != nil {
		return nil, nil, false, err
	}
	recompute := func(key string, _ []model.Value) (float64, bool, error) {
		g, ok := ordinal[key]
		if !ok || groups[g].acc.N() == 0 {
			return 0, false, nil // every contribution vanished: retract the group
		}
		return groups[g].acc.Result(p.fold), true, nil
	}
	out, od, err := maintain(p.t.Target(), baseOut, affected, stats, recompute)
	if err != nil {
		return nil, nil, false, err
	}
	return out, od, true, nil
}

// incrPadVector maintains a padded vectorial tgd per output point: a
// point depends on exactly one tuple of each operand (present or
// padded), so delta tuples of either operand name the affected points
// directly and recomputing one is two hash probes plus the scalar op.
func incrPadVector(p *plan, target Instance, deltas map[string]*model.CubeDelta, baseOut *model.Cube, stats *IncrStats) (*model.Cube, *model.CubeDelta, bool, error) {
	rels, err := padOperands(p.t, target)
	if err != nil {
		return nil, nil, false, err
	}
	n := len(p.t.Rhs.Dims)
	affected := newAffectedKeys()
	dims := make([]model.Value, n)
	for ai := range rels {
		d := deltas[p.t.Lhs[ai].Rel]
		if d == nil {
			continue
		}
		_ = deltaTuples(d, func(tu model.Tuple) error {
			stats.DeltaTuplesIn++
			for j, i := range p.pad.order[ai] {
				dims[i] = tu.Dims[j]
			}
			affected.add(dims)
			return nil
		})
	}

	probe := [2][]model.Value{make([]model.Value, n), make([]model.Value, n)}
	recompute := func(_ string, dims []model.Value) (float64, bool, error) {
		v, present := padPoint(p, rels, probe, dims)
		return v, present, nil
	}
	out, od, err := maintain(p.t.Target(), baseOut, affected, stats, recompute)
	if err != nil {
		return nil, nil, false, err
	}
	return out, od, true, nil
}
