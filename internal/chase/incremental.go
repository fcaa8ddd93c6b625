package chase

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/obs"
)

// Front is what a run knows of how relations moved since their bases were
// computed: the one state incremental evaluation keeps, from the engine
// through the dispatcher to the chase. A relation in neither Deltas nor
// FullOnly has not moved.
type Front struct {
	// Deltas maps each relation that moved to its delta, which is never empty.
	Deltas map[string]*model.CubeDelta
	// FullOnly marks the relations that moved without a usable delta: every
	// tgd or fragment reading one is recomputed in full.
	FullOnly map[string]bool
	// Bases holds each derived relation's previous version, what it is
	// maintained from; one without a base is recomputed in full.
	Bases map[string]*model.Cube
}

// Publish records that relation name now stands at out: it has moved without
// a usable delta where it has no base or no output, not at all where out is
// its base, and otherwise by d, the delta from its base to out, or where d is
// nil by the delta DiffCubes finds. An empty delta records nothing.
func (f *Front) Publish(name string, out *model.Cube, d *model.CubeDelta) {
	base := f.Bases[name]
	switch {
	case base == nil || out == nil:
		if f.FullOnly == nil {
			f.FullOnly = make(map[string]bool)
		}
		f.FullOnly[name] = true
	case out == base:
	default:
		if d == nil {
			d = model.DiffCubes(name, base, out)
		}
		if !d.Empty() {
			if f.Deltas == nil {
				f.Deltas = make(map[string]*model.CubeDelta)
			}
			f.Deltas[name] = d
		}
	}
}

// Narrow returns a copy of the front on what one fragment reads and
// maintains: the movement of inputs and the bases of outputs. Publishing into
// the copy leaves f as it is.
func (f *Front) Narrow(inputs, outputs []string) *Front {
	n := &Front{
		Deltas:   make(map[string]*model.CubeDelta),
		FullOnly: make(map[string]bool),
		Bases:    make(map[string]*model.Cube, len(outputs)),
	}
	for _, in := range inputs {
		if f.FullOnly[in] {
			n.FullOnly[in] = true
		} else if d := f.Deltas[in]; d != nil {
			n.Deltas[in] = d
		}
	}
	for _, out := range outputs {
		if b := f.Bases[out]; b != nil {
			n.Bases[out] = b
		}
	}
	return n
}

// maintainTgd brings one tgd's output up to date under front, records it in
// target and publishes its movement into front. The returned mode is "skip"
// (nothing it reads moved: its base is its output), "incremental" (the points
// its input deltas reach recomputed), "full" (recomputed from scratch),
// "full-unchanged" (recomputed with no base to reuse, its inputs unmoved, so
// it moved neither) or "full-unknown" (recomputed with no base to diff
// against, so its consumers are recomputed in full).
func (s *Solver) maintainTgd(ctx context.Context, p *plan, target Instance, front *Front, stats *Stats) (string, error) {
	name := p.t.Target()
	base := front.Bases[name]
	changed, unknown := false, false
	for _, a := range p.t.Lhs {
		if front.FullOnly[a.Rel] {
			unknown = true
		} else if front.Deltas[a.Rel] != nil {
			changed = true
		}
	}

	mode := "full"
	switch {
	case !changed && !unknown && base != nil:
		target[name] = base
		stats.Skipped++
		return "skip", nil
	case !changed && !unknown:
		mode = "full-unchanged"
	case base == nil:
		mode = "full-unknown"
	case !unknown && p.err == nil:
		out, od, ok, err := maintainPoints(ctx, p, target, front.Deltas, base, stats)
		if err != nil {
			return "", err
		}
		if ok {
			target[name] = out
			front.Publish(name, out, od)
			stats.Incremental++
			return "incremental", nil
		}
	}
	if err := s.applyTgd(ctx, p, target, stats); err != nil {
		return "", err
	}
	stats.Full++
	if stats.FullTgds != "" {
		stats.FullTgds += ", "
	}
	stats.FullTgds += fmt.Sprintf("%s (%s)", name, p.t.Kind)
	if mode != "full-unchanged" {
		front.Publish(name, target[name], nil)
	}
	return mode, nil
}

// maintainPoints maintains the tgd's output from base by recomputing the
// points its input deltas reach. ok is false where the tgd's form has no
// smaller unit of recomputation than the whole: a black box consumes a whole
// series, and a tuple-level tgd or an aggregation may lack the keyed form its
// maintenance needs.
func maintainPoints(ctx context.Context, p *plan, target Instance, deltas map[string]*model.CubeDelta, base *model.Cube, stats *Stats) (*model.Cube, *model.CubeDelta, bool, error) {
	switch p.t.Kind {
	case mapping.TupleLevel:
		return incrTupleLevel(ctx, p, target, deltas, base, stats)
	case mapping.Aggregation:
		return incrAggregation(ctx, p, target, deltas, base, stats)
	case mapping.PadVector:
		return incrPadVector(p, target, deltas, base, stats)
	}
	return nil, nil, false, nil
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
func maintain(name string, baseOut *model.Cube, affected *affectedKeys, stats *Stats, recompute func(key string, dims []model.Value) (float64, bool, error)) (*model.Cube, *model.CubeDelta, error) {
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
		case present && had && math.Float64bits(mv) != math.Float64bits(old):
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
func (x *exec) affectedBy(a *atomPlan, d *model.CubeDelta, affected *affectedKeys) error {
	return deltaTuples(d, func(tu model.Tuple) error {
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
func incrTupleLevel(ctx context.Context, p *plan, target Instance, deltas map[string]*model.CubeDelta, baseOut *model.Cube, stats *Stats) (*model.Cube, *model.CubeDelta, bool, error) {
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
			if err := x.affectedBy(a, d, affected); err != nil {
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
// gathered from the operands (read through their patches: an operand nobody
// has read whole stays a patch), recomputed by the full run's program, and the
// points that moved restate the previous output (model.Cube.Restate): a
// version on its key set, as Apply of the changed points makes it. ok is
// false, with nothing counted, where the path does not apply or a recomputed
// point is undefined (its retraction is the keyed path's).
func (x *exec) incrColumns(deltas map[string]*model.CubeDelta, baseOut *model.Cube, stats *Stats) (*model.Cube, *model.CubeDelta, bool, error) {
	p, base := x.p, baseOut.View()
	n := 0 // the delta tuples, which name the affected rows
	for i := range p.lhs {
		d := deltas[p.lhs[i].rel]
		if !x.rels[i].SharesKeySet(baseOut) || d != nil && len(d.Added)+len(d.Deleted) > 0 {
			return nil, nil, false, nil
		}
		if d != nil {
			n += len(d.Changed)
		}
	}
	rows := make([]int, 0, n)
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
	}
	slices.Sort(rows)
	rows = slices.Compact(rows)

	gathered := make([][]float64, len(p.lhs))
	for i := range gathered {
		gathered[i] = x.rels[i].View().Gather(make([]float64, 0, len(rows)), rows)
	}
	vals, undef, err := x.runProgram(gathered, len(rows))
	if err != nil || undef != nil {
		x.bindings = 0 // the keyed path counts the bindings it makes
		return nil, nil, false, err
	}
	moved := 0 // rows[:moved] and vals[:moved] are the points that moved
	for j, old := range base.Gather(make([]float64, 0, len(rows)), rows) {
		if v := vals[j]; math.Float64bits(v) != math.Float64bits(old) {
			rows[moved], vals[moved] = rows[j], v
			moved++
		}
	}
	od := &model.CubeDelta{Name: p.t.Target(), Base: baseOut, Changed: make([]model.Tuple, moved)}
	for j, r := range rows[:moved] {
		od.Changed[j] = model.Tuple{Dims: base.Dims(r), Measure: vals[j]}
	}
	if od.Current, err = baseOut.Restate(rows[:moved], vals[:moved]); err != nil {
		return nil, nil, false, err
	}
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
func incrAggregation(ctx context.Context, p *plan, target Instance, deltas map[string]*model.CubeDelta, baseOut *model.Cube, stats *Stats) (*model.Cube, *model.CubeDelta, bool, error) {
	if !p.aggIncr {
		return nil, nil, false, nil
	}
	x, err := newExec(ctx, p, p.lhs, target)
	if err != nil {
		return nil, nil, false, err
	}
	affected := newAffectedKeys()
	if err := x.affectedBy(&p.alone[0], deltas[p.alone[0].rel], affected); err != nil {
		return nil, nil, false, err
	}
	part, err := x.partition()
	if err != nil {
		return nil, nil, false, err
	}
	only := make([]bool, part.Groups())
	ordinal := make(map[string]uint32, len(affected.dims)) // of the affected groups that still have rows
	// Groups are numbered in the order of their first rows: one ascending scan.
	cur := x.rels[0].View().Cursor()
	for g := range only {
		if ok, err := x.bind(&x.atoms[0], cur.Tuple(part.First(g)), false); err != nil || !ok {
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
		return groups[g].result(p.fold), true, nil
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
func incrPadVector(p *plan, target Instance, deltas map[string]*model.CubeDelta, baseOut *model.Cube, stats *Stats) (*model.Cube, *model.CubeDelta, bool, error) {
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
