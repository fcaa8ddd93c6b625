package chase

import (
	"context"
	"fmt"
	"sort"

	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
)

// DeltaInput carries what an incremental chase knows about how the world
// moved since the outputs in BaseOut were computed.
type DeltaInput struct {
	// Deltas maps changed source relations to their tuple-level deltas.
	// Relations absent from both Deltas and FullOnly are unchanged. An
	// empty delta is treated as unchanged.
	Deltas map[string]*model.CubeDelta
	// FullOnly marks relations known to have changed without a usable
	// delta (e.g. the store could not reconstruct the old version).
	// Every tgd consuming one is recomputed in full.
	FullOnly map[string]bool
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
// unchanged (except those the input marked FullOnly, whose movement is
// unknown). Callers chaining solvers feed these to the next stage.
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
	fullOnly := make(map[string]bool, len(in.FullOnly))
	for name, v := range in.FullOnly {
		if v {
			fullOnly[name] = true
		}
	}

	// Σst: the target twins of the elementary relations are the current
	// source versions. Solve clones them; sharing is safe here because
	// nothing downstream mutates an input relation.
	for _, name := range s.m.Elementary {
		if c, ok := source[name]; ok {
			target[name] = c
		} else {
			target[name] = model.NewCube(s.m.Schemas[name])
		}
	}

	for _, t := range s.m.Tgds {
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

		_, span := obs.StartSpan(ctx, "chase.tgd.incr",
			obs.String("id", t.ID), obs.String("cube", outName), obs.String("kind", t.Kind.String()))

		mode, err := s.applyTgdIncr(t, target, deltas, baseOut, changed, unknown, stats, chaseStats)
		span.SetAttr(obs.String("mode", mode))
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
			if mode == "full-unknown" {
				fullOnly[outName] = true
			}
		}
		if d := deltas[outName]; d != nil {
			stats.OutputChanges += d.Size()
		}
	}
	return target, deltas, stats, nil
}

// applyTgdIncr applies one tgd choosing among skip / incremental / full,
// records the tgd's output in target, and — when derivable — its output
// delta in deltas so downstream tgds can stay incremental. The returned
// mode is "skip", "incremental", "full", "full-unchanged" (recomputed,
// but inputs unchanged so the output provably equals the previous run's)
// or "full-unknown" (recomputed with no base to diff against).
func (s *Solver) applyTgdIncr(t *mapping.Tgd, target Instance, deltas map[string]*model.CubeDelta, baseOut *model.Cube, changed, unknown bool, stats *IncrStats, chaseStats *Stats) (string, error) {
	outName := t.Target()

	// Nothing this tgd reads moved: its output is exactly the previous
	// one. With no previous output to reuse (first run for this cube) it
	// must still be computed, but the result is known-unchanged.
	if !changed && !unknown {
		if baseOut != nil {
			target[outName] = baseOut
			return "skip", nil
		}
		if err := s.applyTgd(t, target, chaseStats); err != nil {
			return "", err
		}
		return "full-unchanged", nil
	}

	full := func() (string, error) {
		if err := s.applyTgd(t, target, chaseStats); err != nil {
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

	if unknown || baseOut == nil {
		return full()
	}

	var (
		out *model.Cube
		od  *model.CubeDelta
		ok  bool
		err error
	)
	switch t.Kind {
	case mapping.TupleLevel:
		out, od, ok, err = s.incrTupleLevel(t, target, deltas, baseOut, stats)
	case mapping.Aggregation:
		out, od, ok, err = s.incrAggregation(t, target, deltas, baseOut, stats)
	case mapping.PadVector:
		out, od, ok, err = s.incrPadVector(t, target, deltas, baseOut, stats)
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

// sorted returns the affected dimension tuples in cube order, which is
// the byte order of their keys.
func (a *affectedKeys) sorted() [][]model.Value {
	keys := make([]string, 0, len(a.dims))
	for k := range a.dims {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]model.Value, len(keys))
	for i, k := range keys {
		out[i] = a.dims[k]
	}
	return out
}

// maintain rebuilds the tgd's output from its previous version by
// recomputing exactly the affected points: recompute returns the point's
// current value (or absent), and the old/new values decide Replace,
// Delete or no-op. The returned delta records what actually changed.
func maintain(name string, baseOut *model.Cube, affected *affectedKeys, stats *IncrStats, recompute func(dims []model.Value) (float64, bool, error)) (*model.Cube, *model.CubeDelta, error) {
	out := baseOut.Clone()
	od := &model.CubeDelta{Name: name, Base: baseOut, Current: nil}
	for _, dims := range affected.sorted() {
		stats.KeysRecomputed++
		mv, present, err := recompute(dims)
		if err != nil {
			return nil, nil, err
		}
		old, had := baseOut.Get(dims)
		switch {
		case present && !had:
			if err := out.Replace(dims, mv); err != nil {
				return nil, nil, err
			}
			od.Added = append(od.Added, model.Tuple{Dims: dims, Measure: mv})
		case present && had && mv != old:
			if err := out.Replace(dims, mv); err != nil {
				return nil, nil, err
			}
			od.Changed = append(od.Changed, model.Tuple{Dims: dims, Measure: mv})
		case !present && had:
			out.Delete(dims)
			od.Deleted = append(od.Deleted, model.Tuple{Dims: dims, Measure: old})
		}
	}
	od.Current = out
	return out, od, nil
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

// bindAtomTuple inverts one atom against one of its relation's tuples:
// constants must match, shifted variables are unshifted, repeated
// variables must agree. ok is false when the tuple cannot instantiate
// the atom (a constant or repeated-variable mismatch — the tuple simply
// matches no binding).
func bindAtomTuple(atom mapping.Atom, vars *varSet, tu model.Tuple, b binding) (bool, error) {
	for i := range b {
		b[i] = model.Value{}
	}
	for j, d := range atom.Dims {
		switch {
		case d.Const != nil:
			if !tu.Dims[j].Equal(*d.Const) {
				return false, nil
			}
		case d.Var != "" && d.Func == "":
			val := tu.Dims[j]
			if d.Shift != 0 {
				inv, err := ops.ShiftValue(val, -d.Shift)
				if err != nil {
					return false, err
				}
				val = inv
			}
			vi, _ := vars.lookup(d.Var)
			if b[vi].IsValid() {
				if !b[vi].Equal(val) {
					return false, nil
				}
				continue
			}
			b[vi] = val
		default:
			return false, fmt.Errorf("atom %s dim %d is not invertible", atom.Rel, j)
		}
	}
	if atom.MVar != "" {
		mi, _ := vars.lookup(atom.MVar)
		b[mi] = model.Num(tu.Measure)
	}
	return true, nil
}

// tgdVarSet collects the tgd's variables exactly as evalLhs does, so
// bindings built here and there agree on indexing.
func tgdVarSet(t *mapping.Tgd) *varSet {
	vars := newVarSet()
	for _, a := range t.Lhs {
		for _, d := range a.Dims {
			if d.Var != "" {
				vars.add(d.Var)
			}
		}
		if a.MVar != "" {
			vars.add(a.MVar)
		}
	}
	return vars
}

// incrTupleLevel maintains a tuple-level tgd per output point. It
// applies when the binding is key-determined: every right-hand-side
// dimension term is a constant or an invertible variable (shift, no
// dimension function), and every left-hand-side atom's variables are a
// subset of the right-hand-side variables. Then each output point has at
// most one binding — recovered by inverting the key — and recomputing a
// point is a constant number of hash probes. Affected points are found
// by inverting each changed atom over its delta tuples, which requires
// the changed atoms to bind the full variable set invertibly.
func (s *Solver) incrTupleLevel(t *mapping.Tgd, target Instance, deltas map[string]*model.CubeDelta, baseOut *model.Cube, stats *IncrStats) (*model.Cube, *model.CubeDelta, bool, error) {
	rhsVars := make(map[string]bool)
	for _, d := range t.Rhs.Dims {
		switch {
		case d.Const != nil:
		case d.Var != "" && d.Func == "":
			rhsVars[d.Var] = true
		default:
			return nil, nil, false, nil // rhs term not invertible
		}
	}
	// Per atom: all variables must be recoverable from the key, and
	// changed atoms must invertibly bind the whole key themselves so
	// affected points can be read off their delta tuples.
	var changedAtoms []int
	for ai, a := range t.Lhs {
		plain := make(map[string]bool) // vars invertible from this atom's tuples
		for _, d := range a.Dims {
			if d.Var != "" {
				if !rhsVars[d.Var] {
					return nil, nil, false, nil // binding not key-determined
				}
				if d.Func == "" {
					plain[d.Var] = true
				}
			}
		}
		if deltas[a.Rel] != nil {
			if len(plain) != len(rhsVars) {
				return nil, nil, false, nil // changed atom does not determine the key
			}
			changedAtoms = append(changedAtoms, ai)
		}
	}
	// Every rhs variable must occur in some atom, or the full evaluation
	// itself would fail on an unbound variable — let it.
	vars := tgdVarSet(t)
	for v := range rhsVars {
		if _, ok := vars.lookup(v); !ok {
			return nil, nil, false, nil
		}
	}

	affected := newAffectedKeys()
	b := make(binding, len(vars.names))
	keyBuf := make([]model.Value, len(t.Rhs.Dims))
	for _, ai := range changedAtoms {
		atom := t.Lhs[ai]
		err := deltaTuples(deltas[atom.Rel], func(tu model.Tuple) error {
			stats.DeltaTuplesIn++
			ok, err := bindAtomTuple(atom, vars, tu, b)
			if err != nil || !ok {
				return err
			}
			if err := evalRhsDims(t.Rhs.Dims, vars, b, keyBuf); err != nil {
				return err
			}
			affected.add(keyBuf)
			return nil
		})
		if err != nil {
			return nil, nil, false, err
		}
	}

	probeBufs := make([][]model.Value, len(t.Lhs))
	for i, a := range t.Lhs {
		probeBufs[i] = make([]model.Value, len(a.Dims))
	}
	recompute := func(dims []model.Value) (float64, bool, error) {
		// Invert the key into a binding…
		for i := range b {
			b[i] = model.Value{}
		}
		for i, d := range t.Rhs.Dims {
			if d.Const != nil {
				continue
			}
			val := dims[i]
			if d.Shift != 0 {
				inv, err := ops.ShiftValue(val, -d.Shift)
				if err != nil {
					return 0, false, err
				}
				val = inv
			}
			vi, _ := vars.lookup(d.Var)
			if b[vi].IsValid() && !b[vi].Equal(val) {
				return 0, false, nil
			}
			b[vi] = val
		}
		// …probe every atom for its unique witness…
		for ai, atom := range t.Lhs {
			rel, ok := target[atom.Rel]
			if !ok {
				return 0, false, fmt.Errorf("relation %s not available", atom.Rel)
			}
			pd := probeBufs[ai]
			for j, d := range atom.Dims {
				v, err := evalDimTerm(d, vars, b)
				if err != nil {
					return 0, false, err
				}
				pd[j] = v
			}
			m, ok := rel.Get(pd)
			if !ok {
				return 0, false, nil // support vanished: the point is retracted
			}
			if atom.MVar != "" {
				mi, _ := vars.lookup(atom.MVar)
				b[mi] = model.Num(m)
			}
		}
		// …and re-evaluate the measure with the full chase's arithmetic.
		return evalMeasure(t.Measure, vars, b)
	}

	out, od, err := maintain(t.Target(), baseOut, affected, stats, recompute)
	if err != nil {
		return nil, nil, false, err
	}
	return out, od, true, nil
}

// incrAggregation maintains a single-atom aggregation per output group:
// delta tuples identify the affected groups, and each affected group is
// re-aggregated from a scan of the full current relation in Ordered
// order — the exact fold order the full chase uses — so even
// order-sensitive accumulations (stddev's running moments) reproduce the
// full result bit for bit. No differential aggregate state is kept,
// which is what makes min/max/median retraction work at all.
func (s *Solver) incrAggregation(t *mapping.Tgd, target Instance, deltas map[string]*model.CubeDelta, baseOut *model.Cube, stats *IncrStats) (*model.Cube, *model.CubeDelta, bool, error) {
	if len(t.Lhs) != 1 {
		return nil, nil, false, nil
	}
	atom := t.Lhs[0]
	for _, d := range atom.Dims {
		if d.Func != "" || (d.Const == nil && d.Var == "") {
			return nil, nil, false, nil
		}
	}
	// Group keys must be functions of dimensions only: a measure variable
	// in a key term would make the key change with the measure.
	for _, d := range t.Rhs.Dims {
		if d.Var != "" && d.Var == atom.MVar {
			return nil, nil, false, nil
		}
		if d.Var != "" {
			found := false
			for _, ad := range atom.Dims {
				if ad.Var == d.Var {
					found = true
					break
				}
			}
			if !found {
				return nil, nil, false, nil
			}
		}
	}
	vars := tgdVarSet(t)
	rel, ok := target[atom.Rel]
	if !ok {
		return nil, nil, false, fmt.Errorf("relation %s not available", atom.Rel)
	}

	affected := newAffectedKeys()
	b := make(binding, len(vars.names))
	keyBuf := make([]model.Value, len(t.Rhs.Dims))
	err := deltaTuples(deltas[atom.Rel], func(tu model.Tuple) error {
		stats.DeltaTuplesIn++
		ok, err := bindAtomTuple(atom, vars, tu, b)
		if err != nil || !ok {
			return err
		}
		if err := evalRhsDims(t.Rhs.Dims, vars, b, keyBuf); err != nil {
			return err
		}
		affected.add(keyBuf)
		return nil
	})
	if err != nil {
		return nil, nil, false, err
	}

	// One sorted scan re-aggregates every affected group.
	aggs := make(map[string]ops.Aggregator, len(affected.dims))
	err = rel.Ordered(func(tu model.Tuple) error {
		ok, err := bindAtomTuple(atom, vars, tu, b)
		if err != nil || !ok {
			return err
		}
		if err := evalRhsDims(t.Rhs.Dims, vars, b, keyBuf); err != nil {
			return err
		}
		k := model.EncodeKey(keyBuf)
		if _, isAffected := affected.dims[k]; !isAffected {
			return nil
		}
		mv, defined, err := evalMeasure(t.Measure, vars, b)
		if err != nil || !defined {
			return err
		}
		agg := aggs[k]
		if agg == nil {
			agg, err = ops.NewAggregator(t.Agg)
			if err != nil {
				return err
			}
			aggs[k] = agg
		}
		agg.Add(mv)
		return nil
	})
	if err != nil {
		return nil, nil, false, err
	}

	recompute := func(dims []model.Value) (float64, bool, error) {
		agg := aggs[model.EncodeKey(dims)]
		if agg == nil {
			return 0, false, nil // every contribution vanished: retract the group
		}
		return agg.Result(), true, nil
	}
	out, od, err := maintain(t.Target(), baseOut, affected, stats, recompute)
	if err != nil {
		return nil, nil, false, err
	}
	return out, od, true, nil
}

// incrPadVector maintains a padded vectorial tgd per output point: a
// point depends on exactly one tuple of each operand (present or
// padded), so delta tuples of either operand name the affected points
// directly and recomputing one is two hash probes plus the scalar op.
func (s *Solver) incrPadVector(t *mapping.Tgd, target Instance, deltas map[string]*model.CubeDelta, baseOut *model.Cube, stats *IncrStats) (*model.Cube, *model.CubeDelta, bool, error) {
	if len(t.Lhs) != 2 {
		return nil, nil, false, nil
	}
	// atomOrder[i][j] = rhs index of the variable at atom i's position j;
	// requires each atom to be a permutation of the rhs variables, which
	// is also what makes the full evaluation's entry map deterministic.
	rhsIdx := make(map[string]int, len(t.Rhs.Dims))
	for i, d := range t.Rhs.Dims {
		if d.Var == "" || d.Shift != 0 || d.Func != "" || d.Const != nil {
			return nil, nil, false, nil
		}
		rhsIdx[d.Var] = i
	}
	var atomOrder [2][]int
	for ai := 0; ai < 2; ai++ {
		atom := t.Lhs[ai]
		if len(atom.Dims) != len(t.Rhs.Dims) {
			return nil, nil, false, nil
		}
		atomOrder[ai] = make([]int, len(atom.Dims))
		seen := make(map[string]bool, len(atom.Dims))
		for j, d := range atom.Dims {
			if d.Var == "" || d.Shift != 0 || d.Func != "" || d.Const != nil || seen[d.Var] {
				return nil, nil, false, nil
			}
			i, ok := rhsIdx[d.Var]
			if !ok {
				return nil, nil, false, nil
			}
			seen[d.Var] = true
			atomOrder[ai][j] = i
		}
	}
	rels := [2]*model.Cube{}
	for ai := 0; ai < 2; ai++ {
		rel, ok := target[t.Lhs[ai].Rel]
		if !ok {
			return nil, nil, false, fmt.Errorf("relation %s not available", t.Lhs[ai].Rel)
		}
		rels[ai] = rel
	}
	f, err := ops.Scalar(t.PadOp)
	if err != nil {
		return nil, nil, false, err
	}

	affected := newAffectedKeys()
	keyBuf := make([]model.Value, len(t.Rhs.Dims))
	for ai := 0; ai < 2; ai++ {
		d := deltas[t.Lhs[ai].Rel]
		if d == nil {
			continue
		}
		err := deltaTuples(d, func(tu model.Tuple) error {
			stats.DeltaTuplesIn++
			for j, i := range atomOrder[ai] {
				keyBuf[i] = tu.Dims[j]
			}
			affected.add(keyBuf)
			return nil
		})
		if err != nil {
			return nil, nil, false, err
		}
	}

	probeBufs := [2][]model.Value{
		make([]model.Value, len(t.Rhs.Dims)),
		make([]model.Value, len(t.Rhs.Dims)),
	}
	recompute := func(dims []model.Value) (float64, bool, error) {
		var vals [2]float64
		var present [2]bool
		for ai := 0; ai < 2; ai++ {
			pd := probeBufs[ai]
			for j, i := range atomOrder[ai] {
				pd[j] = dims[i]
			}
			vals[ai], present[ai] = rels[ai].Get(pd)
			if !present[ai] {
				vals[ai] = t.PadDefault
			}
		}
		if !present[0] && !present[1] {
			return 0, false, nil
		}
		v, err := f(vals[0], vals[1])
		if err != nil {
			if ops.ErrUndefined(err) {
				return 0, false, nil
			}
			return 0, false, err
		}
		return v, true, nil
	}
	out, od, err := maintain(t.Target(), baseOut, affected, stats, recompute)
	if err != nil {
		return nil, nil, false, err
	}
	return out, od, true, nil
}
