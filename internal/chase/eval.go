package chase

import (
	"context"
	"fmt"

	"exlengine/internal/model"
	"exlengine/internal/ops"
)

// pollEvery is how many tuples an application binds between two looks at
// the context, so a cancelled chase stops inside a stratum, not at its end —
// also when a selective join completes few of the bindings it tries.
const pollEvery = 4096

// exec is the state of one application of a plan: a streamed nested join
// over one reused binding buffer. No binding list is ever materialized —
// each complete binding is handed to emit and then overwritten by the
// next.
type exec struct {
	ctx   context.Context
	p     *plan
	atoms []atomPlan // p.lhs, or p.keyed.atoms
	rels  []*model.Cube
	// index holds, per partial-key atom, the relation's tuples grouped by
	// probe key, built on first use and kept for the application.
	index []*probeIndex
	// cols holds, per aligned atom whose relation stands on the driving
	// relation's key set, that relation's columns: its match for the driving
	// tuple is the one at row, the driving tuple's row (see tupleLevel).
	cols []*model.View
	row  int

	vals   []model.Value   // the binding: one slot per variable
	args   []float64       // operator argument windows of the measure
	probes [][]model.Value // per atom: the tuple (or key) being probed
	out    []model.Value   // rhs dimension tuple of the current binding
	key    []byte

	visited  int // tuples handed to bind so far
	bindings int // complete bindings so far
	// emit consumes a complete binding. The default records its measure
	// for measureOnce.
	emit    func() error
	mv      float64
	present bool
}

type probeIndex struct {
	ids     map[string]int
	buckets [][]model.Tuple
}

// newExec resolves the atoms' relations in the instance and sizes the
// buffers.
func newExec(ctx context.Context, p *plan, atoms []atomPlan, target Instance) (*exec, error) {
	x := &exec{
		ctx: ctx, p: p, atoms: atoms,
		rels:   make([]*model.Cube, len(atoms)),
		index:  make([]*probeIndex, len(atoms)),
		cols:   make([]*model.View, len(atoms)),
		vals:   make([]model.Value, p.slots),
		args:   make([]float64, p.args),
		probes: make([][]model.Value, len(atoms)),
		out:    make([]model.Value, len(p.rhs)),
	}
	x.emit = func() (err error) {
		x.mv, x.present, err = p.measure(x)
		return err
	}
	for i := range atoms {
		rel, ok := target[atoms[i].rel]
		if !ok {
			return nil, fmt.Errorf("relation %s not available", atoms[i].rel)
		}
		x.rels[i] = rel
		x.probes[i] = make([]model.Value, atoms[i].arity)
	}
	return x, nil
}

// join enumerates the bindings of atoms[i:] under the binding of
// atoms[:i] and emits each complete one: the natural join of the lhs atoms
// on shared variables, with dimension terms (shifts, constants, functions
// of bound variables) acting as computed join keys. Scans and indexes read
// relations in cube order, not map order, so the enumeration — and with it
// the fold order of floating-point aggregation and the tuple an egd
// violation names — is the same run to run. (tupleLevel's shared path does
// not drive through join: see there.)
func (x *exec) join(i int) error {
	if i == len(x.atoms) {
		x.bindings++
		return x.emit()
	}
	a := &x.atoms[i]
	if v := x.cols[i]; v != nil {
		if a.mslot >= 0 {
			x.vals[a.mslot] = model.Num(v.Tuple(x.row).Measure)
		}
		return x.join(i + 1)
	}
	if !a.full() && (i == 0 || len(a.probe) == 0) {
		// The driving atom — any probe terms it has are constants, a
		// selection, checked tuple by tuple — or a cross product: scan.
		return x.rels[i].Ordered(func(tu model.Tuple) error {
			if ok, err := x.bind(a, tu, true); err != nil || !ok {
				return err
			}
			return x.join(i + 1)
		})
	}
	probe := x.probes[i][:len(a.probe)]
	for j := range a.probe {
		v, err := a.probe[j].term.eval(x.vals)
		if err != nil {
			return err
		}
		probe[j] = v
	}
	if a.full() {
		// The probe positions are all the positions, in order: probe is
		// the dimension tuple, looked up by key in the relation itself.
		m, ok := x.rels[i].Get(probe)
		if !ok {
			return nil
		}
		if a.mslot >= 0 {
			x.vals[a.mslot] = model.Num(m)
		}
		return x.join(i + 1)
	}
	// The index first: building it goes through x.key.
	ix := x.indexOf(i)
	x.key = model.AppendKey(x.key[:0], probe)
	id, ok := ix.ids[string(x.key)]
	if !ok {
		return nil
	}
	for _, tu := range ix.buckets[id] {
		if ok, err := x.bind(a, tu, false); err != nil {
			return err
		} else if !ok {
			continue
		}
		if err := x.join(i + 1); err != nil {
			return err
		}
	}
	return nil
}

// indexOf returns atom i's relation grouped by the values at its probe
// positions, building it on first use. The build overwrites x.key.
func (x *exec) indexOf(i int) *probeIndex {
	if x.index[i] != nil {
		return x.index[i]
	}
	a := &x.atoms[i]
	ix := &probeIndex{ids: make(map[string]int)}
	probe := make([]model.Value, len(a.probe))
	_ = x.rels[i].Ordered(func(tu model.Tuple) error {
		for j := range a.probe {
			probe[j] = tu.Dims[a.probe[j].pos]
		}
		x.key = model.AppendKey(x.key[:0], probe)
		id, ok := ix.ids[string(x.key)]
		if !ok {
			id = len(ix.buckets)
			ix.ids[string(x.key)] = id
			ix.buckets = append(ix.buckets, nil)
		}
		ix.buckets[id] = append(ix.buckets[id], tu)
		return nil
	})
	x.index[i] = ix
	return ix
}

// bind instantiates the atom's own variables from one of its relation's
// tuples: shifted variables are unshifted, repeated variables must agree.
// With filter set the probe positions are compared too (a scan, or a delta
// tuple being inverted); an index hit has matched them by key already. ok
// is false when the tuple cannot instantiate the atom — it simply matches
// no binding. Every tuple an application looks at comes through here, so
// this is where the context is polled.
func (x *exec) bind(a *atomPlan, tu model.Tuple, filter bool) (ok bool, err error) {
	x.visited++
	if x.visited%pollEvery == 0 {
		if err := x.ctx.Err(); err != nil {
			return false, err
		}
	}
	if filter {
		for j := range a.probe {
			v, err := a.probe[j].term.eval(x.vals)
			if err != nil {
				return false, err
			}
			if !v.Equal(tu.Dims[a.probe[j].pos]) {
				return false, nil
			}
		}
	}
	for j := range a.binds {
		b := &a.binds[j]
		v := tu.Dims[b.pos]
		if b.shift != 0 {
			// The term denotes the variable plus shift.
			if v, err = ops.ShiftValue(v, -b.shift); err != nil {
				return false, err
			}
		}
		if b.check {
			if !x.vals[b.slot].Equal(v) {
				return false, nil
			}
			continue
		}
		x.vals[b.slot] = v
	}
	if a.mslot >= 0 {
		x.vals[a.mslot] = model.Num(tu.Measure)
	}
	return true, nil
}

// rhsDims evaluates the rhs dimension terms under the current binding into
// x.out.
func (x *exec) rhsDims() error {
	for i := range x.p.rhs {
		v, err := x.p.rhs[i].eval(x.vals)
		if err != nil {
			return err
		}
		x.out[i] = v
	}
	return nil
}

// measureOnce runs the join from atom i on for a binding that has at most
// one completion (every remaining atom is a full-key probe) and returns
// its measure; present is false when an atom found no tuple or the measure
// is undefined.
func (x *exec) measureOnce(i int) (mv float64, present bool, err error) {
	x.present = false
	err = x.join(i)
	return x.mv, x.present, err
}

// tupleLevel applies a tuple-level tgd, returning its output under schema
// and the tuples asserted.
func (x *exec) tupleLevel(schema model.Schema) (out *model.Cube, tuples int, err error) {
	if x.p.shared {
		// One binding at most per driving tuple, at that tuple's own
		// dimension tuple: the output is defined point by point on the
		// driving relation, in cube order, and no two of its tuples can meet
		// at one dimension tuple. An aligned atom is joined by position where
		// its relation stands on the driving relation's key set.
		drive, src := &x.atoms[0], x.rels[0]
		for i := 1; i < len(x.atoms); i++ {
			if x.atoms[i].aligned && x.rels[i].SharesKeySet(src) {
				x.cols[i] = x.rels[i].View()
			}
		}
		out, err = src.Derive(schema, func(row int, tu model.Tuple) (float64, bool, error) {
			x.row = row
			if ok, err := x.bind(drive, tu, false); err != nil || !ok {
				return 0, false, err
			}
			mv, present, err := x.measureOnce(1)
			if present {
				tuples++
			}
			return mv, present, err
		})
		return out, tuples, err
	}
	b := model.NewBuilder(schema)
	x.emit = func() error {
		if err := x.rhsDims(); err != nil {
			return err
		}
		mv, defined, err := x.p.measure(x)
		if err != nil || !defined {
			return err
		}
		tuples++
		return b.Add(x.out, mv)
	}
	if err = x.join(0); err != nil {
		return nil, tuples, err
	}
	out, err = b.Build()
	return out, tuples, err
}

// group is one output point of an aggregation tgd being folded.
type group struct {
	dims []model.Value
	agg  ops.Aggregator
}

// aggregate folds the tgd's bindings into groups keyed by the rhs
// dimension tuple, in binding order. With only set, bindings of other
// groups are skipped before their measure is evaluated; the groups that
// remain see exactly the bindings, in exactly the order, of an
// unrestricted run. Undefined points contribute nothing to the bag.
func (x *exec) aggregate(only map[string][]model.Value) (map[string]*group, error) {
	groups := make(map[string]*group)
	x.emit = func() error {
		if err := x.rhsDims(); err != nil {
			return err
		}
		x.key = model.AppendKey(x.key[:0], x.out)
		if only != nil {
			if _, ok := only[string(x.key)]; !ok {
				return nil
			}
		}
		mv, defined, err := x.p.measure(x)
		if err != nil || !defined {
			return err
		}
		g, ok := groups[string(x.key)]
		if !ok {
			agg, err := ops.NewAggregator(x.p.t.Agg)
			if err != nil {
				return err
			}
			g = &group{dims: append([]model.Value(nil), x.out...), agg: agg}
			groups[string(x.key)] = g
		}
		g.agg.Add(mv)
		return nil
	}
	return groups, x.join(0)
}
