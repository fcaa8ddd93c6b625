package chase

import (
	"context"
	"fmt"
	"slices"

	"exlengine/internal/model"
	"exlengine/internal/obs"
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
	// relation's key set, that relation's measure column: its match for the
	// driving tuple is the one at row, the driving tuple's row (see
	// tupleLevel). On the column path it holds every atom's.
	cols [][]float64
	row  int
	// ords holds, while an aggregation folds by the key set's partition, the
	// group ordinal of every row of the driving relation, group the driving
	// row's, and only, if set, which groups are folded (see aggregate).
	ords  []uint32
	only  []bool
	group uint32

	vals   []model.Value   // the binding: one slot per variable
	num    []float64       // the numbers the measure reads from vals, by slot
	regs   []float64       // the measure's registers at one binding
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
		cols:   make([][]float64, len(atoms)),
		vals:   make([]model.Value, p.slots),
		num:    make([]float64, p.slots),
		regs:   make([]float64, p.prog.regs),
		probes: make([][]model.Value, len(atoms)),
		out:    make([]model.Value, len(p.rhs)),
	}
	x.emit = func() (err error) {
		x.mv, x.present, err = x.measure()
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
	if col := x.cols[i]; col != nil {
		if a.mslot >= 0 {
			x.vals[a.mslot] = model.Num(col[x.row])
		}
		return x.join(i + 1)
	}
	if !a.full() && (i == 0 || len(a.probe) == 0) {
		// The driving atom — any probe terms it has are constants, a
		// selection, checked tuple by tuple — or a cross product: scan. A
		// driving row whose group is not wanted costs the read of its ordinal.
		v := x.rels[i].View()
		cur := v.Cursor()
		for row, n := 0, v.Len(); row < n; row++ {
			if i == 0 {
				if x.row = row; x.ords != nil {
					if x.group = x.ords[row]; x.group == model.NoGroup || x.only != nil && !x.only[x.group] {
						continue
					}
				}
			}
			if ok, err := x.bind(a, cur.Tuple(row), true); err != nil {
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
	if err := x.visit(); err != nil {
		return false, err
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

// visit counts a tuple looked at, and polls the context at every pollEvery-th.
func (x *exec) visit() error {
	if x.visited++; x.visited%pollEvery == 0 {
		return x.ctx.Err()
	}
	return nil
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

// measure evaluates the plan's program at the current binding, over columns of
// one. defined is false when an operator hit an undefined point (division by
// zero, log of a non-positive number): per the paper's semantics the result
// cube simply has no tuple there.
func (x *exec) measure() (v float64, defined bool, err error) {
	for _, s := range x.p.prog.reads {
		f, ok := x.vals[s].AsNumber()
		if !ok {
			return 0, false, fmt.Errorf("measure variable bound to non-numeric %v", x.vals[s])
		}
		x.num[s] = f
	}
	v, defined = x.p.prog.at(x.num, x.regs)
	return v, defined, nil
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
// and the tuples asserted. Its span says whether the measure was computed a
// column at a time or a binding at a time.
func (x *exec) tupleLevel(schema model.Schema) (out *model.Cube, tuples int, err error) {
	span := obs.CurrentSpan(x.ctx)
	if x.p.shared {
		// One binding at most per driving tuple, at that tuple's own
		// dimension tuple: the output is defined point by point on the
		// driving relation, in cube order, and no two of its tuples can meet
		// at one dimension tuple. An aligned atom is joined by position where
		// its relation stands on the driving relation's key set. Where every
		// later atom is aligned, the measure is computed a column at a time:
		// a relation on another key set is gathered into a column at the rows
		// its key set aligns with the driving one's (model.View.Align), and
		// the driving rows it has no tuple at are no binding.
		drive, src := &x.atoms[0], x.rels[0]
		var missing []bool
		for i := 1; i < len(x.atoms); i++ {
			switch rel := x.rels[i]; {
			case !x.atoms[i].aligned:
			case rel.SharesKeySet(src):
				x.cols[i] = rel.View().Measures()
			case x.p.aligned:
				x.cols[i], missing = gather(rel.View(), src.View().Align(rel.View()), missing)
			}
		}
		if x.p.aligned {
			span.SetAttr(obs.String("eval", "column"))
			return x.columns(schema, missing)
		}
		span.SetAttr(obs.String("eval", "row"))
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
	span.SetAttr(obs.String("eval", "row"))
	b := model.NewBuilder(schema)
	x.emit = func() error {
		if err := x.rhsDims(); err != nil {
			return err
		}
		mv, defined, err := x.measure()
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

// columns applies a tuple-level tgd of the column path: its program runs
// over the measure columns of the driving relation and of every later atom's
// (x.cols), which stand on its key set or were gathered onto it, straight into
// the output column, and Cube.DeriveColumn makes that a version on the key
// set, less the points where an operator is undefined and the driving rows
// missing marks (nil, or one a row). Each other driving row is a binding. The
// rows go through in chunks that end where a binding at a time would poll the
// context, so a cancelled application stops at the same binding either way.
func (x *exec) columns(schema model.Schema, missing []bool) (*model.Cube, int, error) {
	src, n := x.rels[0], x.rels[0].Len()
	x.cols[0] = src.View().Measures()
	out, undef, err := x.runProgram(x.cols, n)
	if err != nil {
		return nil, 0, err
	}
	if missing != nil {
		for i, m := range missing {
			if m {
				x.bindings--
			}
			if undef != nil {
				missing[i] = m || undef[i]
			}
		}
		undef = missing
	}
	tuples := n
	for _, u := range undef {
		if u {
			tuples--
		}
	}
	c, err := src.DeriveColumn(schema, out, undef)
	return c, tuples, err
}

// gather returns q's measures at rows, which ascend where they are not -1 —
// a relation's alignment with the driving one's key set — in a column, and
// missing, nil or as long as rows, with the rows that are -1 marked.
func gather(q *model.View, rows []int32, missing []bool) ([]float64, []bool) {
	col, cur := make([]float64, len(rows)), q.Cursor()
	for i, r := range rows {
		if r < 0 {
			if missing == nil {
				missing = make([]bool, len(rows))
			}
			missing[i] = true
			continue
		}
		col[i] = cur.At(int(r))
	}
	return col, missing
}

// runProgram runs the plan's program over the first n rows of cols, the lhs
// atoms' measure columns, into a new column, binding each row, and returns the
// column and its undefined points (nil where there are none).
func (x *exec) runProgram(cols [][]float64, n int) ([]float64, []bool, error) {
	prog := x.p.prog
	bySlot := make([][]float64, x.p.slots)
	for _, s := range prog.reads {
		bySlot[s] = cols[x.p.measureColumn(s)]
	}
	out := make([]float64, n)
	scratch := make([][]float64, prog.regs-1)
	for i := range scratch {
		scratch[i] = make([]float64, min(n, pollEvery))
	}
	var undef []bool
	for lo := 0; lo < n; {
		// Row lo is the (visited+1)th tuple: where it is a polled one, poll;
		// the chunk ends before the next.
		next := (x.visited + 1) % pollEvery
		if next == 0 {
			if err := x.ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		hi := min(n, lo+pollEvery-next)
		undef = prog.run(out, bySlot, lo, hi, scratch, undef)
		x.visited += hi - lo
		x.bindings += hi - lo
		lo = hi
	}
	return out, undef, nil
}

// run evaluates the program at rows [lo, hi) of cols, the variables' columns
// by slot, into out[lo:hi], through scratch (regs-1 columns of at least hi-lo
// values), and returns undef — nil, or as long as out — with the rows where an
// operator is undefined marked.
func (pr *colProg) run(out []float64, cols [][]float64, lo, hi int, scratch [][]float64, undef []bool) []bool {
	reg := func(r int) []float64 {
		if r == 0 {
			return out[lo:hi]
		}
		return scratch[r-1][:hi-lo]
	}
	at := func(r colRef) []float64 {
		switch {
		case r.reg >= 0:
			return reg(r.reg)
		case r.slot >= 0:
			return cols[r.slot][lo:hi]
		}
		return r.k
	}
	var u []bool
	if undef != nil {
		u = undef[lo:hi]
	}
	for _, s := range pr.steps {
		u = s.op.Map(reg(s.dst), at(s.x), at(s.y), u)
	}
	switch dst, v := out[lo:hi], at(pr.root); {
	case pr.root.reg == 0:
	case len(v) == len(dst):
		copy(dst, v)
	default:
		for i := range dst {
			dst[i] = v[0]
		}
	}
	if u != nil && undef == nil {
		undef = make([]bool, len(out))
		copy(undef[lo:], u)
	}
	return undef
}

// at evaluates the program at one binding, vals holding the variables by slot
// and regs the registers, a value each; ok is false where an operator is
// undefined.
func (pr *colProg) at(vals, regs []float64) (v float64, ok bool) {
	for _, s := range pr.steps {
		if regs[s.dst], ok = s.op.At(s.x.at(vals, regs), s.y.at(vals, regs)); !ok {
			return 0, false
		}
	}
	return pr.root.at(vals, regs), true
}

func (r colRef) at(vals, regs []float64) float64 {
	switch {
	case r.reg >= 0:
		return regs[r.reg]
	case r.slot >= 0:
		return vals[r.slot]
	}
	return r.k[0]
}

// group is one output point of an aggregation tgd being folded; its bag is
// empty, and dims unset, until a defined measure falls into it. bag is the
// measures themselves, where the fold needs them (ops.Fold.Bags).
type group struct {
	dims []model.Value
	acc  ops.Acc
	bag  []float64
}

// result returns the fold of the group's bag.
func (g *group) result(f ops.Fold) float64 { return g.acc.Result(f, g.bag) }

// partition returns how the plan's aggregation groups the rows of its one
// relation, where that is a function of their dimension tuples (plan.aggIncr):
// the partition the relation's key set holds, or else one assigned here, rhs
// key by rhs key over the dimension tuples alone, and handed to the key set.
// For any other aggregation it is nil. The tgd's span says whether the groups
// were the key set's or hashed in this run.
func (x *exec) partition() (*model.Partition, error) {
	reg, span := obs.MetricsFrom(x.ctx), obs.CurrentSpan(x.ctx)
	if !x.p.aggIncr {
		span.SetAttr(obs.String("groups", "hash"))
		return nil, nil
	}
	v := x.rels[0].View()
	if part := v.Partition(x.p.groupSig); part != nil {
		span.SetAttr(obs.String("groups", "partition"))
		reg.Counter(obs.MetricPartitionsReused).Inc()
		return part, nil
	}
	span.SetAttr(obs.String("groups", "hash"))
	asg, cur := v.NewPartition(x.p.groupSig), v.Cursor()
	for row, n := 0, v.Len(); row < n; row++ {
		if ok, err := x.bind(&x.atoms[0], cur.Tuple(row), true); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		if err := x.rhsDims(); err != nil {
			return nil, err
		}
		asg.AssignRow(row, x.out)
	}
	reg.Counter(obs.MetricPartitionsBuilt).Inc()
	return asg.Partition(), nil
}

// aggregate folds the tgd's bindings into groups, in binding order, and
// returns them by group ordinal. With part, the driving relation's partition
// by the rhs dimension terms, a binding's group is its driving row's, read
// before the row is bound; with only set as well, rows of other groups are
// skipped there, and the groups that remain see exactly the bindings, in
// exactly the order, of an unrestricted run. Without part a group is the
// ordinal an Assigner gives the rhs dimension tuple. Undefined points
// contribute nothing to the bag.
func (x *exec) aggregate(part *model.Partition, only []bool) ([]group, error) {
	var groups []group
	var asg *model.Assigner
	if part != nil {
		groups = make([]group, part.Groups())
		x.ords, x.only = part.Ordinals(0, x.rels[0].Len()), only
	} else {
		asg = model.NewAssigner()
	}
	x.emit = func() error {
		g := x.group
		if asg != nil {
			if err := x.rhsDims(); err != nil {
				return err
			}
			if g = asg.Assign(x.out); int(g) == len(groups) {
				groups = append(groups, group{})
			}
		}
		mv, defined, err := x.measure()
		if err != nil || !defined {
			return err
		}
		gr := &groups[g]
		if gr.acc.N() == 0 {
			if asg == nil { // the group's key, from any of its bindings
				if err := x.rhsDims(); err != nil {
					return err
				}
			}
			gr.dims = slices.Clone(x.out)
		}
		gr.acc.Add(x.p.fold, &gr.bag, mv)
		return nil
	}
	return groups, x.join(0)
}
