package chase

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/ops"
)

// plan is one tgd compiled for execution, once per Solver: its variables
// are slots of a flat binding buffer, its dimension terms and measure
// expression carry their operators already looked up, and every atom knows
// which of its positions are computed from earlier bindings (probe) and
// which instantiate variables (bind). A plan is immutable, so full and
// incremental applications, concurrent or not, share it; what one
// application mutates lives in its exec.
type plan struct {
	t *mapping.Tgd
	// err says why the tgd cannot be evaluated (an unbound variable, an
	// unknown operator, a term that cannot be inverted). It fails the
	// chase when the tgd is applied, not when the Solver is built.
	err error

	slots int // variables of the tgd

	// lhs is the left-hand side in join order: lhs[0] drives, every later
	// atom is probed under the bindings of the ones before it. alone[i]
	// is atom i compiled as if it drove — no variable bound before it —
	// which is how a delta tuple of its relation is turned back into a
	// binding; alone[i].err is set when that inversion is impossible.
	lhs   []atomPlan
	alone []atomPlan
	rhs   []dimTerm
	// prog is the measure expression, run a column at a time on the column
	// path (exec.columns) and over columns of one at a single binding
	// (exec.measure).
	prog *colProg

	// shared: the rhs dimension terms are the driving atom's variables
	// verbatim and every other atom matches at most one tuple, so each
	// output tuple sits at its driving tuple's dimension tuple and the
	// output stands on the driving relation's key set (model.Cube.Derive).
	shared bool
	// aligned: the plan is shared, every later atom is aligned, and every
	// variable prog reads is the measure of one atom, so prog may run over
	// the atoms' measure columns (exec.columns).
	aligned bool

	// keyed is the tuple-level tgd turned around for maintenance: the
	// output key gives the binding, then every atom is probed. It is nil
	// when bindings are not determined by the output key.
	keyed *keyedPlan
	// aggIncr: a single-atom aggregation whose group key is a function of
	// the atom's dimensions, maintainable group by group. The grouping then
	// belongs to the relation's key set (model.View.Partition), which knows it
	// under groupSig.
	aggIncr  bool
	groupSig string

	fold   ops.Fold       // Aggregation
	series ops.SeriesFunc // BlackBox
	pad    *padPlan       // PadVector
}

// atomPlan is one atom under a fixed set of already-bound variables.
type atomPlan struct {
	rel   string
	arity int
	probe []probeTerm
	binds []bindTerm
	mslot int   // slot of the measure variable, -1 without one
	err   error // alone plans only: the atom cannot be inverted
	// aligned: an atom of a shared plan whose dimension terms are the
	// driving atom's, position by position. Over a relation on the driving
	// relation's key set its one match is the tuple at the driving row.
	aligned bool
}

// full reports whether the probe positions cover every dimension: the
// atom then matches at most one tuple, found by key in the relation itself.
func (a *atomPlan) full() bool { return len(a.binds) == 0 }

// probeTerm is a position whose value follows from the binding so far.
type probeTerm struct {
	pos  int
	term dimTerm
}

// bindTerm is a position that instantiates a variable: the term denotes
// slot+shift, so the variable is the tuple's value minus shift. check
// marks a variable an earlier position of the same atom already set, with
// which this one must agree.
type bindTerm struct {
	pos, slot int
	shift     int64
	check     bool
}

// dimTerm is a compiled dimension term: a constant (slot < 0) or a
// variable, optionally shifted or wrapped in a dimension function.
type dimTerm struct {
	slot  int
	konst model.Value
	shift int64
	fn    func(model.Value) (model.Value, error)
}

func (d *dimTerm) eval(vals []model.Value) (model.Value, error) {
	if d.slot < 0 {
		return d.konst, nil
	}
	v := vals[d.slot]
	switch {
	case d.shift != 0:
		return ops.ShiftValue(v, d.shift)
	case d.fn != nil:
		return d.fn(v)
	}
	return v, nil
}

// keyedPlan is a tuple-level tgd evaluated from an output key: rhs is the
// right-hand side atom compiled as a driver, so binding it against a key
// recovers the variables, and atoms are the lhs atoms with all of those
// bound — each a full-key probe. determines[i] says that lhs atom i on
// its own binds every key variable, so its delta tuples name the output
// points they affect.
type keyedPlan struct {
	rhs        atomPlan
	atoms      []atomPlan
	determines []bool
}

// padPlan is a padded vectorial tgd: order[a][j] is the rhs position of
// the variable at operand a's position j (each operand is a permutation
// of the rhs variables), op the binary operator.
type padPlan struct {
	order [2][]int
	op    ops.Op
}

// compiler holds the name → slot table of the tgd being compiled; names
// are not looked at again once the plan is built.
type compiler struct {
	slot map[string]int
}

func (c *compiler) slotOf(name string) int {
	s, ok := c.slot[name]
	if !ok {
		s = len(c.slot)
		c.slot[name] = s
	}
	return s
}

func compileTgd(t *mapping.Tgd) *plan {
	p := &plan{t: t}
	switch t.Kind {
	case mapping.BlackBox:
		p.series, p.err = ops.Series(t.BB)
	case mapping.PadVector:
		p.pad, p.err = compilePad(t)
	case mapping.TupleLevel, mapping.Aggregation:
		p.err = p.compileJoin()
	default:
		p.err = fmt.Errorf("unsupported tgd kind %s", t.Kind)
	}
	return p
}

func (p *plan) compileJoin() error {
	t := p.t
	c := &compiler{slot: make(map[string]int)}
	// Slots in order of first occurrence over the lhs.
	for _, a := range t.Lhs {
		for _, d := range a.Dims {
			if d.Var != "" {
				c.slotOf(d.Var)
			}
		}
		if a.MVar != "" {
			c.slotOf(a.MVar)
		}
	}
	p.slots = len(c.slot)

	bound := make(map[int]bool)
	for _, a := range t.Lhs {
		ap, err := c.atom(a, bound)
		if err != nil {
			return err
		}
		p.lhs = append(p.lhs, ap)
		alone, err := c.atom(a, map[int]bool{})
		alone.err = err
		p.alone = append(p.alone, alone)
	}
	if len(p.lhs) == 0 {
		return fmt.Errorf("tgd has no lhs atom")
	}

	for _, d := range t.Rhs.Dims {
		dt, err := c.term(d)
		if err != nil {
			return err
		}
		p.rhs = append(p.rhs, dt)
	}
	var err error
	if p.prog, err = c.colProgram(t.Measure); err != nil {
		return err
	}

	switch t.Kind {
	case mapping.TupleLevel:
		p.shared = sharesDrivingKey(t)
		p.aligned = p.shared
		for i := range p.lhs {
			p.lhs[i].aligned = p.shared && slices.Equal(t.Lhs[i].Dims, t.Lhs[0].Dims)
			p.aligned = p.aligned && p.lhs[i].aligned
		}
		for _, s := range p.prog.reads {
			p.aligned = p.aligned && p.measureColumn(s) >= 0
		}
		p.keyed = c.keyed(t, p.alone)
	case mapping.Aggregation:
		if p.fold, err = ops.FoldOf(t.Agg); err != nil {
			return err
		}
		if p.aggIncr = len(p.lhs) == 1 && p.alone[0].err == nil && keyFromDims(p.rhs, &p.alone[0]); p.aggIncr {
			p.groupSig = c.groupSig(t)
		}
	}
	return nil
}

// groupSig names, to a key set, how a single-atom aggregation groups the rows
// of its relation: the atom's dimension terms — which select and bind, by
// position — then the rhs terms that make the group key of what was bound.
// Variables are written as slots, so that the name is the same whatever the
// statement called them; "chase:" keeps it apart from the names of engines
// whose functions differ from ops.Dimension's.
func (c *compiler) groupSig(t *mapping.Tgd) string {
	b := []byte("chase:")
	for _, terms := range [][]mapping.DimTerm{t.Lhs[0].Dims, t.Rhs.Dims} {
		for _, d := range terms {
			if d.Const != nil {
				b = strconv.AppendQuote(b, model.EncodeKey([]model.Value{*d.Const}))
			} else {
				b = fmt.Appendf(b, "%s($%d%+d)", d.Func, c.slot[d.Var], d.Shift)
			}
			b = append(b, ',')
		}
		b = append(b, "->"...)
	}
	return string(b)
}

// term compiles a dimension term whose variable, if any, is already bound.
func (c *compiler) term(d mapping.DimTerm) (dimTerm, error) {
	if d.Const != nil {
		return dimTerm{slot: -1, konst: *d.Const}, nil
	}
	slot, ok := c.slot[d.Var]
	if !ok {
		return dimTerm{}, fmt.Errorf("unbound variable %s in dimension term", d.Var)
	}
	dt := dimTerm{slot: slot, shift: d.Shift}
	if d.Shift == 0 && d.Func != "" {
		f, err := ops.Dimension(d.Func)
		if err != nil {
			return dimTerm{}, err
		}
		dt.fn = f.Apply
	}
	return dt, nil
}

// atom compiles one atom given the slots bound before it, and adds the
// slots it binds to bound. Positions whose term value is computable from
// the binding so far are probe positions; the rest bind variables.
func (c *compiler) atom(a mapping.Atom, bound map[int]bool) (atomPlan, error) {
	ap := atomPlan{rel: a.Rel, arity: len(a.Dims), mslot: -1}
	here := make(map[int]bool)
	for j, d := range a.Dims {
		switch {
		case d.Const != nil || (d.Var != "" && bound[c.slot[d.Var]]):
			dt, err := c.term(d)
			if err != nil {
				return ap, err
			}
			ap.probe = append(ap.probe, probeTerm{pos: j, term: dt})
		case d.Func != "":
			return ap, fmt.Errorf("dimension function %s over unbound variable %s in lhs is not invertible", d.Func, d.Var)
		case d.Var == "":
			return ap, fmt.Errorf("atom %s has an empty term at dimension %d", a.Rel, j)
		default:
			slot := c.slot[d.Var]
			ap.binds = append(ap.binds, bindTerm{pos: j, slot: slot, shift: d.Shift, check: here[slot]})
			here[slot] = true
		}
	}
	for slot := range here {
		bound[slot] = true
	}
	if a.MVar != "" {
		ap.mslot = c.slot[a.MVar]
		bound[ap.mslot] = true
	}
	return ap, nil
}

// colProg is a measure expression compiled once, to steps in evaluation
// order, each an ops.Op applied to its operands into a register. Register 0
// is the output, the others scratch the exec keeps. The value is at root:
// register 0, unless the expression is a lone variable or constant. The
// program runs a column at a time (run), a register a column and a variable
// its atom's measure column, or at one binding (at), a register and a
// variable one value each: every step is then its operator at a point.
type colProg struct {
	steps []colStep
	regs  int
	root  colRef
	reads []int // the slots of the variables the program reads, each once
}

type colStep struct {
	op   ops.Op
	dst  int
	x, y colRef
}

// colRef is an operand of a step: a register (reg >= 0), a variable's slot
// (slot >= 0) or a constant, k, a column of one.
type colRef struct {
	reg, slot int
	k         []float64
}

// colProgram compiles the measure expression m. An unbound variable, an
// unknown operator or one applied to as many arguments as it does not take
// is an error, which the plan carries.
func (c *compiler) colProgram(m *mapping.MTerm) (*colProg, error) {
	if m == nil {
		return nil, fmt.Errorf("tgd has no measure term")
	}
	pr := &colProg{regs: 1}
	root, err := pr.term(c, m, 0)
	pr.root = root
	return pr, err
}

// term compiles m to be evaluated into register reg: its first argument goes
// there too, its second into reg+1, so an argument is computed in registers no
// argument before it holds.
func (pr *colProg) term(c *compiler, m *mapping.MTerm, reg int) (colRef, error) {
	switch m.Kind {
	case mapping.MConst:
		return colRef{reg: -1, slot: -1, k: []float64{m.Val}}, nil
	case mapping.MVar:
		slot, ok := c.slot[m.Var]
		if !ok {
			return colRef{}, fmt.Errorf("unbound measure variable %s", m.Var)
		}
		if !slices.Contains(pr.reads, slot) {
			pr.reads = append(pr.reads, slot)
		}
		return colRef{reg: -1, slot: slot}, nil
	case mapping.MApply:
		op, err := ops.OpOf(m.Op)
		if err != nil {
			return colRef{}, err
		}
		if n := len(m.Args) + len(m.Params); n != op.Arity() {
			return colRef{}, fmt.Errorf("%s takes %d argument(s), got %d", op, op.Arity(), n)
		}
		var args [2]colRef
		for i, a := range m.Args {
			if args[i], err = pr.term(c, a, reg+i); err != nil {
				return colRef{}, err
			}
		}
		for j := range m.Params {
			args[len(m.Args)+j] = colRef{reg: -1, slot: -1, k: m.Params[j : j+1]}
		}
		if op.Arity() == 1 {
			args[1] = args[0]
		}
		pr.steps = append(pr.steps, colStep{op: op, dst: reg, x: args[0], y: args[1]})
		pr.regs = max(pr.regs, reg+1)
		return colRef{reg: reg, slot: -1}, nil
	default:
		return colRef{}, fmt.Errorf("unknown measure term kind %d", m.Kind)
	}
}

// measureColumn returns the lhs atom whose measure variable is in slot, or -1
// where none or two are.
func (p *plan) measureColumn(slot int) int {
	a := slices.IndexFunc(p.lhs, func(a atomPlan) bool { return a.mslot == slot })
	if a < 0 || slices.ContainsFunc(p.lhs[a+1:], func(b atomPlan) bool { return b.mslot == slot }) {
		return -1
	}
	return a
}

// sharesDrivingKey reports whether every output tuple of the tuple-level
// tgd sits at the dimension tuple of the driving tuple it came from: the
// rhs terms are the driving atom's terms, all distinct plain variables,
// position by position, and no later atom binds a dimension variable (so
// a driving tuple has at most one binding).
func sharesDrivingKey(t *mapping.Tgd) bool {
	drive := t.Lhs[0].Dims
	if len(t.Rhs.Dims) != len(drive) {
		return false
	}
	vars := make(map[string]bool, len(drive))
	for j, d := range drive {
		if d.Var == "" || d.Shift != 0 || d.Func != "" || d.Const != nil || vars[d.Var] || t.Rhs.Dims[j] != d {
			return false
		}
		vars[d.Var] = true
	}
	for i, a := range t.Lhs {
		if vars[a.MVar] {
			return false // a measure overwriting a key variable
		}
		for _, d := range a.Dims {
			if i > 0 && d.Const == nil && !vars[d.Var] {
				return false
			}
		}
	}
	return true
}

// keyed turns a tuple-level tgd around for maintenance (see keyedPlan).
// It applies when the binding is key-determined: every rhs dimension term
// is a constant or an invertible variable, and every lhs atom's dimension
// variables are among the rhs variables. Then each output point has at
// most one binding, recovered by inverting the key.
func (c *compiler) keyed(t *mapping.Tgd, alone []atomPlan) *keyedPlan {
	key := make(map[int]bool)
	rhs, err := c.atom(mapping.Atom{Rel: t.Rhs.Rel, Dims: t.Rhs.Dims}, key)
	if err != nil {
		return nil // an rhs term is not invertible
	}
	k := &keyedPlan{rhs: rhs}
	for i, a := range t.Lhs {
		ap, err := c.atom(a, maps.Clone(key))
		if err != nil || !ap.full() {
			return nil // a variable the key does not determine
		}
		k.atoms = append(k.atoms, ap)
		distinct := 0
		for _, b := range alone[i].binds {
			if !b.check {
				distinct++
			}
		}
		k.determines = append(k.determines, alone[i].err == nil && distinct == len(key))
	}
	return k
}

// keyFromDims reports whether every rhs term is a constant or reads a
// dimension variable of the (driving) atom: a group key that cannot move
// with a measure.
func keyFromDims(rhs []dimTerm, a *atomPlan) bool {
	dims := make(map[int]bool, len(a.binds))
	for _, b := range a.binds {
		dims[b.slot] = true
	}
	for _, d := range rhs {
		if d.slot >= 0 && (!dims[d.slot] || d.slot == a.mslot) {
			return false
		}
	}
	return true
}

// compilePad checks the shape of a padded vectorial tgd — two operands,
// each a permutation of the rhs's plain variables — and fixes the
// position maps.
func compilePad(t *mapping.Tgd) (*padPlan, error) {
	if len(t.Lhs) != 2 {
		return nil, fmt.Errorf("padded tgds take two operands, got %d", len(t.Lhs))
	}
	plain := func(d mapping.DimTerm) bool {
		return d.Var != "" && d.Shift == 0 && d.Func == "" && d.Const == nil
	}
	rhsPos := make(map[string]int, len(t.Rhs.Dims))
	for i, d := range t.Rhs.Dims {
		if _, dup := rhsPos[d.Var]; dup || !plain(d) {
			return nil, fmt.Errorf("padded tgds require distinct plain variables")
		}
		rhsPos[d.Var] = i
	}
	p := &padPlan{}
	for ai, atom := range t.Lhs {
		seen := make(map[string]bool, len(atom.Dims))
		for _, d := range atom.Dims {
			if !plain(d) {
				return nil, fmt.Errorf("padded tgds require plain variable atoms")
			}
			i, ok := rhsPos[d.Var]
			if !ok || seen[d.Var] {
				return nil, fmt.Errorf("padded tgds require each operand to bind the rhs variables once each: %s in %s", d.Var, atom.Rel)
			}
			seen[d.Var] = true
			p.order[ai] = append(p.order[ai], i)
		}
		for _, d := range t.Rhs.Dims {
			if !seen[d.Var] {
				return nil, fmt.Errorf("rhs variable %s not bound by atom %s", d.Var, atom.Rel)
			}
		}
	}
	var err error
	if p.op, err = ops.OpOf(t.PadOp); err == nil && p.op.Arity() != 2 {
		err = fmt.Errorf("padded tgds take a binary operator, not %s", p.op)
	}
	return p, err
}
