package mapping

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Fuse simplifies a normalized mapping in place by inlining auxiliary
// tuple-level tgds into their (single) consumers, reproducing the paper's
// simplification step: statement (5), first normalized into (5a)-(5d), ends
// up as the single tgd
//
//	GDPT(q, y1) ∧ GDPT(q-1, y2) → PCHNG(q, (y1 - y2) * 100 / y1)
//
// Shift tgds fuse by inverting the dimension arithmetic into the consumer's
// lhs atom (the q-1 above); scalar and vectorial tgds fuse by substituting
// their measure expression for the consumed measure variable. Atoms that
// become identical after fusion are merged. Black-box tgds and their
// operands are never fused: a black box needs its whole operand
// materialized.
//
// The pass is linear in the size of the mapping. The tgds that are not
// inlined anywhere are visited consumers first (the reverse of the
// stratified order), and each expands its chain of auxiliary producers
// top-down in one walk: a producer's atoms are substituted once, against
// terms already expressed in the variables of the tgd being built, and
// its measure is copied once, with each inlined producer's measure in
// place of the variable it bound.
func Fuse(m *Mapping) {
	f := fuser{
		producer:  make(map[string]*Tgd, len(m.Tgds)),
		inlinable: make(map[string]bool),
		inlined:   make(map[*Tgd]bool),
	}
	uses := make(map[string]int)
	blackBoxOperand := make(map[string]bool)
	for _, t := range m.Tgds {
		f.producer[t.Target()] = t
		for _, a := range t.Lhs {
			uses[a.Rel]++
			if t.Kind == BlackBox {
				blackBoxOperand[a.Rel] = true
			}
		}
	}
	for _, c := range m.Tgds {
		// Padded tgds need both operands materialized: their semantics
		// ranges over each operand's whole tuple set.
		if c.Kind == BlackBox || c.Kind == Copy || c.Kind == PadVector {
			continue
		}
		for _, a := range c.Lhs {
			p := f.producer[a.Rel]
			f.inlinable[a.Rel] = p != nil && p.Auxiliary && p.Kind == TupleLevel &&
				uses[a.Rel] == 1 && !blackBoxOperand[a.Rel]
		}
	}
	// A producer precedes its consumer in stratified order, so by the time
	// a tgd is reached here every tgd that could inline it has been built.
	for i := len(m.Tgds) - 1; i >= 0; i-- {
		t := m.Tgds[i]
		if f.inlined[t] {
			delete(m.Schemas, t.Target())
			continue
		}
		changed := f.build(t)
		dedupAtoms(t)
		if changed {
			canonicalizeMeasureVars(t)
		}
	}
	m.Tgds = slices.DeleteFunc(m.Tgds, func(t *Tgd) bool { return f.inlined[t] })
	m.rebuildEgds()
}

// fuser holds the state of one fusion pass.
type fuser struct {
	producer  map[string]*Tgd // the tgd populating each relation
	inlinable map[string]bool // relations whose producer may be inlined into their consumer
	inlined   map[*Tgd]bool   // producers inlined so far

	// Per built tgd: its variable names, and the next numeric suffix to
	// try for each base name a fresh variable was derived from.
	taken map[string]bool
	next  map[string]int
}

// build inlines every inlinable producer of t's atoms into t, recursively,
// and reports whether anything was inlined.
func (f *fuser) build(t *Tgd) bool {
	if !slices.ContainsFunc(t.Lhs, func(a Atom) bool { return f.inlinable[a.Rel] }) {
		return false
	}
	f.taken, f.next = t.Vars(), make(map[string]int)
	n := len(f.inlined)
	var lhs []Atom
	measure := f.expand(t, nil, &lhs)
	if len(f.inlined) == n {
		return false
	}
	t.Lhs, t.Measure = lhs, measure
	return true
}

// expand appends t's lhs atoms to lhs and returns t's measure over them.
// Each atom whose relation may be inlined, and whose terms unify with its
// producer's rhs, is replaced by that producer's expansion, recursively.
// A nil subst expands the tgd being built, whose variables keep their
// names; otherwise t is inlined: subst maps its rhs variables to terms of
// the tgd being built, and its other variables are renamed fresh.
func (f *fuser) expand(t *Tgd, subst map[string]DimTerm, lhs *[]Atom) *MTerm {
	rename := make(map[string]string)
	freshen := func(v string) string {
		if subst == nil || v == "" {
			return v
		}
		if r, ok := rename[v]; ok {
			return r
		}
		r := f.fresh(v)
		rename[v] = r
		return r
	}
	repl := make(map[string]*MTerm)
	for _, b := range t.Lhs {
		if subst != nil {
			b = b.Clone()
			for j, d := range b.Dims {
				if s, ok := subst[d.Var]; ok {
					b.Dims[j] = DimTerm{Var: s.Var, Shift: s.Shift + d.Shift, Func: d.Func}
				} else {
					b.Dims[j].Var = freshen(d.Var)
				}
			}
		}
		if p, ps := f.unify(b); p != nil {
			f.inlined[p] = true
			repl[b.MVar] = f.expand(p, ps, lhs)
			continue
		}
		b.MVar = freshen(b.MVar)
		*lhs = append(*lhs, b)
	}
	// Dimension substitutions never appear in measure expressions: measure
	// variables and dimension variables live in disjoint positions by
	// construction.
	return substitute(t.Measure, repl, rename)
}

// unify returns the producer of a's relation, if it may be inlined, with
// the substitution of its rhs variables that makes its rhs atom a. Only
// variable(+shift) terms are invertible; function terms and constants
// block fusion.
func (f *fuser) unify(a Atom) (*Tgd, map[string]DimTerm) {
	if !f.inlinable[a.Rel] {
		return nil, nil
	}
	t := f.producer[a.Rel]
	subst := make(map[string]DimTerm, len(t.Rhs.Dims))
	for j, rt := range t.Rhs.Dims {
		ct := a.Dims[j]
		if rt.Func != "" || rt.Const != nil || ct.Func != "" || ct.Const != nil {
			return nil, nil
		}
		// Unify rt.Var + rt.Shift = ct.Var + ct.Shift, so
		// rt.Var = ct.Var + (ct.Shift - rt.Shift).
		want := DimTerm{Var: ct.Var, Shift: ct.Shift - rt.Shift}
		if prev, ok := subst[rt.Var]; ok && prev != want {
			return nil, nil
		}
		subst[rt.Var] = want
	}
	return t, subst
}

// fresh returns a variable name derived from v that the tgd being built
// does not use yet, and takes it.
func (f *fuser) fresh(v string) string {
	name := v
	for f.taken[name] {
		n := max(f.next[v], 2)
		name = v + strconv.Itoa(n)
		f.next[v] = n + 1
	}
	f.taken[name] = true
	return name
}

// substitute returns a copy of m in which each variable with a term in repl
// is replaced by that term, used as it is once and copied for any further
// occurrence, and every other variable is renamed by rename, if it names
// it.
func substitute(m *MTerm, repl map[string]*MTerm, rename map[string]string) *MTerm {
	used := make(map[string]bool)
	var walk func(m *MTerm) *MTerm
	walk = func(m *MTerm) *MTerm {
		switch m.Kind {
		case MVar:
			if r, ok := repl[m.Var]; ok {
				if used[m.Var] {
					return r.Clone()
				}
				used[m.Var] = true
				return r
			}
			if r, ok := rename[m.Var]; ok {
				return MV(r)
			}
			return MV(m.Var)
		case MApply:
			out := &MTerm{Kind: MApply, Op: m.Op, Params: append([]float64(nil), m.Params...)}
			for _, a := range m.Args {
				out.Args = append(out.Args, walk(a))
			}
			return out
		default:
			return &MTerm{Kind: m.Kind, Val: m.Val}
		}
	}
	return walk(m)
}

// dedupAtoms merges lhs atoms of t that are identical on relation and
// dimension terms, unifying their measure variables. This turns the
// three-atom fusion result for PCHNG into the paper's two-atom tgd (5).
func dedupAtoms(t *Tgd) {
	if t.Kind == BlackBox || t.Kind == Copy || t.Kind == PadVector || len(t.Lhs) < 2 {
		return
	}
	// %#v renders every field of a term, a constant by its address, so
	// atoms share a key exactly when they are equal.
	seen := make(map[string]int, len(t.Lhs))
	rename := make(map[string]string)
	kept := t.Lhs[:0:0]
	for _, a := range t.Lhs {
		k := a.Rel + fmt.Sprintf("%#v", a.Dims)
		dup, ok := seen[k]
		if !ok {
			seen[k] = len(kept)
			kept = append(kept, a)
			continue
		}
		if a.MVar != "" && kept[dup].MVar != "" && a.MVar != kept[dup].MVar {
			rename[a.MVar] = kept[dup].MVar
		}
	}
	t.Lhs = kept
	if len(rename) > 0 && t.Measure != nil {
		t.Measure.RenameAll(rename)
	}
}

// canonicalizeMeasureVars renames the measure variables of a fused tgd to
// y1, …, yk (in order of first occurrence across lhs atoms), undoing the
// arbitrary fresh names introduced while inlining. Dimension variables are
// left untouched; clashes with them are avoided by switching to an m
// prefix.
func canonicalizeMeasureVars(t *Tgd) {
	if t.Kind == BlackBox || t.Kind == Copy {
		return
	}
	dimVars := make(map[string]bool)
	for _, a := range t.Lhs {
		for _, d := range a.Dims {
			dimVars[d.Var] = true
		}
	}
	prefix := "y"
	for prefixCollides(prefix, dimVars) {
		prefix = "m" + prefix
	}
	rename := make(map[string]string)
	n := 0
	for _, a := range t.Lhs {
		if a.MVar == "" {
			continue
		}
		if _, ok := rename[a.MVar]; !ok {
			n++
			rename[a.MVar] = fmt.Sprintf("%s%d", prefix, n)
		}
	}
	if n == 1 {
		// A single measure variable reads best unnumbered.
		for old := range rename {
			if !dimVars[prefix] {
				rename[old] = prefix
			}
		}
	}
	for i := range t.Lhs {
		if t.Lhs[i].MVar != "" {
			t.Lhs[i].MVar = rename[t.Lhs[i].MVar]
		}
	}
	if t.Measure != nil {
		t.Measure.RenameAll(rename)
	}
}

// prefixCollides reports whether any dimension variable is the prefix
// itself or the prefix followed by digits, which would clash with the
// canonical names prefix1…prefixN.
func prefixCollides(prefix string, dimVars map[string]bool) bool {
	for v := range dimVars {
		if rest, ok := strings.CutPrefix(v, prefix); ok && strings.Trim(rest, "0123456789") == "" {
			return true
		}
	}
	return false
}
