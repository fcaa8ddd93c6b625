package model

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// keySet is the part of a version that its measures play no part in: the
// dimension tuples in cube order, each with its row key, and a key → row index
// built once probing has earned it (see row). It is immutable and shared by
// reference, by every version Revise, Apply, Derive or a following Builder
// found to hold the same dimension tuples.
type keySet struct {
	tuples []dimTuple
	once   sync.Once
	index  atomic.Pointer[map[string]int] // tuples[i].key → i; read through row
	probes atomic.Int64                   // what row has searched for so far
	est    atomic.Int64                   // memEstimate's cache (0 = not estimated yet)
	parts  partitions                     // how the rows have been grouped (partition.go)
}

// dimTuple is one dimension tuple: the Dims its tuples show, and its row key.
type dimTuple struct {
	dims []Value
	key  string
}

// View is a cube version in column form: a key set and the measure column
// aligned with it, in cube order. It is never written to once a cube points at
// it — a mutation of the cube drops the cube's pointer and leaves the View
// alone — so a View taken from any cube, frozen or not, goes on showing the
// version it was taken from, to any number of goroutines.
type View struct {
	keys     *keySet
	measures []float64
}

// Len returns the number of tuples.
func (p *View) Len() int { return len(p.measures) }

// Tuple returns the i-th tuple in cube order. Its Dims are the version's
// own and must be left untouched.
func (p *View) Tuple(i int) Tuple { return Tuple{p.keys.tuples[i].dims, p.measures[i]} }

// Measures returns the measure column in cube order, the version's own: to be
// read, not written.
func (p *View) Measures() []float64 { return p.measures[:len(p.measures):len(p.measures)] }

// Row returns the row of the tuple whose dimension tuple is dims, if the
// version has one: a probe of its key set (see row).
func (p *View) Row(dims []Value) (int, bool) {
	var buf [keyBufSize]byte
	return p.keys.row(AppendKey(buf[:0], dims))
}

// row returns the row of the tuple with the key, if the key set has it. A
// handful of probes — a replayed delta, the points a maintained output
// recomputes — are binary searches of the ordered keys: a key set an insert
// has just made is not hashed for them. The index is built once the searches
// have compared as many keys as it holds, which a caller that probes every
// row reaches early in its first scan, and serves every probe from then on.
func (ks *keySet) row(key []byte) (int, bool) {
	index := ks.index.Load()
	if index == nil {
		n := len(ks.tuples)
		if int(ks.probes.Add(1))*bits.Len(uint(n)) <= n {
			lo, hi := 0, n // a loop of its own: key, a caller's stack buffer, goes nowhere
			for lo < hi {
				if mid := int(uint(lo+hi) >> 1); ks.tuples[mid].key < string(key) {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			return lo, lo < n && ks.tuples[lo].key == string(key)
		}
		ks.once.Do(func() {
			index := make(map[string]int, n)
			for i, t := range ks.tuples {
				index[t.key] = i
			}
			ks.index.Store(&index)
		})
		index = ks.index.Load()
	}
	i, ok := (*index)[string(key)]
	return i, ok
}

// keySetTupleBytes is what memEstimate charges a key set per tuple beside
// its key bytes and values: the Dims and key headers (40), an index entry
// whether or not the index is built yet (a 25-byte slot, at the load a map has
// just after it grew: 57), and the key's allocation rounded up to its size
// class (see tupleOverheadBytes for why it rounds up).
const keySetTupleBytes = 104

// memEstimate is Cube.MemEstimate's share for the key set. It walks the
// dimension values once per key set, not once per version; the partitions,
// which arrive later, are charged as they are held when it is called.
func (ks *keySet) memEstimate() int64 {
	return ks.tuplesEstimate() + ks.parts.memEstimate()
}

func (ks *keySet) tuplesEstimate() int64 {
	if v := ks.est.Load(); v > 0 {
		return v
	}
	n := int64(tupleOverheadBytes)
	for _, t := range ks.tuples {
		n += keySetTupleBytes + int64(len(t.key))
		for _, v := range t.dims {
			n += valueShellBytes + int64(len(v.str))
		}
	}
	ks.est.Store(n)
	return n
}

// View returns the cube's column form, whose order is the cube's
// deterministic order: the byte order of the tuples' row keys (see AppendKey),
// which gives every engine the same iteration order. A frozen cube is its
// View. A mutable cube folds its edits into its base on the first read in
// order — sorting them over the empty version (order.go) — and every reader
// shares the fold until the next mutation.
func (c *Cube) View() *View {
	if p := c.cols.Load(); p != nil {
		return p
	}
	p := c.base
	switch {
	case p != nil && len(c.edits) == 0: // nothing to fold
	case p == nil || p.Len() == 0:
		ks := &keySet{tuples: make([]dimTuple, 0, len(c.edits))}
		p = &View{keys: ks, measures: make([]float64, 0, len(c.edits))}
		for k, e := range c.edits {
			ks.tuples, p.measures = append(ks.tuples, dimTuple{e.Dims, k}), append(p.measures, e.Measure)
		}
		sortByKeys(ks.tuples, p.measures)
	default:
		p = c.fold()
	}
	if !c.cols.CompareAndSwap(nil, p) {
		p = c.cols.Load()
	}
	return p
}

// fold is View's over a version other than the empty one: edits that only
// restate measures patch a copy of its measure column at their rows, 8 B per
// tuple on its key set; edits that add or delete are Applied.
func (c *Cube) fold() *View {
	for _, e := range c.edits {
		if e.gone || e.row < 0 {
			next, err := onKeySet(c.schema, c.base).Apply(c.delta(true))
			if err != nil {
				panic(err) // the edits were made over this base
			}
			return next.View()
		}
	}
	q := &View{keys: c.base.keys, measures: slices.Clone(c.base.measures)}
	for _, e := range c.edits {
		q.measures[e.row] = e.Measure
	}
	return q
}

// delta returns the edits as the lists of a delta from the base, in cube
// order: the tuples added, the base's tuples restated (all, or those whose
// measure is not == the base's, as changedBetween counts them) and the base's
// tuples deleted.
func (c *Cube) delta(all bool) (added, changed, deleted []Tuple) {
	var adds []string
	rows := make([]int, 0, len(c.edits))
	for k, e := range c.edits {
		if e.row < 0 {
			adds = append(adds, k)
		} else {
			rows = append(rows, e.row)
		}
	}
	slices.Sort(adds)
	slices.Sort(rows)
	for _, k := range adds {
		added = append(added, c.edits[k].Tuple)
	}
	changed = make([]Tuple, 0, len(rows)) // a store keeps it: in a revision, its size
	for _, i := range rows {
		switch e := c.edits[c.base.keys.tuples[i].key]; {
		case e.gone:
			deleted = append(deleted, c.base.Tuple(i))
		case all || e.Measure != c.base.measures[i]:
			changed = append(changed, e.Tuple)
		}
	}
	return added, changed, deleted
}

// Revise returns how c differs from prev, a frozen cube under the same
// schema (nil otherwise), with c's content as a frozen version in Current.
//
// A mutable c over prev — its Clone, edited — is its own delta: the edits,
// but for tuples restated to the measure they had; Current is its View. Any
// other c is taken as its View, and the two key sequences are merged: where
// they hold the same dimension tuples Current is c's measure column on prev's
// key set, where they do not it is c (if mutable, a Snapshot) and the delta
// lists what was added and deleted as well. A c already on prev's key set — a
// full run's output, derived anew on its operand's — is nil: it is kept as it
// is, and how two columns over one key set differ is one pass whenever
// somebody asks. c stays the caller's (but for View's rule).
//
// On prev's key set, Current's tuples carry prev's Dims slices rather than
// c's: Values that encode to one key and so are Equal (Int 3 for Num 3.0).
func (prev *Cube) Revise(c *Cube) *CubeDelta {
	if !prev.Frozen() || !prev.schema.Equal(c.schema) {
		return nil
	}
	p := prev.View()
	d := &CubeDelta{Name: c.schema.Name, Base: prev, Current: c.Snapshot()}
	if !c.Frozen() && c.base == p {
		d.Added, d.Changed, d.Deleted = c.delta(false)
		return d
	}
	q := d.Current.View()
	if q.keys == p.keys {
		return nil
	}
	d.Added, d.Changed, d.Deleted, _ = diffViews(p, q, math.MaxInt)
	if len(d.Added)+len(d.Deleted) == 0 {
		d.Current = onKeySet(c.schema, &View{keys: p.keys, measures: q.measures})
	}
	return d
}

// onKeySet returns the frozen version under schema that holds q.
func onKeySet(schema Schema, q *View) *Cube {
	c := &Cube{schema: schema, base: q, n: q.Len()}
	c.cols.Store(q)
	return c
}

// ErrMisfit is Cube.Apply's error for a delta not made from the cube it meets.
var ErrMisfit = errors.New("model: delta does not fit its base")

// Apply returns the version that follows c by a delta, frozen: c's tuples
// with added put in, changed restated and deleted taken out — a maintained
// output, a replayed record, which is input from outside the program. The
// delta must fit c: a tuple it adds that c has, or changes or deletes that c
// lacks, a list out of cube order and a tuple named twice are each an ErrMisfit
// naming the tuple. (Only the Dims of a deleted tuple are read.) c is left as
// it was.
//
// A delta that only restates measures yields c's key set under a copy of its
// measure column, patched at the changed tuples: 8 B per tuple. One that adds
// or deletes is merged into c's order: a key set of its own whose Dims and row
// keys are c's wherever the tuple survives.
func (c *Cube) Apply(added, changed, deleted []Tuple) (*Cube, error) {
	misfit := func(verb string, t Tuple, why string) error {
		return fmt.Errorf("%w: that of %s %s %s%s", ErrMisfit, c.schema.Name, verb, t.Dims, why)
	}
	p := c.View()
	if len(added) == 0 && len(deleted) == 0 {
		q := &View{keys: p.keys, measures: slices.Clone(p.measures)}
		last := -1
		var buf [keyBufSize]byte
		for _, t := range changed {
			i, ok := p.keys.row(AppendKey(buf[:0], t.Dims))
			switch {
			case !ok:
				return nil, misfit("changes", t, ", which the base lacks")
			case i == last:
				return nil, misfit("names", t, " twice")
			case i < last:
				return nil, misfit("lists", t, " out of order")
			}
			q.measures[i], last = t.Measure, i
		}
		return onKeySet(c.schema, q), nil
	}

	// The three lists as one, in cube order: a tuple in two shows as neighbours.
	type listed struct {
		Tuple
		key, verb string
	}
	edits := make([]listed, 0, len(added)+len(changed)+len(deleted))
	for l, ts := range [][]Tuple{added, changed, deleted} {
		for i, t := range ts {
			e := listed{t, EncodeKey(t.Dims), [...]string{"adds", "changes", "deletes"}[l]}
			if i > 0 && edits[len(edits)-1].key > e.key {
				return nil, misfit("lists", t, " out of order")
			}
			edits = append(edits, e)
		}
	}
	slices.SortStableFunc(edits, func(a, b listed) int { return strings.Compare(a.key, b.key) })

	base := p.keys.tuples
	n := max(len(base)+len(added)-len(deleted), 0)
	tuples, measures := make([]dimTuple, 0, n), make([]float64, 0, n)
	at := 0 // base[:at] is merged
	for i, e := range edits {
		if i > 0 && edits[i-1].key == e.key {
			return nil, misfit("names", e.Tuple, " twice")
		}
		n, has := slices.BinarySearchFunc(base[at:], e.key, func(t dimTuple, k string) int { return strings.Compare(t.key, k) })
		tuples, measures = append(tuples, base[at:at+n]...), append(measures, p.measures[at:at+n]...)
		at += n
		switch {
		case e.verb == "adds" && has:
			return nil, misfit(e.verb, e.Tuple, ", which the base has")
		case e.verb != "adds" && !has:
			return nil, misfit(e.verb, e.Tuple, ", which the base lacks")
		case e.verb == "adds":
			tuples, measures = append(tuples, dimTuple{slices.Clone(e.Dims), e.key}), append(measures, e.Measure)
		case e.verb == "changes":
			tuples, measures = append(tuples, base[at]), append(measures, e.Measure)
			at++
		default:
			at++
		}
	}
	tuples, measures = append(tuples, base[at:]...), append(measures, p.measures[at:]...)
	return onKeySet(c.schema, &View{keys: &keySet{tuples: tuples}, measures: measures}), nil
}

// Derive is DeriveColumn of the measures f returns: it scans c in cube order
// and asks f for the measure at every tuple (i is the tuple's row in
// c.View()), dropping the tuples f does not keep. The scan stops at f's first
// error, which is returned with nothing built.
func (c *Cube) Derive(schema Schema, f func(i int, t Tuple) (measure float64, keep bool, err error)) (*Cube, error) {
	if err := c.derivable(schema); err != nil {
		return nil, err
	}
	p := c.View()
	measures := make([]float64, len(p.measures))
	var drop []bool
	for i := range measures {
		m, keep, err := f(i, p.Tuple(i))
		if err != nil {
			return nil, err
		}
		if !keep {
			if drop == nil {
				drop = make([]bool, len(measures))
			}
			drop[i] = true
		}
		measures[i] = m
	}
	return c.DeriveColumn(schema, measures, drop)
}

// DeriveColumn returns, frozen and under schema, the version defined point by
// point on c's tuples: measures[i] at c.View()'s row i, for every row that
// drop does not mark — what a scalar or vectorial statement's output is to its
// operand. measures is as long as c; drop is nil (no row dropped) or as long.
// schema must have as many dimensions as c's; c is left as it was (but for
// View's rule).
//
// Where no row is dropped the version is c's key set, by reference, under
// measures itself, which the caller hands over: as a revision of c would be.
// Where some are, it stands on a key set of its own that holds the kept
// subsequence, Dims and row keys shared with c's, at the size of what was
// kept. A key set's tuples are pairwise distinct, so there is no egd for
// DeriveColumn to check.
func (c *Cube) DeriveColumn(schema Schema, measures []float64, drop []bool) (*Cube, error) {
	if err := c.derivable(schema); err != nil {
		return nil, err
	}
	p := c.View()
	if len(measures) != p.Len() || drop != nil && len(drop) != p.Len() {
		return nil, fmt.Errorf("model: cube %s derived from %d measures (%d marks) over %d tuples", schema.Name, len(measures), len(drop), p.Len())
	}
	if drop == nil {
		return onKeySet(schema, &View{keys: p.keys, measures: measures}), nil
	}
	// Both columns at the size of what was kept: a store keeps every version.
	n := 0
	for _, d := range drop {
		if !d {
			n++
		}
	}
	tuples, kept := make([]dimTuple, 0, n), make([]float64, 0, n)
	for i, d := range drop {
		if !d {
			tuples, kept = append(tuples, p.keys.tuples[i]), append(kept, measures[i])
		}
	}
	return onKeySet(schema, &View{keys: &keySet{tuples: tuples}, measures: kept}), nil
}

func (c *Cube) derivable(schema Schema) error {
	if len(schema.Dims) != len(c.schema.Dims) {
		return fmt.Errorf("model: cube %s expects %d dimensions, got %d", schema.Name, len(schema.Dims), len(c.schema.Dims))
	}
	return nil
}

// changedBetween lists, in cube order, the tuples of q whose measure is not
// the one p has at the same position, for two columns over one key set: the
// whole delta between them. It gives up (false) past limit tuples. The first
// pass counts, so that the list, which a store keeps, is allocated at its size.
func changedBetween(p, q *View, limit int) ([]Tuple, bool) {
	n := 0
	for i, m := range q.measures {
		if m != p.measures[i] {
			n++
		}
	}
	if n == 0 || n > limit {
		return nil, n == 0
	}
	changed := make([]Tuple, 0, n)
	for i, m := range q.measures {
		if m != p.measures[i] {
			changed = append(changed, q.Tuple(i))
		}
	}
	return changed, true
}
