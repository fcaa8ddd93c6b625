package model

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// keySet is the part of a version's column form that its measures play no
// part in: the dimension tuples in cube order, each with its row key, and a
// key → row index built on the first probe. It is immutable and shared by
// reference: by every reader of the version it was sorted for, and by every
// version Revise, Apply or Derive found to hold the same dimension tuples.
type keySet struct {
	tuples []dimTuple

	once  sync.Once
	index map[string]int // tuples[i].key → i; read through rows

	est atomic.Int64 // memEstimate's cache (0 = not estimated yet)
}

// dimTuple is one dimension tuple of a key set: the Dims slice its tuples
// show, and the row key it encodes to.
type dimTuple struct {
	dims []Value
	key  string
}

// View is a cube version in column form: a key set and the measure column
// aligned with it, in cube order. Like the key set it is never written to
// once a cube points at it — a mutation of the cube drops the cube's pointer
// to its View and leaves the View alone — so a View taken from any cube,
// frozen or not, goes on showing the version it was taken from, to any
// number of goroutines, and reading it copies nothing.
type View struct {
	keys     *keySet
	measures []float64
}

// Len returns the number of tuples.
func (p *View) Len() int { return len(p.measures) }

// Tuple returns the i-th tuple in cube order. Its Dims are the version's
// own and must be left untouched.
func (p *View) Tuple(i int) Tuple {
	return Tuple{Dims: p.keys.tuples[i].dims, Measure: p.measures[i]}
}

// rows returns the key → row index, building it on the first call. Every
// version on the key set probes the one index.
func (ks *keySet) rows() map[string]int {
	ks.once.Do(func() {
		ks.index = make(map[string]int, len(ks.tuples))
		for i, t := range ks.tuples {
			ks.index[t.key] = i
		}
	})
	return ks.index
}

// keySetTupleBytes is what memEstimate charges a key set per tuple beside
// its key bytes and values: the Dims and key headers (40), an index entry
// whether or not the index has been built yet (a 25-byte slot, at the load a
// map has just after it grew: 57), and the key's allocation rounded up to its
// size class (see tupleOverheadBytes for why it rounds up).
const keySetTupleBytes = 104

// memEstimate is Cube.MemEstimate's share for the key set. It walks the
// dimension values once per key set, not once per version.
func (ks *keySet) memEstimate() int64 {
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
// deterministic order: the byte order of the tuples' row keys (see
// AppendKey), which gives every engine the same iteration order and keeps
// generated artifacts and test expectations stable. A cube held as a row
// map computes it on the first ordered scan of a version and caches it
// until the next mutation. What is returned is shared by every reader of
// the cube; Ordered and Tuples are loops over it.
func (c *Cube) View() *View {
	if p := c.cols.Load(); p != nil {
		return p
	}
	// One pass over the key lengths sizes the arena exactly; the second
	// gathers the columns and the keys together.
	n, size := len(c.rows), 0
	for k := range c.rows {
		size += keySpace(len(k))
	}
	ks := &keySet{tuples: make([]dimTuple, 0, n)}
	p := &View{keys: ks, measures: make([]float64, 0, n)}
	arena := make([]byte, 0, size)
	for k, t := range c.rows {
		ks.tuples, p.measures = append(ks.tuples, dimTuple{t.Dims, k}), append(p.measures, t.Measure)
		arena = appendArenaKey(arena, k)
	}
	sortByKeys(arena, ks.tuples, p.measures)
	// Readers of a frozen cube may race to the first scan; they all end up
	// on the one key set that got there first, so that a version's key set
	// has one identity for Revise to pass on.
	if !c.cols.CompareAndSwap(nil, p) {
		return c.cols.Load()
	}
	return p
}

// held returns the column form when it is all the cube holds — a version
// Revise, Apply or Derive made — and nil for a cube with a row map, cached
// order or not.
func (c *Cube) held() *View {
	if c.rows != nil {
		return nil
	}
	return c.cols.Load()
}

// lookup is Get by row key.
func (c *Cube) lookup(key string) (float64, bool) {
	if p := c.held(); p != nil {
		i, ok := p.keys.rows()[key]
		if !ok {
			return 0, false
		}
		return p.measures[i], true
	}
	t, ok := c.rows[key]
	return t.Measure, ok
}

// scan calls fn on every tuple with its row key until fn returns false: in
// cube order when columns are all the cube holds, in map order otherwise.
func (c *Cube) scan(fn func(key string, t Tuple) bool) {
	if p := c.held(); p != nil {
		for i, t := range p.keys.tuples {
			if !fn(t.key, Tuple{Dims: t.dims, Measure: p.measures[i]}) {
				return
			}
		}
		return
	}
	for k, t := range c.rows {
		if !fn(k, t) {
			return
		}
	}
}

// Revise returns how c differs from prev, with c's content as a new frozen
// version in Current that shares prev's key set — or nil when that sharing
// is not to be had: prev must be frozen, c must hold a row map under the same
// schema and as many tuples as prev, and every dimension tuple of prev must
// be in c. That is what a statistical revision looks like: measures restated
// at the dimension tuples already there.
//
// Where nobody has read prev in order yet, what Revise does reads off c. An
// unfrozen c would otherwise cost its caller a whole clone, so the order is
// built on prev here, once for every version that follows; a frozen c can be
// adopted as it is for nothing, and Revise declines.
//
// The one pass over prev's keys in cube order, probing c's row map, yields
// the new measure column and the exact Changed list, in cube order, and
// stops at the first key c lacks. The new version costs its measure column
// only: no clone, no sort, and a memory estimate in O(1). Its tuples carry
// prev's Dims slices rather than c's: a substitution between Values that
// encode to one key and therefore are Equal (an Int 3 may stand where c said
// Num 3.0). c itself is left as it was and stays the caller's.
func (prev *Cube) Revise(c *Cube) *CubeDelta {
	if !prev.frozen || c.rows == nil || len(c.rows) != prev.Len() || !prev.schema.Equal(c.schema) {
		return nil
	}
	p := prev.cols.Load()
	if p == nil {
		if c.frozen {
			return nil
		}
		p = prev.View()
	}
	q := &View{keys: p.keys, measures: make([]float64, len(p.measures))}
	for i, k := range p.keys.tuples {
		t, ok := c.rows[k.key]
		if !ok {
			return nil
		}
		q.measures[i] = t.Measure
	}
	changed, _ := changedBetween(p, q, len(q.measures))
	return &CubeDelta{Name: c.schema.Name, Base: prev, Current: onKeySet(c.schema, q), Changed: changed}
}

// onKeySet returns the frozen version under schema that holds q and nothing
// else.
func onKeySet(schema Schema, q *View) *Cube {
	c := &Cube{schema: schema, frozen: true}
	c.cols.Store(q)
	return c
}

// Apply returns the version that follows c by a delta, frozen: c's tuples
// with added put in, changed restated and deleted taken out. It is the one
// way a version comes from its predecessor and a delta — a maintained output,
// a replayed record. The delta must fit c: a tuple it adds that c has, or one
// it changes or deletes that c lacks, is an error naming the tuple. (Only the
// Dims of a deleted tuple are read.) c is left as it was.
//
// A delta that only restates measures — what a statistical revision is —
// yields c's key set under a copy of its measure column, patched at the
// changed tuples: 8 B per tuple, in order, its memory estimated in O(1). The
// order is built on c if nobody has read c in order yet, and from then on
// shared by every successor. A delta that adds or deletes moves the set of
// dimension tuples; its version is a clone of c's row map, edited.
func (c *Cube) Apply(added, changed, deleted []Tuple) (*Cube, error) {
	misfit := func(verb string, t Tuple, has string) error {
		return fmt.Errorf("model: delta of %s %s %s, which its base %s", c.schema.Name, verb, formatDims(t.Dims), has)
	}
	if len(added) == 0 && len(deleted) == 0 {
		p := c.View()
		rows := p.keys.rows()
		q := &View{keys: p.keys, measures: slices.Clone(p.measures)}
		var buf [keyBufSize]byte
		for _, t := range changed {
			i, ok := rows[string(AppendKey(buf[:0], t.Dims))]
			if !ok {
				return nil, misfit("changes", t, "lacks")
			}
			q.measures[i] = t.Measure
		}
		return onKeySet(c.schema, q), nil
	}
	out := c.Clone()
	for _, t := range added {
		if _, had := c.Get(t.Dims); had {
			return nil, misfit("adds", t, "has")
		}
		if err := out.Replace(t.Dims, t.Measure); err != nil {
			return nil, err
		}
	}
	for _, t := range changed {
		if _, had := c.Get(t.Dims); !had {
			return nil, misfit("changes", t, "lacks")
		}
		if err := out.Replace(t.Dims, t.Measure); err != nil {
			return nil, err
		}
	}
	for _, t := range deleted {
		if _, had := c.Get(t.Dims); !had {
			return nil, misfit("deletes", t, "lacks")
		}
		out.Delete(t.Dims)
	}
	return out.Freeze(), nil
}

// Derive returns, frozen and under schema, the version defined point by point
// on c's tuples: it scans c in cube order and holds, at every tuple f keeps
// (i is the tuple's row in c.View()), the measure f returns there — what a
// scalar or vectorial statement's output is to its operand. The scan stops at
// f's first error, which is returned with nothing built. schema must have as
// many dimensions as c's; c is left as it was, but for its order being cached
// (View's rule).
//
// Where f keeps every tuple the version is c's key set, by reference, under a
// new measure column, exactly as a revision of c would be. Where it drops
// some, the version stands on a key set of its own that holds the kept
// subsequence — in cube order as it is, Dims and row keys shared with c's,
// allocated at the size of what was kept. Either way a key set's tuples are
// pairwise distinct, so the result is functional by construction: there is no
// egd for Derive to check.
func (c *Cube) Derive(schema Schema, f func(i int, t Tuple) (measure float64, keep bool, err error)) (*Cube, error) {
	if len(schema.Dims) != len(c.schema.Dims) {
		return nil, fmt.Errorf("model: cube %s expects %d dimensions, got %d", schema.Name, len(schema.Dims), len(c.schema.Dims))
	}
	p := c.View()
	measures := make([]float64, 0, len(p.measures))
	drop := -1     // the first row f dropped
	var rows []int // the rows it kept after that one
	for i := range p.measures {
		m, keep, err := f(i, p.Tuple(i))
		switch {
		case err != nil:
			return nil, err
		case keep:
			measures = append(measures, m)
			if drop >= 0 {
				rows = append(rows, i)
			}
		case drop < 0:
			drop = i
		}
	}
	if drop < 0 {
		return onKeySet(schema, &View{keys: p.keys, measures: measures}), nil
	}
	// Both columns at the size of what was kept: a store keeps every version.
	n := len(measures)
	tuples := append(make([]dimTuple, 0, n), p.keys.tuples[:drop]...)
	for _, i := range rows {
		tuples = append(tuples, p.keys.tuples[i])
	}
	measures = append(make([]float64, 0, n), measures...)
	return onKeySet(schema, &View{keys: &keySet{tuples: tuples}, measures: measures}), nil
}

// changedBetween lists, in cube order, the tuples of q whose measure is not
// the one p has at the same position, for two columns over one key set: the
// whole delta between them. It gives up (false) past limit tuples. The
// first pass counts, so that the list — which a store keeps with the
// version — is allocated once and at its size.
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
