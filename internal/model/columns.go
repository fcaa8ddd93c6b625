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
	"unsafe"
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
	aligns alignments                     // how the rows meet other key sets' (align.go)
}

// dimTuple is one dimension tuple: the Dims its tuples show, and its row key.
type dimTuple struct {
	dims []Value
	key  string
}

// View is a cube version in column form: a key set and the measures aligned
// with it, in cube order. It is never written to once a cube points at it — a
// mutation of the cube drops the cube's pointer and leaves the View alone — so
// a View taken from any cube, frozen or not, goes on showing the version it
// was taken from, to any number of goroutines.
//
// A view holds a measure column of its own, or is a patch: the column of a
// version it follows, shared with every other version that follows it, and
// the rows where its measures differ (restate). A point read — At, Tuple,
// Gather, Get, Row, Dims — reads through the patch, and so does a scan in
// order, through a Cursor; the first call of Measures folds the patch into a
// column of the view's own once, published as a fold of edits is, and the
// view lets go of the patch and of the column under it.
type View struct {
	keys    *keySet
	own     []float64 // the column a view built with one holds, never written
	patched bool      // a view built as a patch: it holds col and over instead

	col  atomic.Pointer[[]float64] // a patched view's column, once it holds one
	over atomic.Pointer[patch]     // what it is until then
}

// patch is a view's measures as the column of a version it follows and the
// rows it restates: 12 B per row restated. Nothing is written to it once a
// view points at it.
type patch struct {
	root []float64 // another version's column, shared: read, never written
	rows []int32   // the rows restated, ascending
	vals []float64 // their measures
}

// patchShare bounds what a patch restates: past one row in this many of its
// key set's, a version is built with a column of its own (a rebase), which the
// versions that follow it are patches over. A successor's patch holds its
// predecessor's rows merged with its own, so a point read is one binary search
// however long the chain, and a chain of versions restating a share s of the
// rows at each step copies the column once every 1/(patchShare·s) steps.
const patchShare = 8

// newView returns the view of a key set under a column it holds as its own.
func newView(keys *keySet, measures []float64) *View { return &View{keys: keys, own: measures} }

// held returns the view's measures as it holds them now: its column as a
// patch over itself that restates nothing, or its patch. (A patched view's
// column is published before its patch is dropped, so one of the two is
// there.)
func (p *View) held() patch {
	if !p.patched {
		return patch{root: p.own}
	}
	if m := p.col.Load(); m != nil {
		return patch{root: *m}
	}
	if o := p.over.Load(); o != nil {
		return *o
	}
	return patch{root: *p.col.Load()}
}

// at returns the measure at row i.
func (o *patch) at(i int) float64 {
	if j, ok := slices.BinarySearch(o.rows, int32(i)); ok {
		return o.vals[j]
	}
	return o.root[i]
}

// appendTo appends the measures at rows [lo, hi) to dst.
func (o *patch) appendTo(dst []float64, lo, hi int) []float64 {
	n := len(dst) - lo
	dst = append(dst, o.root[lo:hi]...)
	j, _ := slices.BinarySearch(o.rows, int32(lo))
	for ; j < len(o.rows) && int(o.rows[j]) < hi; j++ {
		dst[n+int(o.rows[j])] = o.vals[j]
	}
	return dst
}

// patchHeaderBytes is what a patch holds beside its rows and measures.
const patchHeaderBytes = int64(unsafe.Sizeof(patch{}))

// measureBytes is what the view holds of its measures: its column, 8 B a
// tuple, or while it is a patch the patch, 12 B a row restated and its header.
// The column under a patch is charged to the version that owns it, not here.
func (p *View) measureBytes() int64 {
	if k, ok := p.Patched(); ok {
		return patchHeaderBytes + 12*int64(k)
	}
	return 8 * int64(p.Len())
}

// Patched reports whether the view is a patch, not yet folded into a column of
// its own, and how many rows it restates over the column under it.
func (p *View) Patched() (restated int, ok bool) {
	if p.patched {
		if o := p.over.Load(); o != nil {
			return len(o.rows), true
		}
	}
	return 0, false
}

// Len returns the number of tuples.
func (p *View) Len() int { return len(p.keys.tuples) }

// Tuple returns the i-th tuple in cube order, its measure read as At reads it.
// Its Dims are the version's own and must be left untouched.
func (p *View) Tuple(i int) Tuple {
	if p.patched {
		return p.patchedTuple(i)
	}
	return Tuple{p.keys.tuples[i].dims, p.own[i]}
}

// patchedTuple is Tuple's read through a patch, apart so that Tuple inlines.
//
//go:noinline
func (p *View) patchedTuple(i int) Tuple { return Tuple{p.keys.tuples[i].dims, p.patchedAt(i)} }

// Dims returns the dimension tuple at row i, the version's own: to be read,
// not written.
func (p *View) Dims(i int) []Value { return p.keys.tuples[i].dims }

// At returns the measure at row i, read through a patch.
func (p *View) At(i int) float64 {
	if p.patched {
		return p.patchedAt(i)
	}
	return p.own[i]
}

// patchedAt is At's read through a patch, apart so that At inlines.
func (p *View) patchedAt(i int) float64 {
	o := p.held()
	return o.at(i)
}

// Cursor reads a version's tuples at rows that ascend — a scan in cube order,
// every tuple or some — as At and Tuple would, but reads a row below the next
// restated one with one comparison, steps along a patch's row list, and
// searches the rest of it only where a read skips restated rows. It folds
// nothing.
type Cursor struct {
	tuples []dimTuple
	root   []float64
	rows   []int32
	vals   []float64
	j      int // rows[:j] are below the row read last
	next   int // rows[j], or past every row where j is past the list
}

// Cursor returns a Cursor at the view's first row.
func (p *View) Cursor() Cursor {
	o := p.held()
	c := Cursor{tuples: p.keys.tuples, root: o.root, rows: o.rows, vals: o.vals, next: math.MaxInt}
	if len(o.rows) > 0 {
		c.next = int(o.rows[0])
	}
	return c
}

// At returns the measure at row i, which is no lower than the row read before.
func (c *Cursor) At(i int) float64 {
	if i < c.next {
		return c.root[i]
	}
	return c.step(i)
}

// Tuple returns the tuple at row i, which is no lower than the row read
// before. Its Dims are the version's own and must be left untouched.
func (c *Cursor) Tuple(i int) Tuple {
	if i < c.next {
		return Tuple{c.tuples[i].dims, c.root[i]}
	}
	return c.stepTuple(i)
}

// stepTuple is Tuple from a restated row on, apart so that Tuple inlines.
//
//go:noinline
func (c *Cursor) stepTuple(i int) Tuple { return Tuple{c.tuples[i].dims, c.step(i)} }

// step is At from a restated row on: a step to the next row in the list, or
// a search of the rest of it where i is past that one too, apart so that At
// inlines.
//
//go:noinline
func (c *Cursor) step(i int) float64 {
	if c.j < len(c.rows) && int(c.rows[c.j]) < i {
		if c.j++; c.j < len(c.rows) && int(c.rows[c.j]) < i {
			k, _ := slices.BinarySearch(c.rows[c.j:], int32(i))
			c.j += k
		}
	}
	c.next = math.MaxInt
	if c.j < len(c.rows) {
		if c.next = int(c.rows[c.j]); c.next == i {
			return c.vals[c.j]
		}
	}
	return c.root[i]
}

// Gather appends the measures at rows, which ascend, to dst: At of each, one
// walk of a patch beside them.
func (p *View) Gather(dst []float64, rows []int) []float64 {
	cur := p.Cursor()
	for _, r := range rows {
		dst = append(dst, cur.At(r))
	}
	return dst
}

// Measures returns the measure column in cube order, the version's own: to be
// read, not written. A patch is folded into the view's column on the first
// call, once, whichever goroutines call: a reader that wants a []float64 to
// index at random pays for one, and a scan in order reads through a Cursor.
func (p *View) Measures() []float64 {
	if !p.patched {
		return p.own[:len(p.own):len(p.own)]
	}
	return p.materialize()
}

func (p *View) materialize() []float64 {
	if m := p.col.Load(); m != nil {
		return *m
	}
	o := p.over.Load()
	if o == nil {
		return *p.col.Load()
	}
	m := o.appendTo(make([]float64, 0, p.Len()), 0, p.Len())
	if !p.col.CompareAndSwap(nil, &m) {
		return *p.col.Load()
	}
	p.over.Store(nil)
	return m
}

// restate returns the version on p's key set whose measures are p's but at
// rows, ascending and distinct, where they are vals: a patch over the column
// p holds or is a patch over, restating p's rows and these, or past
// patchShare a column of its own. p is left as it is.
func (p *View) restate(rows []int32, vals []float64) *View {
	if len(rows) == 0 {
		return p
	}
	o, n := p.held(), p.Len()
	k := len(o.rows) + len(rows) // the rows the two restate between them
	for i, j := 0, 0; i < len(o.rows) && j < len(rows); {
		switch {
		case o.rows[i] < rows[j]:
			i++
		case o.rows[i] > rows[j]:
			j++
		default:
			i, j, k = i+1, j+1, k-1
		}
	}
	if k > n/patchShare {
		col := o.appendTo(make([]float64, 0, n), 0, n)
		for j, r := range rows {
			col[r] = vals[j]
		}
		return newView(p.keys, col)
	}
	q := &patch{root: o.root, rows: make([]int32, 0, k), vals: make([]float64, 0, k)}
	i, j := 0, 0
	for i < len(o.rows) || j < len(rows) {
		switch {
		case j == len(rows) || i < len(o.rows) && o.rows[i] < rows[j]:
			q.rows, q.vals = append(q.rows, o.rows[i]), append(q.vals, o.vals[i])
			i++
		default:
			if i < len(o.rows) && o.rows[i] == rows[j] {
				i++
			}
			q.rows, q.vals = append(q.rows, rows[j]), append(q.vals, vals[j])
			j++
		}
	}
	v := &View{keys: p.keys, patched: true}
	v.over.Store(q)
	return v
}

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
// and the alignments, which arrive later, are charged as they are held when it
// is called.
func (ks *keySet) memEstimate() int64 {
	return ks.tuplesEstimate() + ks.parts.memEstimate() + ks.aligns.memEstimate()
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
		measures := make([]float64, 0, len(c.edits))
		for k, e := range c.edits {
			ks.tuples, measures = append(ks.tuples, dimTuple{e.Dims, k}), append(measures, e.Measure)
		}
		sortByKeys(ks.tuples, measures)
		p = newView(ks, measures)
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
// tuple on its key set — an owner's edits are copied eagerly, so that the
// first read after them pays for them and every later one reads a column —
// and edits that add or delete are Applied.
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
	o, n := c.base.held(), c.base.Len()
	measures := o.appendTo(make([]float64, 0, n), 0, n)
	for _, e := range c.edits {
		measures[e.row] = e.Measure
	}
	return newView(c.base.keys, measures)
}

// delta returns the edits as the lists of a delta from the base, in cube
// order: the tuples added, the base's tuples restated (all, or those whose
// measure differs from the base's bit for bit, as changedBetween counts them)
// and the base's tuples deleted.
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
			deleted = append(deleted, Tuple{c.base.Dims(i), c.base.At(i)})
		case all || math.Float64bits(e.Measure) != math.Float64bits(c.base.At(i)):
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
		d.Current = onKeySet(c.schema, newView(p.keys, q.Measures()))
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
// A delta that only restates measures is Restate at the changed tuples' rows.
// One that adds or deletes is merged into c's order: a key set of its own whose
// Dims and row keys are c's wherever the tuple survives, under a column of its
// own.
func (c *Cube) Apply(added, changed, deleted []Tuple) (*Cube, error) {
	misfit := func(verb string, t Tuple, why string) error {
		return fmt.Errorf("%w: that of %s %s %s%s", ErrMisfit, c.schema.Name, verb, t.Dims, why)
	}
	p := c.View()
	if len(added) == 0 && len(deleted) == 0 {
		rows, vals := make([]int32, 0, len(changed)), make([]float64, 0, len(changed))
		var buf [keyBufSize]byte
		for _, t := range changed {
			i, ok := p.keys.row(AppendKey(buf[:0], t.Dims))
			switch last := len(rows) - 1; {
			case !ok:
				return nil, misfit("changes", t, ", which the base lacks")
			case last >= 0 && i == int(rows[last]):
				return nil, misfit("names", t, " twice")
			case last >= 0 && i < int(rows[last]):
				return nil, misfit("lists", t, " out of order")
			}
			rows, vals = append(rows, int32(i)), append(vals, t.Measure)
		}
		return onKeySet(c.schema, p.restate(rows, vals)), nil
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

	base, o := p.keys.tuples, p.held()
	n := max(len(base)+len(added)-len(deleted), 0)
	tuples, measures := make([]dimTuple, 0, n), make([]float64, 0, n)
	at := 0 // base[:at] is merged
	for i, e := range edits {
		if i > 0 && edits[i-1].key == e.key {
			return nil, misfit("names", e.Tuple, " twice")
		}
		n, has := slices.BinarySearchFunc(base[at:], e.key, func(t dimTuple, k string) int { return strings.Compare(t.key, k) })
		tuples, measures = append(tuples, base[at:at+n]...), o.appendTo(measures, at, at+n)
		at += n
		switch {
		case e.verb == "adds" && has:
			return nil, misfit(e.verb, e.Tuple, ", which the base has")
		case e.verb == "adds" && checkDims(&c.schema, e.Dims) != nil:
			return nil, misfit(e.verb, e.Tuple, ", which does not fit its schema")
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
	tuples, measures = append(tuples, base[at:]...), o.appendTo(measures, at, len(base))
	return onKeySet(c.schema, newView(&keySet{tuples: tuples}, measures)), nil
}

// Restate returns the version that follows c by restating the measures at
// rows of c.View(), ascending and distinct, to measures: a delta that only
// restates measures, named by row, as a maintenance that computes a column at
// a time finds it. The version stands on c's key set as a patch over the
// column c holds or is a patch over, in O(len(rows)) (see View); c is left as
// it was. Rows out of order, named twice or past c's tuples are an ErrMisfit.
func (c *Cube) Restate(rows []int, measures []float64) (*Cube, error) {
	p := c.View()
	if len(rows) != len(measures) {
		return nil, fmt.Errorf("model: %d measures restate %d rows of %s", len(measures), len(rows), c.schema.Name)
	}
	rs := make([]int32, len(rows))
	for j, r := range rows {
		if r < 0 || r >= p.Len() || j > 0 && r <= rows[j-1] {
			return nil, fmt.Errorf("%w: that of %s restates row %d of %d out of order, twice or past its end", ErrMisfit, c.schema.Name, r, p.Len())
		}
		rs[j] = int32(r)
	}
	return onKeySet(c.schema, p.restate(rs, measures)), nil
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
	cur, measures := p.Cursor(), make([]float64, p.Len())
	var drop []bool
	for i := range measures {
		m, keep, err := f(i, cur.Tuple(i))
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
		return onKeySet(schema, newView(p.keys, measures)), nil
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
	return onKeySet(schema, newView(&keySet{tuples: tuples}, kept)), nil
}

func (c *Cube) derivable(schema Schema) error {
	if len(schema.Dims) != len(c.schema.Dims) {
		return fmt.Errorf("model: cube %s expects %d dimensions, got %d", schema.Name, len(schema.Dims), len(c.schema.Dims))
	}
	return nil
}

// changedBetween lists, in cube order, the tuples of q whose measure is not
// the one p has at the same position, for two versions over one key set: the
// whole delta between them. It gives up (false) past limit tuples. The first
// pass counts, so that the list, which a store keeps, is allocated at its size.
// Where both are patches over one column, or one is that column, only the rows
// either restates can differ, and those are all it reads: O(delta).
func changedBetween(p, q *View, limit int) ([]Tuple, bool) {
	n := 0
	eachBetween(p, q, func(int, float64) { n++ })
	if n == 0 || n > limit {
		return nil, n == 0
	}
	changed := make([]Tuple, 0, n)
	eachBetween(p, q, func(i int, m float64) { changed = append(changed, Tuple{q.Dims(i), m}) })
	return changed, true
}

// eachBetween calls fn, in row order, on every row where q's measure is not
// p's bit for bit (DiffCubes), with q's: one merge of the two row lists where
// p and q are over one column, one walk of both columns otherwise.
func eachBetween(p, q *View, fn func(i int, m float64)) {
	pc, qc := p.Cursor(), q.Cursor()
	pr, qr := pc.rows, qc.rows
	switch {
	case len(qc.root) == 0 || &pc.root[0] == &qc.root[0]:
	case len(pr)+len(qr) == 0:
		for i, m := range qc.root {
			if math.Float64bits(m) != math.Float64bits(pc.root[i]) {
				fn(i, m)
			}
		}
		return
	default:
		for i := range qc.root {
			if m := qc.At(i); math.Float64bits(m) != math.Float64bits(pc.At(i)) {
				fn(i, m)
			}
		}
		return
	}
	for i, j := 0, 0; i < len(pr) || j < len(qr); {
		var r int
		switch {
		case j == len(qr) || i < len(pr) && pr[i] < qr[j]:
			r, i = int(pr[i]), i+1
		case i == len(pr) || qr[j] < pr[i]:
			r, j = int(qr[j]), j+1
		default:
			r, i, j = int(pr[i]), i+1, j+1
		}
		if m := qc.At(r); math.Float64bits(m) != math.Float64bits(pc.At(r)) {
			fn(r, m)
		}
	}
}
