package model

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"unsafe"
)

// Eps is the default tolerance for comparing measures across target engines.
const Eps = 1e-9

// ErrFunctional is returned by Cube.Put when a second, different measure
// value is asserted for an existing dimension tuple — the violation of the
// egd F(x…,y1) ∧ F(x…,y2) → y1 = y2 that the paper's mappings enforce.
var ErrFunctional = errors.New("model: functional dependency violation (egd)")

// ErrFrozen is returned by mutating cube methods after Freeze: frozen cubes
// are shared by reference between the store and every reader, so in-place
// mutation would be a data race. Mutate a Clone instead.
var ErrFrozen = errors.New("model: cube is frozen (shared); mutate a Clone instead")

// Tuple is one cube tuple (x1, …, xn, y): the coordinates plus the measure.
type Tuple struct {
	Dims    []Value
	Measure float64
}

// Cube is an in-memory cube instance: a schema plus a sparse, functional
// set of tuples keyed by dimension tuple. A frozen cube — a version — is
// columns in cube order and nothing else (a Builder, Freeze, Revise, Apply or
// Derive made it). A cube its owner can still mutate is edits over a version:
// the one it was cloned from, or the empty one.
type Cube struct {
	schema Schema
	base   *View           // what the edits are over (nil: the empty version); a frozen cube's View
	edits  map[string]edit // by row key (AppendKey); frozen ⇔ nil
	n      int             // tuples
	// cols is all a frozen cube holds, set before anyone else sees the cube.
	// On a mutable cube it is the fold of the edits into base that the last
	// read in order left, which the next mutation makes the base; atomic,
	// because readers of a cube nobody mutates may be several.
	cols atomic.Pointer[View]
}

// edit is a tuple written over the base, or taken out of it (gone); row is its
// row in the base, -1 where the base lacks it, and where it has it the Dims
// are the base's.
type edit struct {
	Tuple
	row  int
	gone bool
}

// keyBufSize is the stack space a probe key is encoded into; the map lookup
// reads it in place, so a probe allocates only when the key is longer.
const keyBufSize = 64

// NewCube returns an empty cube instance for the schema.
func NewCube(schema Schema) *Cube { return &Cube{schema: schema, edits: make(map[string]edit)} }

// Schema returns the cube's schema.
func (c *Cube) Schema() Schema { return c.schema }

// Freeze makes the cube immutable, in place, and returns it: its View, and
// the edits dropped. Only the cube's owner may call it, before sharing the
// cube; from then on every mutating method fails with ErrFrozen, so the cube
// can be shared by reference across goroutines without synchronization.
// Freezing is one-way; Clone returns a mutable copy.
func (c *Cube) Freeze() *Cube {
	if !c.Frozen() {
		c.base, c.edits = c.View(), nil
	}
	return c
}

// Snapshot returns the cube's content as it is now, frozen: the cube itself
// if it is frozen, else a version on its View, which leaves the cube its
// owner's to mutate.
func (c *Cube) Snapshot() *Cube {
	if c.Frozen() {
		return c
	}
	return onKeySet(c.schema, c.View())
}

// Frozen reports whether the cube has been frozen.
func (c *Cube) Frozen() bool { return c.edits == nil }

// Len returns the number of tuples in the cube.
func (c *Cube) Len() int { return c.n }

// Put asserts the measure for the dimension tuple. Asserting the same value
// twice is a no-op (up to Eps); asserting a different value returns
// ErrFunctional, mirroring chase failure on an egd involving constants.
func (c *Cube) Put(dims []Value, measure float64) error {
	_, err := c.write(dims, measure, true, false)
	return err
}

// checkEgd is the egd F(x…,y1) ∧ F(x…,y2) → y1 = y2 at a dimension tuple that
// cube name holds with measure old: asserting the same measure again (up to
// Eps) is a no-op, a different one the violation. It is the one place the egd
// is checked, for Put and for a Builder.
func checkEgd(name string, dims []Value, old, measure float64) error {
	if math.Abs(old-measure) <= Eps*(1+math.Abs(old)+math.Abs(measure)) {
		return nil
	}
	return fmt.Errorf("%w: %s%v has values %v and %v", ErrFunctional, name, dims, old, measure)
}

// Replace sets the measure for the dimension tuple, overwriting any
// previous value.
func (c *Cube) Replace(dims []Value, measure float64) error {
	_, err := c.write(dims, measure, false, false)
	return err
}

// Get returns the measure for the dimension tuple, if present.
func (c *Cube) Get(dims []Value) (float64, bool) {
	var buf [keyBufSize]byte
	e, ok := c.at(AppendKey(buf[:0], dims))
	return e.Measure, ok
}

// Delete removes the tuple for the dimension tuple, reporting whether it was
// present. It panics on a frozen cube (its signature cannot carry ErrFrozen).
func (c *Cube) Delete(dims []Value) bool {
	had, err := c.write(dims, 0, false, true)
	if err != nil {
		panic(err.Error())
	}
	return had
}

// at returns the edit at the key, else one that restates the base's tuple
// there (row -1 where it has none), and whether the cube has a tuple there.
func (c *Cube) at(key []byte) (edit, bool) {
	if e, ok := c.edits[string(key)]; ok {
		return e, !e.gone
	}
	if c.base != nil {
		if i, ok := c.base.keys.row(key); ok {
			return edit{Tuple: Tuple{c.base.Dims(i), c.base.At(i)}, row: i}, true
		}
	}
	return edit{row: -1}, false
}

// write is Put (put), Replace and Delete (gone), reporting whether the cube
// had the tuple. A fold a read in order left becomes the base first.
func (c *Cube) write(dims []Value, measure float64, put, gone bool) (bool, error) {
	if c.Frozen() {
		return false, fmt.Errorf("%w: %s", ErrFrozen, c.schema.Name)
	}
	if !gone {
		if err := checkDims(&c.schema, dims); err != nil {
			return false, err
		}
	}
	if p := c.cols.Load(); p != nil && len(c.edits) > 0 {
		c.base, c.edits = p, make(map[string]edit)
	}
	var buf [keyBufSize]byte
	key := AppendKey(buf[:0], dims)
	e, had := c.at(key)
	switch {
	case put && had:
		return true, checkEgd(c.schema.Name, dims, e.Measure, measure)
	case gone && !had:
		return false, nil
	case gone:
		c.n--
	case !had:
		c.n++
		if e.row < 0 {
			e.Dims = append(make([]Value, 0, len(dims)), dims...)
		}
	}
	if e.Measure, e.gone = measure, gone; gone && e.row < 0 {
		delete(c.edits, string(key))
	} else {
		c.edits[string(key)] = e
	}
	c.cols.Store(nil)
	return had, nil
}

// SharesKeySet reports whether c and o are versions on one key set, by
// identity: Revise, Apply or Derive made one from the other, or both from a
// common ancestor. They hold the same dimension tuples at the same positions.
func (c *Cube) SharesKeySet(o *Cube) bool {
	p, q := c.cols.Load(), o.cols.Load()
	return p != nil && q != nil && p.keys == q.keys
}

// Tuples returns all tuples in cube order (see Ordered) as a fresh slice that
// is the caller's to mutate. Ordered scans without copying.
func (c *Cube) Tuples() []Tuple {
	p := c.View()
	cur, ts := p.Cursor(), make([]Tuple, p.Len())
	for i := range ts {
		ts[i] = cur.Tuple(i)
	}
	return ts
}

// Ordered calls fn on every tuple in the cube's deterministic order:
// dimension by dimension, left to right, in the byte order of the tuples'
// keys (see AppendKey), which is Value.Compare's order wherever Compare is a
// strict one. It stops at fn's first error and returns it. The scan copies
// nothing; fn gets each tuple by value, so it cannot disturb what the next
// reader sees, and like every reader it must leave the Dims untouched.
func (c *Cube) Ordered(fn func(Tuple) error) error {
	p := c.View()
	cur := p.Cursor()
	for i := range p.Len() {
		if err := fn(cur.Tuple(i)); err != nil {
			return err
		}
	}
	return nil
}

// ForEach is Ordered: it calls fn on every tuple, in cube order, until its
// first error.
func (c *Cube) ForEach(fn func(Tuple) error) error { return c.Ordered(fn) }

// Clone returns a mutable copy of the cube (frozen or not): no edits yet, over
// its View — O(1) once the cube is folded. The Dims slices inside the tuples
// are shared with the original, as every reader's are: a cube never writes to
// a stored Dims slice (Put and Replace copy theirs).
func (c *Cube) Clone() *Cube {
	p := c.View()
	return &Cube{schema: c.schema, base: p, edits: make(map[string]edit), n: p.Len()}
}

// Equal reports whether two cubes contain the same tuples, with measures
// compared within tol. Schemas are compared on dimensions only, so a cube
// and its renamed copy in the target schema compare equal.
func (c *Cube) Equal(o *Cube, tol float64) bool {
	return c.Len() == o.Len() && c.schema.SameDims(o.schema) && len(c.Diff(o, tol, 1)) == 0
}

// Diff returns a human-readable description of up to max differences
// between the cubes, in cube order, for test failure messages.
func (c *Cube) Diff(o *Cube, tol float64, max int) (out []string) {
	p, q := c.View(), o.View()
	pm, qm := p.Measures(), q.Measures()
	align(p, q, func(i, j int) bool {
		switch {
		case j < 0:
			out = append(out, fmt.Sprintf("missing in other: %v -> %v", p.Dims(i), pm[i]))
		case i < 0:
			out = append(out, fmt.Sprintf("extra in other: %v -> %v", q.Dims(j), qm[j]))
		// Not "<=" negated: a NaN measure is outside no tolerance.
		case math.Abs(pm[i]-qm[j]) > tol*(1+math.Abs(pm[i])):
			out = append(out, fmt.Sprintf("measure mismatch at %v: %v vs %v", p.Dims(i), pm[i], qm[j]))
		}
		return len(out) < max
	})
	return out
}

// Per-entry accounting constants for MemEstimate: Go map bucket share, the
// map key's string header, slice header and Tuple shell — deliberately rounded
// up, because the estimate feeds admission budgets, where over-counting
// degrades gracefully and under-counting OOMs — plus the exact Value shell.
const (
	tupleOverheadBytes = 120
	valueShellBytes    = int64(unsafe.Sizeof(Value{}))
)

// MemEstimate returns a conservative estimate of the cube's resident size in
// bytes: its base's key set (estimated once for all the versions on it, and
// charged in full to each: which will outlive the others is not known here)
// and its measures (View.measureBytes), and per edit its overhead, key and
// dimension values.
func (c *Cube) MemEstimate() int64 {
	if c == nil {
		return 0
	}
	n := int64(tupleOverheadBytes)
	if c.base != nil {
		n += c.base.keys.memEstimate() + c.base.measureBytes()
	}
	for k, e := range c.edits {
		n += tupleOverheadBytes + int64(len(k))
		for _, v := range e.Dims {
			n += valueShellBytes + int64(len(v.str))
		}
	}
	return n
}

// MemEstimateOf is MemEstimate for cubes held together — a run's snapshot,
// its results: what each holds of its own, and every key set among them once,
// however many of the versions stand on it.
func MemEstimateOf(cubes map[string]*Cube) int64 {
	var n int64
	charged := make(map[*keySet]bool)
	for _, c := range cubes {
		if n += c.MemEstimate(); c != nil && c.base != nil {
			if charged[c.base.keys] {
				n -= c.base.keys.memEstimate()
			}
			charged[c.base.keys] = true
		}
	}
	return n
}

// SortedSeries returns the periods and measures, in chronological order, of a
// cube with a single time dimension. It fails if the cube is not a time series.
func (c *Cube) SortedSeries() ([]Period, []float64, error) {
	if !c.schema.IsTimeSeries() {
		return nil, nil, fmt.Errorf("model: cube %s is not a time series", c.schema.Name)
	}
	cols := c.View()
	periods := make([]Period, cols.Len())
	for i, t := range cols.keys.tuples {
		p, ok := t.dims[0].AsPeriod()
		if !ok {
			return nil, nil, fmt.Errorf("model: cube %s has non-period time value %v", c.schema.Name, t.dims[0])
		}
		periods[i] = p
	}
	return periods, slices.Clone(cols.Measures()), nil
}
