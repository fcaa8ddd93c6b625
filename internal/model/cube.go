package model

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync/atomic"
	"unsafe"
)

// Eps is the default tolerance used when comparing measures produced by
// different target engines.
const Eps = 1e-9

// ErrFunctional is returned by Cube.Put when a second, different measure
// value is asserted for an existing dimension tuple — the violation of the
// egd F(x…,y1) ∧ F(x…,y2) → y1 = y2 that the paper's mappings enforce.
var ErrFunctional = errors.New("model: functional dependency violation (egd)")

// ErrFrozen is returned by mutating cube methods after Freeze: frozen
// cubes are shared by reference between the store and every reader, so
// in-place mutation would be a data race. Mutate a Clone instead.
var ErrFrozen = errors.New("model: cube is frozen (shared); mutate a Clone instead")

// Tuple is one cube tuple (x1, …, xn, y): the dimension coordinates plus
// the measure.
type Tuple struct {
	Dims    []Value
	Measure float64
}

// Cube is an in-memory cube instance: a schema plus a sparse, functional
// set of tuples keyed by dimension tuple. The tuples are held as a row map,
// as columns in cube order, or as both; every reader answers from
// whichever form the cube holds.
type Cube struct {
	schema Schema
	// rows is the row map, keyed by AppendKey of the dimension tuple. It is
	// what every mutation works on; nil only in a frozen version that is
	// held as columns alone (see Revise and Apply).
	rows   map[string]Tuple
	frozen bool
	// memEst caches MemEstimate once the cube is frozen (0 = uncached);
	// frozen cubes are shared across goroutines, so the cache is atomic.
	memEst atomic.Int64
	// cols is the column form (nil = not computed): beside a row map it is
	// the cached cube order. Mutating methods clear it before touching
	// rows, so a stale cache can never be observed; the pointer is atomic
	// because frozen cubes are read from many goroutines at once.
	cols atomic.Pointer[View]
}

// keyBufSize is the stack space Put and Get encode a probe key into; the
// map lookup reads it in place, so a probe allocates only when the key is
// longer than this.
const keyBufSize = 64

// NewCube returns an empty cube instance for the schema.
func NewCube(schema Schema) *Cube {
	return &Cube{schema: schema, rows: make(map[string]Tuple)}
}

// Schema returns the cube's schema.
func (c *Cube) Schema() Schema { return c.schema }

// Freeze marks the cube immutable and returns it. A frozen cube can be
// shared by reference across goroutines without synchronization: every
// mutating method fails with ErrFrozen, so readers see a stable value.
// Freezing is one-way; Clone returns a mutable copy.
func (c *Cube) Freeze() *Cube {
	c.frozen = true
	return c
}

// Frozen reports whether the cube has been frozen.
func (c *Cube) Frozen() bool { return c.frozen }

// Len returns the number of tuples in the cube.
func (c *Cube) Len() int {
	if p := c.held(); p != nil {
		return len(p.measures)
	}
	return len(c.rows)
}

// Put asserts the measure for the dimension tuple. Asserting the same value
// twice is a no-op (up to Eps); asserting a different value returns
// ErrFunctional, mirroring chase failure on an egd involving constants.
func (c *Cube) Put(dims []Value, measure float64) error {
	if c.frozen {
		return fmt.Errorf("%w: %s", ErrFrozen, c.schema.Name)
	}
	if len(dims) != len(c.schema.Dims) {
		return fmt.Errorf("model: cube %s expects %d dimensions, got %d", c.schema.Name, len(c.schema.Dims), len(dims))
	}
	var buf [keyBufSize]byte
	key := AppendKey(buf[:0], dims)
	if old, ok := c.rows[string(key)]; ok {
		return c.checkEgd(dims, old.Measure, measure)
	}
	d := make([]Value, len(dims))
	copy(d, dims)
	c.cols.Store(nil)
	c.rows[string(key)] = Tuple{Dims: d, Measure: measure}
	return nil
}

// checkEgd is the egd F(x…,y1) ∧ F(x…,y2) → y1 = y2 at a dimension tuple
// the cube already holds with measure old: asserting the same measure
// again (up to Eps) is a no-op, a different one is the violation.
func (c *Cube) checkEgd(dims []Value, old, measure float64) error {
	if almostEqual(old, measure) {
		return nil
	}
	return fmt.Errorf("%w: %s%v has values %v and %v", ErrFunctional, c.schema.Name, dims, old, measure)
}

// Replace sets the measure for the dimension tuple, overwriting any
// previous value. It is used by the store when new versions of elementary
// cubes arrive.
func (c *Cube) Replace(dims []Value, measure float64) error {
	if c.frozen {
		return fmt.Errorf("%w: %s", ErrFrozen, c.schema.Name)
	}
	if len(dims) != len(c.schema.Dims) {
		return fmt.Errorf("model: cube %s expects %d dimensions, got %d", c.schema.Name, len(c.schema.Dims), len(dims))
	}
	d := make([]Value, len(dims))
	copy(d, dims)
	c.cols.Store(nil)
	c.rows[EncodeKey(dims)] = Tuple{Dims: d, Measure: measure}
	return nil
}

// Get returns the measure for the dimension tuple, if present.
func (c *Cube) Get(dims []Value) (float64, bool) {
	var buf [keyBufSize]byte
	key := AppendKey(buf[:0], dims)
	if p := c.held(); p != nil {
		i, ok := p.keys.rows()[string(key)]
		if !ok {
			return 0, false
		}
		return p.measures[i], true
	}
	t, ok := c.rows[string(key)]
	if !ok {
		return 0, false
	}
	return t.Measure, true
}

// Delete removes the tuple for the dimension tuple, reporting whether it
// was present. Delete panics on a frozen cube (its signature cannot carry
// ErrFrozen).
func (c *Cube) Delete(dims []Value) bool {
	if c.frozen {
		panic(fmt.Sprintf("%v: %s", ErrFrozen, c.schema.Name))
	}
	key := EncodeKey(dims)
	_, ok := c.rows[key]
	c.cols.Store(nil)
	delete(c.rows, key)
	return ok
}

// OrderCached reports whether the version holds its column form, so that an
// ordered scan need not sort: a scan has sorted it and left the order
// cached, or Revise, Apply or Derive made it on another's. Tests pin with it
// that a path which has no use for the order did not pay for one.
func (c *Cube) OrderCached() bool { return c.cols.Load() != nil }

// SharesKeySet reports whether c and o are versions on one key set, by
// identity: Revise, Apply or Derive made one from the other, or both from a
// common ancestor. Such versions hold the same dimension tuples at the same
// positions and differ in their measure columns only.
func (c *Cube) SharesKeySet(o *Cube) bool {
	p, q := c.cols.Load(), o.cols.Load()
	return p != nil && q != nil && p.keys == q.keys
}

// Tuples returns all tuples in the cube's deterministic order (see
// Ordered) as a fresh slice that is the caller's to mutate. Readers
// that only scan should use Ordered, which does not copy.
func (c *Cube) Tuples() []Tuple {
	p := c.View()
	ts := make([]Tuple, p.Len())
	for i := range ts {
		ts[i] = p.Tuple(i)
	}
	return ts
}

// Ordered calls fn on every tuple in the cube's deterministic order:
// dimension by dimension, left to right, in the byte order of the
// tuples' keys (see AppendKey), which is Value.Compare's order wherever
// Compare is a strict one. It stops early and returns the first non-nil
// error. The scan reads the cube's columns without copying them; fn
// gets each tuple by value, so it cannot disturb what the next reader
// sees, and like every reader it must leave the Dims it is shown
// untouched.
func (c *Cube) Ordered(fn func(Tuple) error) error {
	p := c.View()
	for i := range p.measures {
		if err := fn(p.Tuple(i)); err != nil {
			return err
		}
	}
	return nil
}

// ForEach calls fn on every tuple in unspecified order; it stops early and
// returns the first non-nil error.
func (c *Cube) ForEach(fn func(Tuple) error) (err error) {
	c.scan(func(_ string, t Tuple) bool {
		err = fn(t)
		return err == nil
	})
	return err
}

// Clone returns a mutable copy of the cube (frozen or not). The row map
// is copied wholesale, or built from the columns where the cube holds
// none; the Dims slices inside the tuples are shared with the original.
// That sharing is safe because the cube never mutates a stored Dims slice
// in place (Put and Replace copy their argument), and it is the same
// sharing every Tuples/Ordered/ForEach caller already gets.
func (c *Cube) Clone() *Cube {
	out := NewCube(c.schema)
	if p := c.held(); p != nil {
		out.rows = make(map[string]Tuple, len(p.measures))
		for i, t := range p.keys.tuples {
			out.rows[t.key] = p.Tuple(i)
		}
	} else if len(c.rows) > 0 {
		out.rows = maps.Clone(c.rows)
	}
	return out
}

// Equal reports whether two cubes contain the same tuples, with measures
// compared within tol. Schemas are compared on dimensions only, so a cube
// and its renamed copy in the target schema compare equal.
func (c *Cube) Equal(o *Cube, tol float64) bool {
	if c.Len() != o.Len() || !c.schema.SameDims(o.schema) {
		return false
	}
	equal := true
	c.scan(func(k string, t Tuple) bool {
		om, ok := o.lookup(k)
		// Not "<=": a NaN measure is outside no tolerance.
		equal = ok && !(math.Abs(t.Measure-om) > tol*(1+math.Abs(t.Measure)))
		return equal
	})
	return equal
}

// Diff returns a human-readable description of up to max differences
// between the cubes, for test failure messages.
func (c *Cube) Diff(o *Cube, tol float64, max int) []string {
	var out []string
	add := func(s string) bool {
		if len(out) < max {
			out = append(out, s)
		}
		return len(out) < max
	}
	cols := c.View()
	for i := range cols.measures {
		t := cols.Tuple(i)
		om, ok := o.Get(t.Dims)
		if !ok {
			if !add(fmt.Sprintf("missing in other: %v -> %v", formatDims(t.Dims), t.Measure)) {
				return out
			}
			continue
		}
		if math.Abs(t.Measure-om) > tol*(1+math.Abs(t.Measure)) {
			if !add(fmt.Sprintf("measure mismatch at %v: %v vs %v", formatDims(t.Dims), t.Measure, om)) {
				return out
			}
		}
	}
	ocols := o.View()
	for i := range ocols.measures {
		t := ocols.Tuple(i)
		if _, ok := c.Get(t.Dims); !ok {
			if !add(fmt.Sprintf("extra in other: %v -> %v", formatDims(t.Dims), t.Measure)) {
				return out
			}
		}
	}
	return out
}

// Per-entry accounting constants for MemEstimate: Go map bucket share,
// the map key's string header, slice header and Tuple shell — deliberately
// rounded up, because the estimate feeds admission budgets, where
// over-counting degrades gracefully and under-counting OOMs — plus the
// Value shell per dimension, which is exact.
const (
	tupleOverheadBytes = 120
	valueShellBytes    = int64(unsafe.Sizeof(Value{}))
)

// MemEstimate returns a conservative estimate of the cube's resident
// size in bytes: per-tuple map and header overhead, key bytes, and the
// dimension values with their string payloads. The result is cached on
// frozen cubes (which are immutable and shared), so repeated budgeting
// of the same snapshot is O(1); a version held as columns alone takes the
// estimate of its key set, made once for all the versions on it, plus its
// measure column, so its first estimate is O(1) as well.
func (c *Cube) MemEstimate() int64 {
	if c == nil {
		return 0
	}
	if c.frozen {
		if v := c.memEst.Load(); v > 0 {
			return v
		}
	}
	n := int64(tupleOverheadBytes) // the Cube shell and map header
	if p := c.held(); p != nil {
		// The key set is charged in full to every version that shares it:
		// which of them will outlive the others is not known here.
		n += p.keys.memEstimate() + 8*int64(len(p.measures))
	}
	for k, t := range c.rows {
		n += tupleOverheadBytes + int64(len(k))
		for _, v := range t.Dims {
			n += valueShellBytes + int64(len(v.str))
		}
	}
	if c.frozen {
		c.memEst.Store(n)
	}
	return n
}

// MemEstimateOf is MemEstimate for cubes held together — a run's snapshot,
// its results: what each holds of its own (a row map, a measure column), and
// every key set among them once, however many of the versions stand on it.
func MemEstimateOf(cubes map[string]*Cube) int64 {
	var n int64
	charged := make(map[*keySet]bool)
	for _, c := range cubes {
		if c == nil {
			continue
		}
		n += c.MemEstimate()
		if p := c.held(); p != nil {
			if charged[p.keys] {
				n -= p.keys.memEstimate()
			}
			charged[p.keys] = true
		}
	}
	return n
}

// MemEstimateCached reports whether MemEstimate answers from its cache: the
// cube was frozen first and estimated after. Tests pin that order with it.
func (c *Cube) MemEstimateCached() bool { return c.frozen && c.memEst.Load() > 0 }

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= Eps*(1+math.Abs(a)+math.Abs(b))
}

func formatDims(dims []Value) string {
	s := "("
	for i, d := range dims {
		if i > 0 {
			s += ", "
		}
		s += d.String()
	}
	return s + ")"
}

// SortedSeries extracts a time series (ordered by time) from a cube with a
// single time dimension. It returns the periods and measures in
// chronological order. It fails if the cube is not a time series.
func (c *Cube) SortedSeries() ([]Period, []float64, error) {
	if !c.schema.IsTimeSeries() {
		return nil, nil, fmt.Errorf("model: cube %s is not a time series", c.schema.Name)
	}
	cols := c.View()
	periods := make([]Period, len(cols.measures))
	for i, t := range cols.keys.tuples {
		p, ok := t.dims[0].AsPeriod()
		if !ok {
			return nil, nil, fmt.Errorf("model: cube %s has non-period time value %v", c.schema.Name, t.dims[0])
		}
		periods[i] = p
	}
	return periods, slices.Clone(cols.measures), nil
}
