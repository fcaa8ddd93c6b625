package model

import (
	"fmt"
	"math"
	"slices"
)

// Builder makes a version out of tuples that come from neither a predecessor
// nor an operand — or from a predecessor it is checked against as it arrives —
// a parsed file, a decoded record, a backend's result: Add them, then Build. It
// is the one constructor of versions beside Revise, Apply and Derive, and checks
// the functionality egd as a loop of Put over the same arrivals would.
//
// While keys arrive in strictly increasing byte order — the cube order, in
// which WriteCSV, the durable codec and every sorted aggregation emit — the
// tuples are the key set and the measure column as they come and there is
// nothing to check: no map, no sort. From the first key that does not, Build
// sorts them once and settles tuples that arrived more than once.
//
// A Builder on a predecessor (NewBuilderOn) follows it: while the i-th arrival
// is the predecessor's i-th dimension tuple, its measure is compared with the
// predecessor's, read through a Cursor, and only where the bits differ is the
// row kept, with the measure. The Builder stops following at the first arrival
// that is not — another tuple, or one more than the predecessor has — and
// carries on as above from the prefix, whose Dims and row keys it shares with
// the predecessor. Arrivals that were the predecessor's tuples to the last,
// all of them, are built on its key set, by reference: the predecessor
// restated at the rows kept (View.restate), a patch over its column where
// those are few. Once the rows kept are more than patchShare and more than one
// in patchShare of the arrivals, the Builder goes on with a column of its own
// instead, so that a result that restates most of its predecessor never pays
// for a patch and a column both, and a revision that restates one of its first
// few measures is not taken for one.
// A caller that can tell the arrival is that tuple from what it holds — a CSV
// decoder, from the text — asks for it (Following) and adds the measure alone
// (AddFollowing).
type Builder struct {
	schema Schema
	n      int // tuples added
	// follow is the predecessor's columns while the arrivals are its first n
	// tuples, and cur reads its measures. The arrivals are the rows kept and
	// their measures until col, their measures as a column, takes over.
	follow *View
	cur    Cursor
	rows   []int32
	vals   []float64
	col    []float64
	// In arrival order, in chunks: one array would grow to several times itself.
	tuples   [][]dimTuple
	measures [][]float64
	slab     []Value // what the current chunk's Dims are cut from
	last     string  // the key that arrived last
	unsorted bool    // a key arrived that is not above the one before it
	key      []byte  // Add's scratch
}

// chunkTuples bounds a chunk, and with it the Dims that share an allocation:
// a version that keeps some of the tuples (Derive, Apply) pins little with them.
const chunkTuples = 256

// NewBuilder returns a Builder of versions under schema.
func NewBuilder(schema Schema) *Builder { return &Builder{schema: schema} }

// NewBuilderOn returns a Builder of versions under schema that follows prev, a
// revision's predecessor, where prev is a frozen cube under that schema (it may
// be nil), and is NewBuilder's otherwise.
func NewBuilderOn(prev *Cube, schema Schema) *Builder {
	b := NewBuilder(schema)
	if prev != nil && prev.Frozen() && prev.schema.Equal(schema) {
		b.follow = prev.View()
		b.cur = b.follow.Cursor()
	}
	return b
}

// InOrder reports whether every key so far arrived above the one before it.
func (b *Builder) InOrder() bool { return !b.unsorted }

// Add asserts the measure for the dimension tuple, which it copies.
func (b *Builder) Add(dims []Value, measure float64) error {
	if err := checkDims(&b.schema, dims); err != nil {
		return err
	}
	n := len(dims)
	b.key = AppendKey(b.key[:0], dims)
	if b.follow != nil {
		if ts := b.follow.keys.tuples; b.n < len(ts) && ts[b.n].key == string(b.key) {
			b.AddFollowing(measure)
			return nil
		}
		b.unfollow()
	}
	if b.n > 0 && b.last >= string(b.key) {
		b.unsorted = true
	}
	c := len(b.tuples) - 1
	if c < 0 || len(b.tuples[c]) == cap(b.tuples[c]) {
		size := min(max(b.n, 16), chunkTuples) // small cubes stay small
		b.tuples, b.measures = append(b.tuples, make([]dimTuple, 0, size)), append(b.measures, make([]float64, 0, size))
		b.slab = make([]Value, size*n)
		c++
	}
	d := b.slab[:n:n]
	b.slab = b.slab[n:]
	copy(d, dims)
	b.last = string(b.key)
	b.tuples[c], b.measures[c] = append(b.tuples[c], dimTuple{d, b.last}), append(b.measures[c], measure)
	b.n++
	return nil
}

// Following returns the predecessor's next dimension tuple — its Dims, to be
// left untouched — while the Builder follows a predecessor that has one more.
// A caller whose next arrival holds those values, == each, may AddFollowing its
// measure instead of Add, which would encode a key to find the same.
func (b *Builder) Following() ([]Value, bool) {
	if b.follow == nil || b.n == len(b.follow.keys.tuples) {
		return nil, false
	}
	return b.follow.keys.tuples[b.n].dims, true
}

// AddFollowing is Add of the tuple Following has just returned: a measure
// that is the predecessor's, bit for bit, is nothing more to hold.
func (b *Builder) AddFollowing(measure float64) {
	i := b.n
	b.n++
	if b.col != nil {
		b.col = append(b.col, measure)
		return
	}
	if math.Float64bits(measure) == math.Float64bits(b.cur.At(i)) {
		return
	}
	if k := len(b.rows); k == cap(b.rows) {
		// Room first for what may be kept before the Builder can switch to a
		// column, all that a result most of whose measures move pays for;
		// then for a chunk at once: as many allocations for a few rows kept
		// as for a few hundred.
		grow := patchShare + 1
		if k > 0 {
			grow = max(chunkTuples, k)
		}
		b.rows, b.vals = slices.Grow(b.rows, grow), slices.Grow(b.vals, grow)
	}
	b.rows, b.vals = append(b.rows, int32(i)), append(b.vals, measure)
	if k := len(b.rows); k > patchShare && k > b.n/patchShare {
		b.col = b.column(b.follow.Len())
	}
}

// column returns the measures of the arrivals so far, while they follow the
// predecessor and before col holds them, as a column with room for size, and
// lets go of the rows kept.
func (b *Builder) column(size int) []float64 {
	o := b.follow.held()
	col := o.appendTo(make([]float64, 0, size), 0, b.n)
	for j, r := range b.rows {
		col[r] = b.vals[j]
	}
	b.rows, b.vals = nil, nil
	return col
}

// unfollow makes the arrivals so far, a prefix of the predecessor's tuples, the
// first chunk of a Builder that follows nothing. The chunk is the predecessor's
// array and full, so that what arrives next goes to a chunk of the Builder's own.
func (b *Builder) unfollow() {
	if n := b.n; n > 0 {
		ms := b.col
		if ms == nil {
			ms = b.column(n)
		}
		ts := b.follow.keys.tuples[:n:n]
		b.tuples, b.measures, b.last = [][]dimTuple{ts}, [][]float64{ms[:n:n]}, ts[n-1].key
	}
	b.follow, b.cur, b.col = nil, Cursor{}, nil
}

// AddRow is Add for a row as a backend holds it, values all: one with an
// invalid (NULL, NA) dimension or measure is no tuple — a cube is a partial
// function — and a measure that is not a number is an error.
func (b *Builder) AddRow(dims []Value, measure Value) error {
	if !measure.IsValid() {
		return nil
	}
	for _, v := range dims {
		if !v.IsValid() {
			return nil
		}
	}
	m, ok := measure.AsNumber()
	if !ok {
		return fmt.Errorf("model: non-numeric measure %v for cube %s", measure, b.schema.Name)
	}
	return b.Add(dims, m)
}

// EgdError is Build's ErrFunctional: the violation in Put's words, and which
// arrival, counted from 0 in Add's order, asserted the second measure.
type EgdError struct {
	Arrival int
	err     error
}

func (e *EgdError) Error() string { return e.err.Error() }
func (e *EgdError) Unwrap() error { return e.err }

// Build returns the tuples added as a frozen cube. A dimension tuple that
// arrived more than once is settled by Put's rule: the first arrival stands
// where the others assert its measure (up to Eps); where one does not, the
// error is the ErrFunctional a loop of Put would have stopped at first, as an
// EgdError.
func (b *Builder) Build() (*Cube, error) {
	if b.follow != nil {
		if b.n < b.follow.Len() {
			b.unfollow()
		} else if b.col != nil {
			return onKeySet(b.schema, newView(b.follow.keys, b.col)), nil
		} else {
			return onKeySet(b.schema, b.follow.restate(b.rows, b.vals)), nil
		}
	}
	tuples, measures := make([]dimTuple, 0, b.n), make([]float64, 0, b.n)
	for c := range b.tuples {
		tuples, measures = append(tuples, b.tuples[c]...), append(measures, b.measures[c]...)
	}
	if b.unsorted {
		var err error
		if tuples, measures, err = settle(b.schema.Name, tuples, measures); err != nil {
			return nil, err
		}
	}
	return onKeySet(b.schema, newView(&keySet{tuples: tuples}, measures)), nil
}

// settle puts tuples collected in arrival order, and their measures, into
// cube order, in place, and keeps one tuple per key.
func settle(name string, tuples []dimTuple, measures []float64) ([]dimTuple, []float64, error) {
	type arrival struct {
		measure float64
		seq     int
	}
	arrivals := make([]arrival, len(measures))
	for i, m := range measures {
		arrivals[i] = arrival{m, i}
	}
	sortByKeys(tuples, arrivals)
	var egd error // nil, not a nil *EgdError
	egdSeq, out := len(arrivals), 0
	for i, j := 0, 0; i < len(tuples); i = j {
		first := i // the run of one key is [i, j); first is its earliest arrival
		for j = i + 1; j < len(tuples) && tuples[j].key == tuples[i].key; j++ {
			if arrivals[j].seq < arrivals[first].seq {
				first = j
			}
		}
		for k := i; k < j; k++ {
			if a := arrivals[k]; k != first && a.seq < egdSeq {
				if err := checkEgd(name, tuples[k].dims, arrivals[first].measure, a.measure); err != nil {
					egd, egdSeq = &EgdError{Arrival: a.seq, err: err}, a.seq
				}
			}
		}
		tuples[out], measures[out] = tuples[first], arrivals[first].measure
		out++
	}
	if out < len(tuples) { // arrays of their own size: a store keeps every version
		return slices.Clone(tuples[:out]), slices.Clone(measures[:out]), egd
	}
	return tuples, measures, egd
}
