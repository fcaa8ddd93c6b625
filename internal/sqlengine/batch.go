package sqlengine

import (
	"slices"

	"exlengine/internal/model"
)

// chunk is the preferred number of rows per streamed batch. It is large
// enough to amortize per-batch overhead and small enough that a batch's
// working set stays cache-resident.
const chunk = 1024

// batch is the columnar slice of rows the vectorized executor's operators
// hand each other: Cols[i] holds column i's value for every row, so
// projections and chunking are column re-slices instead of row-by-row copies.
// N is explicit so zero-column batches (SELECT of literals only, fully pruned
// scans) still carry their row count.
//
// A batch is not written to while a consumer may still read it: operators
// that drop or reorder rows build column slices of their own rather than
// mutating shared ones, which is what makes zero-copy column sharing between
// operators safe. How long a consumer may read is the producer's to say; the
// operators refill their batches and say "until my next call" (exec.go),
// except where the batch is its consumer's to own: then no operator reads or
// writes it after handing it over.
type batch struct {
	N    int
	Cols []vec
	own  bool
}

// form is how a column holds its values.
type form uint8

const (
	// fVal: each value boxed, in vals — a computed dimension such as
	// QUARTER(d) or q - 1, a group key, a comparison. The only form that
	// holds pointers.
	fVal form = iota
	// fNum: numbers, in nums, with null marking the NULLs (nil: none).
	fNum
	// fOrd: a scanned dimension — rows are row ordinals into view, and the
	// values its tuples' dimension dim, read where they lie.
	fOrd
)

// vec is one column of a batch, in one of three forms. A scan hands out
// ordinals and a window of its version's measure column, and nothing else is
// made into values until a join key, a scalar call or an output reads them.
type vec struct {
	form form
	view *model.View
	dim  int
	rows []uint32
	nums []float64
	null []bool
	vals []model.Value
}

// len returns the number of rows the column holds.
func (v *vec) len() int {
	switch v.form {
	case fOrd:
		return len(v.rows)
	case fNum:
		return len(v.nums)
	}
	return len(v.vals)
}

// at returns the value of row i: nothing is allocated.
func (v *vec) at(i int) model.Value {
	switch v.form {
	case fOrd:
		return v.view.Dims(int(v.rows[i]))[v.dim]
	case fNum:
		if v.null != nil && v.null[i] {
			return model.Value{}
		}
		return model.Num(v.nums[i])
	}
	return v.vals[i]
}

// isNull reports whether row i is NULL.
func (v *vec) isNull(i int) bool {
	switch v.form {
	case fOrd:
		return false
	case fNum:
		return v.null != nil && v.null[i]
	}
	return !v.vals[i].IsValid()
}

// numbers returns the column as numbers and NULL marks — itself where it is a
// number column, else converted into the buffers — and the first row holding
// a value that is neither NULL nor a number, or -1: such a row reads 0 there.
func (v *vec) numbers(nums *[]float64, null *[]bool) ([]float64, []bool, int) {
	if v.form == fNum {
		return v.nums, v.null, -1
	}
	n, bad := v.len(), -1
	out := grow(*nums, n)
	var mask []bool
	for i := range out {
		x := v.at(i)
		f, ok := x.AsNumber()
		switch {
		case !x.IsValid():
			if mask == nil {
				mask = grow(*null, n)
				clear(mask)
				*null = mask
			}
			mask[i] = true
		case !ok && bad < 0:
			bad = i
		}
		out[i] = f
	}
	*nums = out
	return out, mask, bad
}

// sameSource reports whether o holds its values as v does, so that o's rows
// can join v's as they are.
func (v *vec) sameSource(o *vec) bool {
	return v.form == o.form && (v.form != fOrd || v.view == o.view && v.dim == o.dim)
}

// gather makes v the rows sel of src, in v's own buffers.
func (v *vec) gather(src *vec, sel []int) {
	v.form, v.view, v.dim = src.form, src.view, src.dim
	switch src.form {
	case fOrd:
		v.rows = grow(v.rows, len(sel))
		for i, r := range sel {
			v.rows[i] = src.rows[r]
		}
	case fNum:
		v.nums, v.null = grow(v.nums, len(sel)), nil
		for i, r := range sel {
			v.nums[i] = src.nums[r]
		}
		if src.null != nil {
			v.null = make([]bool, len(sel))
			for i, r := range sel {
				v.null[i] = src.null[r]
			}
		}
	default:
		v.vals = grow(v.vals, len(sel))
		for i, r := range sel {
			v.vals[i] = src.vals[r]
		}
	}
}

// add appends rows lo to hi of src to v, which has n rows: in src's form
// where v has none or holds its values as src does, else as values.
func (v *vec) add(src *vec, n, lo, hi int) {
	if n == 0 {
		v.form, v.view, v.dim = src.form, src.view, src.dim
	} else if !v.sameSource(src) && v.form != fVal {
		vals := make([]model.Value, n, n+hi-lo)
		for i := range vals {
			vals[i] = v.at(i)
		}
		*v = vec{vals: vals}
	}
	switch {
	case v.form == fVal:
		v.vals = slices.Grow(v.vals, hi-lo)
		for i := lo; i < hi; i++ {
			v.vals = append(v.vals, src.at(i))
		}
	case v.form == fOrd:
		v.rows = append(v.rows, src.rows[lo:hi]...)
	default:
		if src.null != nil && v.null == nil {
			v.null = make([]bool, n, cap(v.nums))
		}
		if v.null != nil {
			if src.null != nil {
				v.null = append(v.null, src.null[lo:hi]...)
			} else {
				v.null = append(v.null, make([]bool, hi-lo)...)
			}
		}
		v.nums = append(v.nums, src.nums[lo:hi]...)
	}
}

// grow returns buf resized to n, reallocating only on growth. Callers
// overwrite every element: stale ones are not cleared.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// appendRows appends rows lo to hi of src, a batch as wide, to b.
func (b *batch) appendRows(src *batch, lo, hi int) {
	for j := range b.Cols {
		b.Cols[j].add(&src.Cols[j], b.N, lo, hi)
	}
	b.N += hi - lo
}
