package sqlengine

import "exlengine/internal/model"

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
// operators refill their batches and say "until my next call" (exec.go).
type batch struct {
	N    int
	Cols [][]model.Value
}

// AppendRow appends one row across all columns. The row length must
// match the batch width.
func (b *batch) AppendRow(row []model.Value) {
	for i, v := range row {
		b.Cols[i] = append(b.Cols[i], v)
	}
	b.N++
}

// Row gathers row i into buf (grown as needed) and returns it.
func (b *batch) Row(i int, buf []model.Value) []model.Value {
	if cap(buf) < len(b.Cols) {
		buf = make([]model.Value, len(b.Cols))
	}
	buf = buf[:len(b.Cols)]
	for j, c := range b.Cols {
		buf[j] = c[i]
	}
	return buf
}
