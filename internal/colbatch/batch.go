// Package colbatch is the columnar batch representation shared by the
// vectorized SQL executor and the matrix-oriented frame engine: a batch
// is one []model.Value slice per column plus an explicit row count, so
// projections and chunking are column re-slices instead of row-by-row
// copies.
//
// A batch is not written to while a consumer may still read it: operators
// that drop or reorder rows build column slices of their own rather than
// mutating shared ones, which is what makes zero-copy column sharing
// between operators safe. How long a consumer may read is the producer's
// to say; the SQL executor's operators refill their batches and say "until
// my next call" (sqlengine/exec.go).
package colbatch

import (
	"fmt"

	"exlengine/internal/model"
)

// Chunk is the preferred number of rows per streamed batch. It is large
// enough to amortize per-batch overhead and small enough that a batch's
// working set stays cache-resident.
const Chunk = 1024

// Batch is a columnar slice of rows: Cols[i] holds column i's value for
// every row. N is explicit so zero-column batches (SELECT of literals
// only, fully pruned scans) still carry their row count.
type Batch struct {
	N    int
	Cols [][]model.Value
}

// New returns an empty batch with the given number of columns.
func New(width int) *Batch {
	return &Batch{Cols: make([][]model.Value, width)}
}

// NumCols returns the number of columns.
func (b *Batch) NumCols() int { return len(b.Cols) }

// AppendRow appends one row across all columns. The row length must
// match the batch width.
func (b *Batch) AppendRow(row []model.Value) {
	for i, v := range row {
		b.Cols[i] = append(b.Cols[i], v)
	}
	b.N++
}

// Row gathers row i into buf (grown as needed) and returns it.
func (b *Batch) Row(i int, buf []model.Value) []model.Value {
	if cap(buf) < len(b.Cols) {
		buf = make([]model.Value, len(b.Cols))
	}
	buf = buf[:len(b.Cols)]
	for j, c := range b.Cols {
		buf[j] = c[i]
	}
	return buf
}

// Project returns the batch restricted to the given column indices, as a
// zero-copy column re-slice.
func (b *Batch) Project(idx []int) *Batch {
	out := &Batch{N: b.N, Cols: make([][]model.Value, len(idx))}
	for i, j := range idx {
		out.Cols[i] = b.Cols[j]
	}
	return out
}

// FromRows converts a row-major relation into a batch. width is the
// number of columns (needed when rows is empty).
func FromRows(rows [][]model.Value, width int) *Batch {
	b := &Batch{N: len(rows), Cols: make([][]model.Value, width)}
	for i := range b.Cols {
		col := make([]model.Value, len(rows))
		for r, row := range rows {
			col[r] = row[i]
		}
		b.Cols[i] = col
	}
	return b
}

// Rows materializes the batch as row-major slices (the representation of
// sqlengine tables and frames). This is the one place a row-by-row copy
// happens; everything upstream stays columnar.
func (b *Batch) Rows() [][]model.Value {
	rows := make([][]model.Value, b.N)
	backing := make([]model.Value, b.N*len(b.Cols))
	for i := range rows {
		row := backing[i*len(b.Cols) : (i+1)*len(b.Cols) : (i+1)*len(b.Cols)]
		for j, c := range b.Cols {
			row[j] = c[i]
		}
		rows[i] = row
	}
	return rows
}

// ToCube converts a batch back into a cube under the given schema. The
// columns must be the dimensions (in order) followed by the measure.
// Rows containing an invalid (NULL/NA) value are dropped, matching the
// partial-function semantics of cubes.
func ToCube(b *Batch, sch model.Schema) (*model.Cube, error) {
	c := model.NewCube(sch)
	if err := AppendToCube(c, b); err != nil {
		return nil, err
	}
	return c, nil
}

// AppendToCube puts the batch's rows into c under ToCube's rules, for a
// producer that hands its rows over a batch at a time.
func AppendToCube(c *model.Cube, b *Batch) error {
	sch := c.Schema()
	if len(b.Cols) != len(sch.Dims)+1 {
		return fmt.Errorf("colbatch: batch has %d columns, cube %s wants %d",
			len(b.Cols), sch.Name, len(sch.Dims)+1)
	}
	dims := make([]model.Value, len(sch.Dims))
	mcol := b.Cols[len(b.Cols)-1]
	for i := 0; i < b.N; i++ {
		null := false
		for d := 0; d < len(dims); d++ {
			v := b.Cols[d][i]
			if !v.IsValid() {
				null = true
				break
			}
			dims[d] = v
		}
		if null || !mcol[i].IsValid() {
			continue
		}
		m, ok := mcol[i].AsNumber()
		if !ok {
			return fmt.Errorf("colbatch: non-numeric measure %v for cube %s", mcol[i], sch.Name)
		}
		if err := c.Put(dims, m); err != nil {
			return err
		}
	}
	return nil
}
