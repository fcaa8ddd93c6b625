package sqlengine

import (
	"maps"

	"exlengine/internal/model"
	"exlengine/internal/ops"
)

// Tables returns the database's tables by name, for the tests of package
// sqlengine_test.
func (db *DB) Tables() map[string]*Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return maps.Clone(db.tables)
}

// applyNeg is unary minus at one value: its column kernel over a column of
// one.
func applyNeg(x model.Value) (model.Value, error) {
	v, err := (&callC{name: "unary minus", op: neg}).mapOp([]*vec{{vals: []model.Value{x}}}, 1)
	if err != nil {
		return model.Value{}, err
	}
	return v.at(0), nil
}

// applyBinary is = or one of the four arithmetic operators, f its ops.Op
// (arith), at one pair of values: binC's column kernel over columns of one.
func applyBinary(op string, f ops.Op, l, r model.Value) (model.Value, error) {
	v, err := (&binC{op: op, f: f}).apply(&vec{vals: []model.Value{l}}, &vec{vals: []model.Value{r}}, 1)
	if err != nil {
		return model.Value{}, err
	}
	return v.at(0), nil
}

// AppendRow appends one row of values across all columns. The row length
// must match the batch width.
func (b *batch) AppendRow(row []model.Value) {
	for i, x := range row {
		b.Cols[i].add(&vec{vals: []model.Value{x}}, b.N, 0, 1)
	}
	b.N++
}

// Row gathers row i into buf (grown as needed) and returns it.
func (b *batch) Row(i int, buf []model.Value) []model.Value {
	buf = grow(buf, len(b.Cols))
	for j := range b.Cols {
		buf[j] = b.Cols[j].at(i)
	}
	return buf
}
