package sqlengine

import (
	"context"
	"fmt"

	"exlengine/internal/model"
	"exlengine/internal/ops"
)

// registerStandardTabularFuncs installs the black-box operators as tabular
// functions, the "statistical add-ons" of Section 5.1: each takes a table
// with one period column and one numeric column (a time series under the
// established naming conventions) and returns a table of the same shape.
func registerStandardTabularFuncs(db *DB) {
	for _, name := range []string{"stl_t", "stl_s", "stl_i", "movavg", "cumsum", "lintrend"} {
		fn := name
		db.RegisterTabular(fn, func(args []*Table, params []float64) (*Table, error) {
			return seriesTabular(fn, args, params)
		})
	}
}

func seriesTabular(opName string, args []*Table, params []float64) (*Table, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("%s takes exactly one table argument", opName)
	}
	in := args[0]
	pCol, vCol := -1, -1
	for i, c := range in.Cols {
		switch c.Type.Kind {
		case KPeriod:
			if pCol >= 0 {
				return nil, fmt.Errorf("%s needs a single period column, table %s has several", opName, in.Name)
			}
			pCol = i
		case KDouble, KInteger:
			if vCol < 0 {
				vCol = i
			}
		}
	}
	if pCol < 0 || vCol < 0 {
		return nil, fmt.Errorf("%s needs a (period, numeric) table, got %s", opName, in.Name)
	}

	pts := make([]ops.SeriesPoint, 0, len(in.Rows))
	for _, r := range in.Rows {
		p, ok := r[pCol].AsPeriod()
		if !ok {
			return nil, fmt.Errorf("%s: non-period value %v in column %s", opName, r[pCol], in.Cols[pCol].Name)
		}
		v, ok := r[vCol].AsNumber()
		if !ok {
			return nil, fmt.Errorf("%s: non-numeric value %v in column %s", opName, r[vCol], in.Cols[vCol].Name)
		}
		pts = append(pts, ops.SeriesPoint{P: p, V: v})
	}
	if err := ops.ApplySeries(opName, pts, params); err != nil {
		return nil, err
	}
	out := &Table{
		Name: opName,
		Cols: []Column{in.Cols[pCol], in.Cols[vCol]},
	}
	for _, pt := range pts {
		out.Rows = append(out.Rows, []model.Value{model.Per(pt.P), model.Num(pt.V)})
	}
	return out, nil
}

// ColumnForDim maps a cube dimension type to a SQL column type.
func ColumnForDim(t model.DimType) ColType {
	switch t.Kind {
	case model.DimString:
		return ColType{Kind: KVarchar}
	case model.DimInt:
		return ColType{Kind: KInteger}
	case model.DimPeriod:
		return ColType{Kind: KPeriod, Freq: t.Freq}
	default:
		return ColType{Kind: KVarchar}
	}
}

// CreateTableFor creates an empty table matching a cube schema: one column
// per dimension plus the measure as DOUBLE. Column names are lowercased
// dimension/measure names.
func (db *DB) CreateTableFor(sch model.Schema) error {
	cols := make([]Column, 0, len(sch.Dims)+1)
	for _, d := range sch.Dims {
		cols = append(cols, Column{Name: lower(d.Name), Type: ColumnForDim(d.Type)})
	}
	cols = append(cols, Column{Name: lower(sch.Measure), Type: ColType{Kind: KDouble}})
	db.mu.Lock()
	defer db.mu.Unlock()
	name := lower(sch.Name)
	if _, exists := db.tables[name]; exists {
		return fmt.Errorf("sql: table %s already exists", name)
	}
	db.tables[name] = &Table{Name: name, Cols: cols}
	return nil
}

// LoadCube bulk-loads a cube instance into the matching table (created if
// absent). An empty table takes the cube's view as its content, which costs
// nothing once the version's order is cached: the vectorized executor reads
// the stored version in place, and rows are built if and when something
// asks for them. The view shows the cube as it is now, whatever is done to
// the cube afterwards. Loading into a table that already has content
// appends rows.
func (db *DB) LoadCube(c *model.Cube) error {
	name := lower(c.Schema().Name)
	t, ok := db.lookup(name)
	if !ok {
		if err := db.CreateTableFor(c.Schema()); err != nil {
			return err
		}
		t, _ = db.lookup(name)
	}
	if len(t.Cols) != len(c.Schema().Dims)+1 {
		return fmt.Errorf("sql: table %s has %d columns, cube %s wants %d", t.Name, len(t.Cols), c.Schema().Name, len(c.Schema().Dims)+1)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if t.numRows() == 0 {
		t.viewMu.Lock()
		t.view, t.Rows = c.View(), nil
		t.viewMu.Unlock()
		return nil
	}
	t.materialize()
	t.Rows = append(t.Rows, viewRows(c.View(), len(t.Cols))...)
	return nil
}

// ExtractCube is ExtractCubeOn with no predecessor.
func (db *DB) ExtractCube(sch model.Schema) (*model.Cube, error) { return db.ExtractCubeOn(nil, sch) }

// ExtractCubeOn reads a table back into a frozen cube with the given schema,
// as the revision of prev, the cube's previous version (nil when there is
// none): rows that are prev's dimension tuples, all of them in that order,
// become a measure column on prev's key set (model.NewBuilderOn). The table
// columns must be the dimensions (in order) followed by the measure, which
// is how CreateTableFor lays tables out; rows containing a NULL are dropped,
// matching the partial-function semantics of cubes. The table is read as a
// statement reads it, a scan batch at a time: no copy of it is made, and one
// still holding a loaded version stays a view.
func (db *DB) ExtractCubeOn(prev *model.Cube, sch model.Schema) (*model.Cube, error) {
	t, ok := db.lookup(lower(sch.Name))
	if !ok {
		return nil, fmt.Errorf("sql: no table for cube %s", sch.Name)
	}
	if len(t.Cols) != len(sch.Dims)+1 {
		return nil, fmt.Errorf("sql: table %s has %d columns, cube %s wants %d", t.Name, len(t.Cols), sch.Name, len(sch.Dims)+1)
	}
	out := model.NewBuilderOn(prev, sch)
	dims := make([]model.Value, len(sch.Dims))
	scan := newScanOp(context.Background(), &scanNode{table: t}, nil)
	for {
		b, err := scan.next()
		if err != nil {
			return nil, fmt.Errorf("sql: %w", err)
		}
		if b == nil {
			break
		}
		for i := 0; i < b.N; i++ {
			for d := range dims {
				dims[d] = b.Cols[d][i]
			}
			if err := out.AddRow(dims, b.Cols[len(dims)][i]); err != nil {
				return nil, fmt.Errorf("sql: %w", err)
			}
		}
	}
	c, err := out.Build()
	if err != nil {
		return nil, fmt.Errorf("sql: %w", err)
	}
	return c, nil
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
