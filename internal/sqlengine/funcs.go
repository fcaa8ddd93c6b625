package sqlengine

import (
	"fmt"
	"slices"
	"strings"

	"exlengine/internal/model"
)

// ColumnForDim maps a cube dimension type to a SQL column type.
func ColumnForDim(t model.DimType) ColType {
	switch t.Kind {
	case model.DimInt:
		return ColType{Kind: KInteger}
	case model.DimPeriod:
		return ColType{Kind: KPeriod, Freq: t.Freq}
	default:
		return ColType{Kind: KVarchar}
	}
}

// CreateTableFor creates the empty table of a cube schema: one column per
// dimension plus the measure as DOUBLE, named in lower case.
func (db *DB) CreateTableFor(sch model.Schema) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	name := lower(sch.Name)
	if _, exists := db.tables[name]; exists {
		return fmt.Errorf("sql: table %s already exists", name)
	}
	db.tables[name] = &Table{cube: model.NewCube(sch).Freeze()}
	return nil
}

// LoadCube makes a cube the version of its table, created if absent: the
// table adopts the cube as it is now (Cube.Snapshot), whatever is done to the
// cube afterwards, and scans read the stored version in place. A table that
// already holds tuples, or whose columns are not the cube's, refuses it.
func (db *DB) LoadCube(c *model.Cube) error {
	c = c.Snapshot()
	name := lower(c.Schema().Name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if t, ok := db.tables[name]; ok {
		if err := fits(name, t.cube.Schema(), c.Schema()); err != nil {
			return err
		}
		if t.cube.Len() > 0 {
			return fmt.Errorf("sql: table %s already holds a version", name)
		}
	}
	db.tables[name] = &Table{cube: c}
	return nil
}

// ExtractCube returns the version the table of a cube schema holds, under
// that schema: the table's cube itself where it is under sch already, and
// otherwise the same version — its key set and measure column, by
// reference — renamed.
func (db *DB) ExtractCube(sch model.Schema) (*model.Cube, error) {
	t, ok := db.Table(sch.Name)
	if !ok {
		return nil, fmt.Errorf("sql: no table for cube %s", sch.Name)
	}
	c := t.cube
	if c.Schema().Equal(sch) {
		return c, nil
	}
	if err := fits(lower(sch.Name), c.Schema(), sch); err != nil {
		return nil, err
	}
	return c.DeriveColumn(sch, c.View().Measures(), nil)
}

// fits reports, as an error, whether a table whose cube is under have can hold
// the cubes of want: whether both have the same columns.
func fits(table string, have, want model.Schema) error {
	if a, b := columns(have), columns(want); !slices.Equal(a, b) {
		return fmt.Errorf("sql: table %s has columns %s, cube %s wants %s", table, colList(a), want.Name, colList(b))
	}
	return nil
}

// colList renders columns as a CREATE TABLE declares them.
func colList(cols []Column) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	return "(" + b.String() + ")"
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
