package sqlengine

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"exlengine/internal/model"
)

// TypeKind classifies SQL column types.
type TypeKind uint8

// Column type kinds.
const (
	KDouble TypeKind = iota
	KInteger
	KVarchar
	KPeriod
)

// ColType is a SQL column type; period columns carry their frequency
// (declared as DAY, MONTH, QUARTER or YEAR).
type ColType struct {
	Kind TypeKind
	Freq model.Frequency
}

// String returns the DDL name of the type.
func (t ColType) String() string {
	switch t.Kind {
	case KDouble:
		return "DOUBLE"
	case KInteger:
		return "INTEGER"
	case KVarchar:
		return "VARCHAR"
	case KPeriod:
		return strings.ToUpper(t.Freq.String())
	default:
		return "UNKNOWN"
	}
}

// parseColType reads a column type as ColType.String prints it.
func parseColType(name string) (ColType, error) {
	for _, t := range []ColType{{Kind: KDouble}, {Kind: KInteger}, {Kind: KVarchar},
		{Kind: KPeriod, Freq: model.Daily}, {Kind: KPeriod, Freq: model.Monthly},
		{Kind: KPeriod, Freq: model.Quarterly}, {Kind: KPeriod, Freq: model.Annual}} {
		if strings.ToLower(t.String()) == name {
			return t, nil
		}
	}
	return ColType{}, fmt.Errorf("sql: unknown column type %q", name)
}

// Column is a named, typed table column.
type Column struct {
	Name string
	Type ColType
}

// Table is a relation of the database: one frozen cube version. Its columns
// are the cube's dimensions, then its measure (columns). A table is created
// empty, and takes one version: a loaded cube (DB.LoadCube) or the result of
// an INSERT … SELECT. Scans read the version where it lies, and DB.ExtractCube
// hands it back as it is.
type Table struct {
	cube *model.Cube
}

// Cube returns the version the table holds.
func (t *Table) Cube() *model.Cube { return t.cube }

// columns returns the columns of the table of a cube: one per dimension,
// named in lower case, then the measure as DOUBLE.
func columns(sch model.Schema) []Column {
	cols := make([]Column, 0, len(sch.Dims)+1)
	for _, d := range sch.Dims {
		cols = append(cols, Column{Name: lower(d.Name), Type: ColumnForDim(d.Type)})
	}
	return append(cols, Column{Name: lower(sch.Measure), Type: ColType{Kind: KDouble}})
}

// cubeSchema returns the schema of the cube whose columns are cols: VARCHAR,
// INTEGER or period dimensions, then exactly one DOUBLE measure. A relation
// of any other shape is no cube, and has no table.
func cubeSchema(name string, cols []Column) (model.Schema, error) {
	n := len(cols) - 1
	if n < 0 || cols[n].Type.Kind != KDouble {
		return model.Schema{}, fmt.Errorf("sql: %s is no cube: its last column is not a DOUBLE measure", name)
	}
	dims := make([]model.Dim, n)
	for i, c := range cols[:n] {
		var t model.DimType
		switch c.Type.Kind {
		case KVarchar:
			t = model.TString
		case KInteger:
			t = model.TInt
		case KPeriod:
			t = model.DimType{Kind: model.DimPeriod, Freq: c.Type.Freq}
		default:
			return model.Schema{}, fmt.Errorf("sql: %s is no cube: its column %s is %s, and only its last, the measure, may be", name, c.Name, c.Type)
		}
		dims[i] = model.Dim{Name: c.Name, Type: t}
	}
	return model.NewSchema(name, dims, cols[n].Name), nil
}

// DB is an in-memory SQL database.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	views  map[string]*createViewStmt
	prev   map[string]*model.Cube // by table name: the predecessor of the version an INSERT builds
}

// NewDB returns an empty database. Its tabular functions are the black-box
// series operators (STL_T, STL_S, STL_I, MOVAVG, CUMSUM, LINTREND).
func NewDB() *DB {
	return &DB{
		tables: make(map[string]*Table),
		views:  make(map[string]*createViewStmt),
	}
}

// Table returns the named table (case-insensitive).
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[lower(name)]
	return t, ok
}

// Follow hands the database the previous version of each cube its tables are
// to hold, by cube name: an INSERT into the table of such a cube builds its
// version as the revision of that predecessor (model.NewBuilderOn), where the
// predecessor's columns are the table's. A result that holds its
// predecessor's dimension tuples, in order, is then a version on the
// predecessor's key set.
func (db *DB) Follow(prev map[string]*model.Cube) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.prev = make(map[string]*model.Cube, len(prev))
	for name, c := range prev {
		db.prev[lower(name)] = c
	}
}

// Exec parses and executes a script of semicolon-separated statements. The
// whole script is parsed first, so a statement outside the dialect refuses
// the script before any of it runs; execution stops at the first error.
func (db *DB) Exec(src string) error {
	return db.ExecContext(context.Background(), src)
}

// ExecContext is Exec with a context: a tracer or metrics registry in
// ctx instruments the analyzer rules and executor operators.
func (db *DB) ExecContext(ctx context.Context, src string) error {
	stmts, err := parseScript(src)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		if err := db.run(ctx, s); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) run(ctx context.Context, s stmt) error {
	switch s := s.(type) {
	case *createStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		if _, exists := db.tables[s.table]; exists {
			return fmt.Errorf("sql: table %s already exists", s.table)
		}
		if _, exists := db.views[s.table]; exists {
			return fmt.Errorf("sql: a view named %s already exists", s.table)
		}
		db.tables[s.table] = &Table{cube: model.NewCube(s.schema).Freeze()}
		return nil
	case *createViewStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		if _, exists := db.tables[s.name]; exists {
			return fmt.Errorf("sql: a table named %s already exists", s.name)
		}
		if _, exists := db.views[s.name]; exists {
			return fmt.Errorf("sql: view %s already exists", s.name)
		}
		db.views[s.name] = s
		return nil
	default:
		return db.evalInsertSelect(ctx, s.(*insertSelectStmt))
	}
}
