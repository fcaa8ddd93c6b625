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
	switch name {
	case "double":
		return ColType{Kind: KDouble}, nil
	case "integer":
		return ColType{Kind: KInteger}, nil
	case "varchar":
		return ColType{Kind: KVarchar}, nil
	case "day":
		return ColType{Kind: KPeriod, Freq: model.Daily}, nil
	case "month":
		return ColType{Kind: KPeriod, Freq: model.Monthly}, nil
	case "quarter":
		return ColType{Kind: KPeriod, Freq: model.Quarterly}, nil
	case "year":
		return ColType{Kind: KPeriod, Freq: model.Annual}, nil
	default:
		return ColType{}, fmt.Errorf("sql: unknown column type %q", name)
	}
}

// Column is a named, typed table column.
type Column struct {
	Name string
	Type ColType
}

// Table is an in-memory relation: ordered columns and rows of values.
// Rows is the public, row-major representation (tests and tabular
// functions build it directly).
//
// A table bulk-loaded from a cube (DB.LoadCube) is a reference to the
// stored version — its model.View, dimensions then measure — until
// something needs its rows: DB.Table, a tabular function taking it as an
// argument, INSERT and a second load build them first, once, straight from
// the view. Rows is therefore valid on any table obtained from DB.Table. The
// executor reads either form a chunk at a time (scanOp) and never asks for
// the rows of a view.
type Table struct {
	Name string
	Cols []Column
	Rows [][]model.Value

	viewMu sync.Mutex
	view   *model.View // the content while non-nil; Rows is then yet to be built
}

// content returns what a scan reads: the loaded version, or else the rows.
func (t *Table) content() (*model.View, [][]model.Value) {
	t.viewMu.Lock()
	defer t.viewMu.Unlock()
	return t.view, t.Rows
}

// materialize builds Rows from the view of a bulk-loaded table; on any
// other table Rows is already the content.
func (t *Table) materialize() {
	t.viewMu.Lock()
	defer t.viewMu.Unlock()
	if t.view != nil {
		t.Rows, t.view = viewRows(t.view, len(t.Cols)), nil
	}
}

// viewRows returns a loaded version as rows of the given width: the
// dimensions, then the measure.
func viewRows(v *model.View, width int) [][]model.Value {
	rows := make([][]model.Value, v.Len())
	backing := make([]model.Value, len(rows)*width)
	for i := range rows {
		tu := v.Tuple(i)
		row := backing[i*width : (i+1)*width : (i+1)*width]
		copy(row, tu.Dims)
		row[width-1] = model.Num(tu.Measure)
		rows[i] = row
	}
	return rows
}

// numRows returns the row count without building rows.
func (t *Table) numRows() int {
	v, rows := t.content()
	if v != nil {
		return v.Len()
	}
	return len(rows)
}

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// String renders the table as a small fixed-width text grid (for CLI
// output and debugging).
func (t *Table) String() string {
	t.materialize()
	var b strings.Builder
	for i, c := range t.Cols {
		if i > 0 {
			b.WriteString("\t")
		}
		b.WriteString(c.Name)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		for i, v := range r {
			if i > 0 {
				b.WriteString("\t")
			}
			b.WriteString(v.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TabularFunc is a user- or system-defined tabular function usable in FROM
// position: it consumes whole tables (plus scalar parameters) and returns a
// table. Black-box operators such as STL_T are registered this way,
// matching the paper's "system provided API … or a user-defined stored
// function".
type TabularFunc func(args []*Table, params []float64) (*Table, error)

// DB is an in-memory SQL database.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	views  map[string]*selectStmt
	tabfns map[string]TabularFunc
}

// NewDB returns an empty database with the standard tabular functions
// (STL_T, STL_S, STL_I, MOVAVG, CUMSUM, LINTREND) registered.
func NewDB() *DB {
	db := &DB{
		tables: make(map[string]*Table),
		views:  make(map[string]*selectStmt),
		tabfns: make(map[string]TabularFunc),
	}
	registerStandardTabularFuncs(db)
	return db
}

// RegisterTabular registers (or replaces) a tabular function under the
// given name (case-insensitive).
func (db *DB) RegisterTabular(name string, fn TabularFunc) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tabfns[strings.ToLower(name)] = fn
}

// Table returns the named table (case-insensitive) with its Rows built.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.lookup(name)
	if ok {
		t.materialize()
	}
	return t, ok
}

// lookup returns the named table as it is stored: a bulk-loaded one may
// hold only its view. The executor reads tables this way.
func (db *DB) lookup(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
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
		db.tables[s.table] = &Table{Name: s.table, Cols: s.cols}
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
		db.views[s.name] = s.sel
		return nil
	default:
		return db.evalInsertSelect(ctx, s.(*insertSelectStmt))
	}
}
