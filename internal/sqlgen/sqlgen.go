// Package sqlgen translates executable schema mappings into SQL (Section
// 5.1): tuple-level tgds become INSERT … SELECT statements whose join
// conditions are generated from the repeated variables of the lhs (shifted
// terms become arithmetic conditions such as C2.q = C1.q - 1), aggregation
// tgds add GROUP BY clauses, and black-box tgds select from tabular
// functions (INSERT INTO GDPT(q, g) SELECT t, v FROM STL_T(GDP)).
//
// The emitted dialect is exactly the one implemented by
// internal/sqlengine, so every generated script can be executed and
// validated against the chase.
package sqlgen

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
	"exlengine/internal/sqlengine"
)

// Script is a full SQL translation of a mapping: DDL for every derived and
// auxiliary table, plus one INSERT step per tgd, in stratification order.
type Script struct {
	DDL   []string
	Steps []Step
}

// Step is the SQL translation of one tgd.
type Step struct {
	TgdID  string
	Target string
	SQL    string
}

// String renders the whole script.
func (s *Script) String() string {
	var b strings.Builder
	for _, d := range s.DDL {
		b.WriteString(d)
		b.WriteString(";\n")
	}
	for _, st := range s.Steps {
		fmt.Fprintf(&b, "-- %s -> %s\n%s;\n", st.TgdID, st.Target, st.SQL)
	}
	return b.String()
}

// CreateTableSQL renders the DDL for a cube schema.
func CreateTableSQL(sch model.Schema) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE %s (", sch.Name)
	for i, d := range sch.Dims {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", strings.ToLower(d.Name), sqlengine.ColumnForDim(d.Type))
	}
	if len(sch.Dims) > 0 {
		b.WriteString(", ")
	}
	fmt.Fprintf(&b, "%s DOUBLE)", strings.ToLower(sch.Measure))
	return b.String()
}

// ErrUntranslatable is wrapped by the error Translate returns for a mapping
// the emitted dialect cannot express ("depending on the specific operators
// used in the rhs, the translation may be actually feasible or not",
// Section 5). ops.Supports keeps such mappings away from the SQL target;
// this is the refusal when one arrives anyway.
var ErrUntranslatable = errors.New("not translatable to SQL")

// Options configures the translation.
type Options struct {
	// AuxAsViews renders auxiliary relations (the temporary cubes of
	// normalized statements) as relational views instead of materialized
	// tables — the paper's Section 6 note that "intermediate cubes can be
	// irrelevant" and the approach "can be easily reformulated in terms of
	// creation of relational views".
	AuxAsViews bool
}

// Translate renders the whole mapping as a SQL script: CREATE TABLE for
// every non-elementary relation and one INSERT per tgd in order.
func Translate(m *mapping.Mapping) (*Script, error) {
	return TranslateWith(m, Options{})
}

// TranslateWith is Translate with explicit options.
func TranslateWith(m *mapping.Mapping, opts Options) (*Script, error) {
	s := &Script{}
	asView := func(t *mapping.Tgd) bool { return opts.AuxAsViews && t.Auxiliary }
	for _, t := range m.Tgds {
		if asView(t) {
			continue // the view DDL carries its own defining query
		}
		s.DDL = append(s.DDL, CreateTableSQL(m.Schemas[t.Target()]))
	}
	for _, t := range m.Tgds {
		if asView(t) {
			sql, err := TgdViewSQL(t, m.Schemas)
			if err != nil {
				return nil, fmt.Errorf("sqlgen: tgd %s: %w", t.ID, err)
			}
			s.Steps = append(s.Steps, Step{TgdID: t.ID, Target: t.Target(), SQL: sql})
			continue
		}
		sql, err := TgdSQL(t, m.Schemas)
		if err != nil {
			return nil, fmt.Errorf("sqlgen: tgd %s: %w", t.ID, err)
		}
		s.Steps = append(s.Steps, Step{TgdID: t.ID, Target: t.Target(), SQL: sql})
	}
	return s, nil
}

// Execute creates the derived tables and runs every step of the
// translation against the database. Elementary tables must have been
// loaded beforehand (DB.LoadCube).
func Execute(s *Script, db *sqlengine.DB) error {
	return ExecuteContext(context.Background(), s, db)
}

// ExecuteContext is Execute under a context: cancellation aborts the
// script between statements and, inside one, at the next batch a scan
// reads, and a tracer carried by the context records
// one span per DDL batch and per INSERT step, with the engine's own
// spans (sql.vec, sql.analyze, sql.exec) and operator counters beneath.
func ExecuteContext(ctx context.Context, s *Script, db *sqlengine.DB) error {
	if len(s.DDL) > 0 {
		dctx, span := obs.StartSpan(ctx, "sql.ddl", obs.Int("statements", len(s.DDL)))
		for _, d := range s.DDL {
			if err := db.ExecContext(dctx, d); err != nil {
				span.EndErr(err)
				return err
			}
		}
		span.End()
	}
	for _, st := range s.Steps {
		if err := ctx.Err(); err != nil {
			return err
		}
		sctx, span := obs.StartSpan(ctx, "sql.stmt",
			obs.String("tgd", st.TgdID), obs.String("cube", st.Target))
		err := db.ExecContext(sctx, st.SQL)
		span.EndErr(err)
		if err != nil {
			return fmt.Errorf("sqlgen: executing %s: %w", st.TgdID, err)
		}
	}
	return nil
}

// binding locates a tgd variable in the FROM clause: a SQL expression over
// an atom alias.
type binding string

// TgdSQL translates one tgd into an INSERT statement.
func TgdSQL(t *mapping.Tgd, schemas map[string]model.Schema) (string, error) {
	body, cols, err := tgdSelect(t, schemas)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("INSERT INTO %s(%s)\n%s", t.Rhs.Rel, strings.Join(cols, ", "), body), nil
}

// TgdViewSQL translates one tgd into a CREATE VIEW statement, the paper's
// Section 6 variant where temporary cubes are not stored back but defined
// as relational views evaluated on demand.
func TgdViewSQL(t *mapping.Tgd, schemas map[string]model.Schema) (string, error) {
	body, _, err := tgdSelect(t, schemas)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("CREATE VIEW %s AS\n%s", t.Rhs.Rel, body), nil
}

// tgdSelect builds the SELECT body computing a tgd's target relation,
// along with the target column names in SELECT order.
func tgdSelect(t *mapping.Tgd, schemas map[string]model.Schema) (string, []string, error) {
	switch t.Kind {
	case mapping.BlackBox:
		return blackBoxSelect(t, schemas)
	case mapping.PadVector:
		return "", nil, fmt.Errorf("padded vectorial operator %s: %w: the emitted SQL dialect has no outer joins", t.PadOp, ErrUntranslatable)
	case mapping.TupleLevel, mapping.Aggregation, mapping.Copy:
		return joinSelect(t, schemas)
	default:
		return "", nil, fmt.Errorf("unsupported tgd kind %s", t.Kind)
	}
}

func blackBoxSelect(t *mapping.Tgd, schemas map[string]model.Schema) (string, []string, error) {
	in, ok := schemas[t.Lhs[0].Rel]
	if !ok {
		return "", nil, fmt.Errorf("no schema for %s", t.Lhs[0].Rel)
	}
	out, ok := schemas[t.Rhs.Rel]
	if !ok {
		return "", nil, fmt.Errorf("no schema for %s", t.Rhs.Rel)
	}
	if len(in.Dims) != 1 || len(out.Dims) != 1 {
		return "", nil, fmt.Errorf("black box %s needs time-series operand and result", t.BB)
	}
	args := t.Lhs[0].Rel
	for _, p := range t.BBParams {
		args += ", " + formatNum(p)
	}
	cols := []string{strings.ToLower(out.Dims[0].Name), strings.ToLower(out.Measure)}
	body := fmt.Sprintf("SELECT %s AS %s, %s AS %s\nFROM %s(%s)",
		strings.ToLower(in.Dims[0].Name), cols[0],
		strings.ToLower(in.Measure), cols[1],
		strings.ToUpper(t.BB), args)
	return body, cols, nil
}

func joinSelect(t *mapping.Tgd, schemas map[string]model.Schema) (string, []string, error) {
	out, ok := schemas[t.Rhs.Rel]
	if !ok {
		return "", nil, fmt.Errorf("no schema for %s", t.Rhs.Rel)
	}

	vars := make(map[string]binding)
	var from []string
	var where []string

	for i, atom := range t.Lhs {
		alias := fmt.Sprintf("C%d", i+1)
		sch, ok := schemas[atom.Rel]
		if !ok {
			return "", nil, fmt.Errorf("no schema for %s", atom.Rel)
		}
		from = append(from, fmt.Sprintf("%s %s", atom.Rel, alias))
		for j, d := range atom.Dims {
			col := fmt.Sprintf("%s.%s", alias, strings.ToLower(sch.Dims[j].Name))
			switch {
			case d.Const != nil:
				where = append(where, fmt.Sprintf("%s = %s", col, sqlLiteral(*d.Const)))
			case d.Func != "":
				return "", nil, fmt.Errorf("dimension function %s in lhs is not translatable", d.Func)
			default:
				if prev, bound := vars[d.Var]; bound {
					// col holds Var+Shift; the variable is already bound.
					where = append(where, fmt.Sprintf("%s = %s", col, shiftExpr(string(prev), d.Shift)))
				} else {
					// First occurrence: Var = col - Shift.
					vars[d.Var] = binding(shiftExpr(col, -d.Shift))
				}
			}
		}
		if atom.MVar != "" {
			vars[atom.MVar] = binding(fmt.Sprintf("%s.%s", alias, strings.ToLower(sch.Measure)))
		}
	}

	// Output dimension expressions.
	var selectList, insertCols, groupBy []string
	for j, d := range t.Rhs.Dims {
		colName := strings.ToLower(out.Dims[j].Name)
		insertCols = append(insertCols, colName)
		expr, err := dimTermSQL(d, vars)
		if err != nil {
			return "", nil, err
		}
		selectList = append(selectList, fmt.Sprintf("%s AS %s", expr, colName))
		groupBy = append(groupBy, expr)
	}
	insertCols = append(insertCols, strings.ToLower(out.Measure))

	measure, err := mtermSQL(t.Measure, vars)
	if err != nil {
		return "", nil, err
	}
	if t.Kind == mapping.Aggregation {
		// The engine would take an unknown name for a scalar function and
		// fail only at a row that calls it.
		if _, err := ops.FoldOf(t.Agg); err != nil {
			return "", nil, err
		}
		if t.Agg == "count" {
			// The chase aggregates the bag of *defined* measure points and
			// emits no output tuple for an all-undefined group. SQL COUNT
			// would instead report 0 (and NULL-strict expressions would
			// silently shrink other aggregates' bags to match), so guard
			// the group input: rows whose measure term is undefined never
			// enter a group, and empty groups never exist.
			where = append(where, fmt.Sprintf("%s IS NOT NULL", measure))
			if len(groupBy) == 0 {
				// A dimensionless count would otherwise be a global
				// aggregate, whose synthesized empty group answers 0 where
				// the chase emits nothing. Grouping by a constant keeps
				// exactly one group when qualifying rows exist and none
				// otherwise. Every other aggregate is NULL over an empty
				// global group and the NULL row is dropped, so only COUNT
				// needs this.
				groupBy = append(groupBy, "0")
			}
		}
		measure = fmt.Sprintf("%s(%s)", strings.ToUpper(t.Agg), measure)
	}
	selectList = append(selectList, fmt.Sprintf("%s AS %s", measure, strings.ToLower(out.Measure)))

	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s\nFROM %s",
		strings.Join(selectList, ", "), strings.Join(from, ", "))
	if len(where) > 0 {
		fmt.Fprintf(&b, "\nWHERE %s", strings.Join(where, " AND "))
	}
	if t.Kind == mapping.Aggregation && len(groupBy) > 0 {
		fmt.Fprintf(&b, "\nGROUP BY %s", strings.Join(groupBy, ", "))
	}
	return b.String(), insertCols, nil
}

func dimTermSQL(d mapping.DimTerm, vars map[string]binding) (string, error) {
	if d.Const != nil {
		return sqlLiteral(*d.Const), nil
	}
	bnd, ok := vars[d.Var]
	if !ok {
		return "", fmt.Errorf("unbound variable %s", d.Var)
	}
	expr := string(bnd)
	if d.Func != "" {
		return fmt.Sprintf("%s(%s)", strings.ToUpper(d.Func), expr), nil
	}
	return shiftExpr(expr, d.Shift), nil
}

func mtermSQL(m *mapping.MTerm, vars map[string]binding) (string, error) {
	switch m.Kind {
	case mapping.MConst:
		return formatNum(m.Val), nil
	case mapping.MVar:
		bnd, ok := vars[m.Var]
		if !ok {
			return "", fmt.Errorf("unbound measure variable %s", m.Var)
		}
		return string(bnd), nil
	case mapping.MApply:
		args := make([]string, 0, len(m.Args)+len(m.Params))
		for _, a := range m.Args {
			s, err := mtermSQL(a, vars)
			if err != nil {
				return "", err
			}
			args = append(args, s)
		}
		for _, p := range m.Params {
			args = append(args, formatNum(p))
		}
		switch m.Op {
		case "add", "sub", "mul", "div":
			sym := map[string]string{"add": "+", "sub": "-", "mul": "*", "div": "/"}[m.Op]
			return fmt.Sprintf("(%s %s %s)", args[0], sym, args[1]), nil
		case "neg":
			return fmt.Sprintf("(-%s)", args[0]), nil
		default:
			return fmt.Sprintf("%s(%s)", strings.ToUpper(m.Op), strings.Join(args, ", ")), nil
		}
	default:
		return "", fmt.Errorf("unknown measure term")
	}
}

func shiftExpr(expr string, shift int64) string {
	switch {
	case shift > 0:
		return fmt.Sprintf("%s + %d", expr, shift)
	case shift < 0:
		return fmt.Sprintf("%s - %d", expr, -shift)
	default:
		return expr
	}
}

func sqlLiteral(v model.Value) string {
	switch v.Kind() {
	case model.KindString, model.KindPeriod:
		return "'" + strings.ReplaceAll(v.String(), "'", "''") + "'"
	default:
		return v.String()
	}
}

func formatNum(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
