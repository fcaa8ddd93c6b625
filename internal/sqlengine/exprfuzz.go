package sqlengine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"exlengine/internal/model"
)

// This file fuzzes the engine's NULL propagation directly, through the
// path generated scripts take: INSERT INTO R(x) SELECT … FROM ONE [WHERE c
// AND …] over a one-tuple table loaded with LoadCube, read back with
// ExtractCube. EXL has no NULL — an undefined point such as (a / 0) is one
// — and no booleans: the only predicates of generated SQL are WHERE
// conjuncts, equalities and IS NOT NULL guards. So random programs exercise
// them indirectly at best. Here random arithmetic trees over undefined
// points, constants and a column are evaluated by the engine and checked
// against an independent reference evaluator.
//
// A numeric expression N is inserted as R's measure: a NULL drops the row,
// anything else is R's one tuple. A conjunct list copies ONE's measure into
// R iff every conjunct is TRUE: x = y is TRUE when both sides are defined
// and equal, x IS NOT NULL when x is defined.

// numv is a nullable float: the reference counterpart of a SQL DOUBLE.
type numv struct {
	val  float64
	null bool
}

// ExprDivergence reports the engine disagreeing with the reference
// evaluator on one statement.
type ExprDivergence struct {
	SQL  string
	Want string
	Got  string
}

func (d ExprDivergence) String() string {
	return fmt.Sprintf("%s: engine says %s, reference says %s", d.SQL, d.Got, d.Want)
}

// colA is the measure of the one-tuple table ONE, its column a.
const colA = 7

// exprGen builds random expression trees, computing the reference value
// alongside the SQL text so both derive from the same tree.
type exprGen struct {
	rng *rand.Rand
}

// num generates a numeric expression.
func (g *exprGen) num(depth int) (string, numv) {
	if depth <= 0 || g.rng.Float64() < 0.3 {
		switch g.rng.Intn(6) {
		case 0:
			return "(a / 0)", numv{null: true} // an undefined point
		case 1:
			return "a", numv{val: colA}
		case 2:
			return "0", numv{}
		case 3:
			return "-2", numv{val: -2}
		case 4:
			return "1.5", numv{val: 1.5}
		default:
			return "3", numv{val: 3}
		}
	}
	switch g.rng.Intn(6) {
	case 0: // unary minus
		s, v := g.num(depth - 1)
		return "(- " + s + ")", numv{val: -v.val, null: v.null}
	case 1: // abs
		s, v := g.num(depth - 1)
		return "abs(" + s + ")", numv{val: math.Abs(v.val), null: v.null}
	default:
		ls, lv := g.num(depth - 1)
		rs, rv := g.num(depth - 1)
		op := []string{"+", "-", "*", "/"}[g.rng.Intn(4)]
		out := numv{null: lv.null || rv.null}
		if !out.null {
			switch op {
			case "+":
				out.val = lv.val + rv.val
			case "-":
				out.val = lv.val - rv.val
			case "*":
				out.val = lv.val * rv.val
			case "/":
				if rv.val == 0 {
					out = numv{null: true} // undefined point → NULL
				} else {
					out.val = lv.val / rv.val
				}
			}
		}
		return "(" + ls + " " + op + " " + rs + ")", out
	}
}

// conjuncts generates a WHERE clause of one to three conjuncts and reports
// whether every one of them is TRUE. A third of the equalities compare an
// expression with itself, which is TRUE exactly where it is defined: NULL =
// NULL is not.
func (g *exprGen) conjuncts() (string, bool) {
	var b strings.Builder
	holds := true
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		b.WriteString([]string{" WHERE ", " AND "}[min(i, 1)])
		ls, lv := g.num(1)
		switch g.rng.Intn(3) {
		case 0:
			b.WriteString(ls + " IS NOT NULL")
			holds = holds && !lv.null
		case 1:
			b.WriteString(ls + " = " + ls)
			holds = holds && !lv.null
		default:
			rs, rv := g.num(1)
			b.WriteString(ls + " = " + rs)
			holds = holds && !lv.null && !rv.null && lv.val == rv.val
		}
	}
	return b.String(), holds
}

// FuzzNullExprs runs n random cases (alternating conjunct lists and
// numeric expressions) against a fresh engine each and returns every
// divergence from the reference evaluator. The error return is for engine
// malfunctions (statement errors), which abort the run.
func FuzzNullExprs(seed int64, n int) ([]ExprDivergence, error) {
	one := model.NewCube(model.NewSchema("ONE", nil, "a"))
	if err := one.Put(nil, colA); err != nil {
		return nil, fmt.Errorf("sql: seeding expr table: %w", err)
	}
	g := &exprGen{rng: rand.New(rand.NewSource(seed))}
	var out []ExprDivergence
	for i := 0; i < n; i++ {
		sel, where, want := "a", "", numv{val: colA}
		if i%2 == 0 {
			var holds bool
			where, holds = g.conjuncts()
			want.null = !holds
		} else {
			sel, want = g.num(3)
		}
		stmt := "INSERT INTO R(x) SELECT " + sel + " AS x FROM ONE" + where
		got, err := evalInsert(one, stmt)
		if err != nil {
			return out, err
		}
		if !numAgree(got, want) {
			out = append(out, ExprDivergence{SQL: stmt, Want: fmtNum(want), Got: fmtNum(got)})
		}
	}
	return out, nil
}

// evalInsert runs the statement over ONE into a fresh R(x) and reads R back:
// no tuple is a NULL.
func evalInsert(one *model.Cube, stmt string) (numv, error) {
	db := NewDB()
	r := model.NewSchema("R", nil, "x")
	if err := db.LoadCube(one); err != nil {
		return numv{}, err
	}
	if err := db.CreateTableFor(r); err != nil {
		return numv{}, err
	}
	if err := db.Exec(stmt); err != nil {
		return numv{}, fmt.Errorf("sql: %s: %w", stmt, err)
	}
	res, err := db.ExtractCube(r)
	if err != nil {
		return numv{}, fmt.Errorf("sql: %s: %w", stmt, err)
	}
	if res.Len() == 0 {
		return numv{null: true}, nil
	}
	return numv{val: res.Tuples()[0].Measure}, nil
}

func numAgree(a, b numv) bool {
	if a.null || b.null {
		return a.null == b.null
	}
	// The engine evaluates the identical tree with identical float64
	// operations, so exact equality is the contract.
	return a.val == b.val
}

func fmtNum(v numv) string {
	if v.null {
		return "NULL"
	}
	return fmt.Sprintf("%g", v.val)
}
