package difftest

import (
	"fmt"
	"math"
	"strings"

	"exlengine/internal/chase"
	"exlengine/internal/etl"
	"exlengine/internal/exl"
	"exlengine/internal/frame"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/sqlengine"
	"exlengine/internal/sqlgen"
)

// DefaultTol is the relative comparison tolerance: engines evaluate the
// same real-valued expressions in different association orders (SQL
// aggregates stream, frame vectorizes), so bit-exact equality is not the
// contract — agreement within floating-point noise is.
const DefaultTol = 1e-6

// Divergence is one engine disagreeing with the chase reference on one
// derived cube (or failing outright where the chase succeeded).
type Divergence struct {
	Engine string   // "sql", "frame" or "etl"
	Rel    string   // derived cube, or "" for whole-engine failures
	Lines  []string // human-readable tuple diffs or the error message
}

func (d Divergence) String() string {
	rel := d.Rel
	if rel == "" {
		rel = "<execution>"
	}
	return fmt.Sprintf("%s/%s:\n  %s", d.Engine, rel, strings.Join(d.Lines, "\n  "))
}

// Result is the outcome of one differential run.
type Result struct {
	Mapping     *mapping.Mapping
	SQLSkipped  bool // program uses padded operators the SQL dialect cannot express
	Divergences []Divergence
}

// Run compiles the case once (parse → analyze → mapping generation),
// executes the chase as the reference, then every target engine, and
// diffs each derived cube tuple by tuple. A non-nil error means the case
// itself is broken (it does not compile, or the reference fails) —
// engine disagreements are reported as Divergences, not errors.
func Run(c *Case, tol float64) (*Result, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	src := c.Source()
	prog, err := exl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("difftest: parse: %w", err)
	}
	a, err := exl.Analyze(prog, nil)
	if err != nil {
		return nil, fmt.Errorf("difftest: analyze: %w", err)
	}
	m, err := mapping.Generate(a)
	if err != nil {
		return nil, fmt.Errorf("difftest: mapping: %w", err)
	}

	ref, err := chase.New(m).Solve(chase.Instance(c.Data))
	if err != nil {
		return nil, fmt.Errorf("difftest: chase reference: %w", err)
	}

	res := &Result{Mapping: m, SQLSkipped: hasPadVector(m)}
	record := func(engine string, got map[string]*model.Cube, execErr error, tol float64) {
		if execErr != nil {
			res.Divergences = append(res.Divergences, Divergence{
				Engine: engine, Lines: []string{"engine failed where chase succeeded: " + execErr.Error()},
			})
			return
		}
		for _, rel := range m.Derived {
			if got[rel] == nil {
				res.Divergences = append(res.Divergences, Divergence{
					Engine: engine, Rel: rel, Lines: []string{"derived cube missing from engine output"},
				})
				continue
			}
			if lines := DiffCubes(ref[rel], got[rel], tol, 8); len(lines) > 0 {
				res.Divergences = append(res.Divergences, Divergence{Engine: engine, Rel: rel, Lines: lines})
			}
		}
	}

	fres, err := func() (map[string]*model.Cube, error) {
		fs, err := frame.Translate(m)
		if err != nil {
			return nil, err
		}
		return frame.Execute(fs, m, c.Data)
	}()
	record("frame", fres, err, tol)

	eres, err := func() (map[string]*model.Cube, error) {
		job, err := etl.Translate(m, "difftest")
		if err != nil {
			return nil, err
		}
		return etl.Run(job, m, c.Data)
	}()
	record("etl", eres, err, tol)

	// SQL engine — unless the program uses padded vectorial operators,
	// which the emitted dialect cannot express (no outer joins).
	if res.SQLSkipped {
		return res, nil
	}
	sres, err := func() (map[string]*model.Cube, error) {
		db := sqlengine.NewDB()
		for _, name := range m.Elementary {
			if err := db.LoadCube(c.Data[name]); err != nil {
				return nil, err
			}
		}
		script, err := sqlgen.Translate(m)
		if err != nil {
			return nil, err
		}
		if err := sqlgen.Execute(script, db); err != nil {
			return nil, err
		}
		out := make(map[string]*model.Cube)
		for _, rel := range m.Derived {
			cube, err := db.ExtractCube(m.Schemas[rel])
			if err != nil {
				return nil, fmt.Errorf("extract %s: %w", rel, err)
			}
			out[rel] = cube
		}
		return out, nil
	}()
	record("sql", sres, err, tol)
	return res, nil
}

func hasPadVector(m *mapping.Mapping) bool {
	for _, t := range m.Tgds {
		if t.Kind == mapping.PadVector {
			return true
		}
	}
	return false
}

// MeasuresAgree compares two measures with a relative tolerance and
// NaN/Inf awareness: NaN agrees only with NaN and an infinity only with
// the same infinity, so non-finite values can never silently pass as
// "close enough" — and never falsely diverge when both engines produce
// the same one.
func MeasuresAgree(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// DiffCubes diffs an engine result against the reference tuple by tuple
// and returns human-readable mismatch lines (nil when the cubes agree).
// At most max lines are returned, with a trailer counting the rest.
func DiffCubes(ref, got *model.Cube, tol float64, max int) []string {
	var lines []string
	extra := 0
	add := func(format string, args ...any) {
		if len(lines) >= max {
			extra++
			return
		}
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	for _, tu := range ref.Tuples() {
		gm, ok := got.Get(tu.Dims)
		if !ok {
			add("missing tuple %v (chase has measure %g)", tu.Dims, tu.Measure)
			continue
		}
		if !MeasuresAgree(tu.Measure, gm, tol) {
			add("tuple %v: measure %g, chase has %g", tu.Dims, gm, tu.Measure)
		}
	}
	for _, tu := range got.Tuples() {
		if _, ok := ref.Get(tu.Dims); !ok {
			add("extra tuple %v (measure %g) not produced by the chase", tu.Dims, tu.Measure)
		}
	}
	if extra > 0 {
		lines = append(lines, fmt.Sprintf("… and %d more mismatches", extra))
	}
	return lines
}
