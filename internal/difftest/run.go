package difftest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"exlengine/internal/backend"
	"exlengine/internal/exl"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/ops"
	"exlengine/internal/sqlgen"
)

// DefaultTol is the relative comparison tolerance a caller gets that asks
// for none in particular. Every target evaluates each expression in the
// chase's order — folds add in cube order, point-wise operators go through
// one ops kernel — so on generated programs the engines agree with the chase
// bit for bit, and a tolerance of 0, which Run takes as exact comparison,
// holds them to that (exlfuzz -tol 0).
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
	SQLSkipped  bool // the SQL target refused the program (sqlgen.ErrUntranslatable)
	Divergences []Divergence
}

// Run compiles the case once (parse → analyze → mapping generation),
// executes the chase as the reference, then every target engine, and
// diffs each derived cube tuple by tuple. Each target then runs a second
// time with the chase's results as the predecessors of its own
// (backend.Run's prev), as a re-run after a revision is handed the stored
// versions: its results must be the first run's bit for bit, and a result
// that agrees with the chase must stand on the chase result's key set.
// Measures agree within the relative tolerance tol (MeasuresAgree): at 0,
// where they are equal. A non-nil error means the case itself is broken (it does not compile, or
// the reference fails) — engine disagreements are reported as Divergences,
// not errors.
func Run(c *Case, tol float64) (*Result, error) {
	m, err := compile(c.Source())
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	ref, err := backend.Run(ctx, ops.TargetChase, m, c.Data, nil)
	if err != nil {
		return nil, fmt.Errorf("difftest: chase reference: %w", err)
	}

	res := &Result{Mapping: m}
	for _, t := range ops.AllTargets {
		if t == ops.TargetChase {
			continue // the reference
		}
		got, err := backend.Run(ctx, t, m, c.Data, nil)
		if errors.Is(err, sqlgen.ErrUntranslatable) {
			res.SQLSkipped = true
			continue
		}
		if err != nil {
			res.Divergences = append(res.Divergences, Divergence{
				Engine: string(t), Lines: []string{"engine failed where chase succeeded: " + err.Error()},
			})
			continue
		}
		again, err := backend.Run(ctx, t, m, c.Data, ref)
		if err != nil {
			res.Divergences = append(res.Divergences, Divergence{
				Engine: string(t), Lines: []string{"engine failed on the chase's results as predecessors: " + err.Error()},
			})
		}
		for _, rel := range m.Derived {
			if got[rel] == nil {
				res.Divergences = append(res.Divergences, Divergence{
					Engine: string(t), Rel: rel, Lines: []string{"derived cube missing from engine output"},
				})
				continue
			}
			lines := DiffCubes(ref[rel], got[rel], tol, 8)
			if len(lines) > 0 {
				res.Divergences = append(res.Divergences, Divergence{Engine: string(t), Rel: rel, Lines: lines})
			}
			if again == nil {
				continue
			}
			switch diff := BitDiff(again[rel], got[rel]); {
			case diff != "":
				lines = []string{"on the chase's result as its predecessor: " + diff}
			case len(lines) == 0 && !again[rel].SharesKeySet(ref[rel]):
				lines = []string{"agrees with the chase but does not stand on its result's key set"}
			default:
				continue
			}
			res.Divergences = append(res.Divergences, Divergence{Engine: string(t), Rel: rel, Lines: lines})
		}
	}
	return res, nil
}

// BitDiff describes how got differs from want — another tuple, or a measure
// with other bits — or is "" where they are equal: the zero-tolerance
// comparison, under which NaN agrees with the same NaN and -0 differs from +0.
func BitDiff(got, want *model.Cube) string {
	if got == nil {
		return "derived cube missing"
	}
	g, w := got.Tuples(), want.Tuples()
	if len(g) != len(w) {
		return fmt.Sprintf("%d tuples, want %d", len(g), len(w))
	}
	for i := range g {
		if model.EncodeKey(g[i].Dims) != model.EncodeKey(w[i].Dims) || math.Float64bits(g[i].Measure) != math.Float64bits(w[i].Measure) {
			return fmt.Sprintf("tuple %d is %v %v, want %v %v", i, g[i].Dims, g[i].Measure, w[i].Dims, w[i].Measure)
		}
	}
	return ""
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

// compile parses and analyzes an EXL program and generates its fused
// schema mapping: the one pipeline every difftest entry point compiles a
// case through.
func compile(src string) (*mapping.Mapping, error) {
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
	return m, nil
}
