// Package difftest is a differential fuzzer for the four execution
// backends: it generates random EXL programs and random cube instances,
// compiles each program once, executes it on sqlengine, frame, etl and
// the chase reference, and diffs the results tuple by tuple. Divergences
// are minimized by shrinking the program and its data. The SQL dialect's
// NULL semantics are fuzzed directly by sqlengine.FuzzNullExprs.
//
// Everything is seeded and deterministic: the same seed always produces
// the same case, so a failing seed is a complete reproduction recipe.
package difftest

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"exlengine/internal/model"
)

// Case is one differential test case: an EXL program (declarations plus
// derived-cube statements) and a source instance for its elementary
// cubes.
type Case struct {
	Decls []string
	Stmts []string
	Data  map[string]*model.Cube
}

// Source renders the complete EXL program.
func (c *Case) Source() string {
	return strings.Join(c.Decls, "\n") + "\n" + strings.Join(c.Stmts, "\n") + "\n"
}

// Clone returns a deep copy; the shrinker mutates candidates freely.
func (c *Case) Clone() *Case {
	out := &Case{
		Decls: append([]string(nil), c.Decls...),
		Stmts: append([]string(nil), c.Stmts...),
		Data:  make(map[string]*model.Cube, len(c.Data)),
	}
	for name, cube := range c.Data {
		out.Data[name] = cube.Clone()
	}
	return out
}

// DataCSV renders the source instance as per-cube CSV-ish blocks, for
// human-readable reproduction reports.
func (c *Case) DataCSV() string {
	names := make([]string, 0, len(c.Data))
	for n := range c.Data {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		cube := c.Data[n]
		fmt.Fprintf(&b, "== data %s ==\n", n)
		for _, tu := range cube.Tuples() {
			parts := make([]string, 0, len(tu.Dims)+1)
			for _, d := range tu.Dims {
				parts = append(parts, d.String())
			}
			parts = append(parts, fmt.Sprintf("%g", tu.Measure))
			b.WriteString(strings.Join(parts, ","))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Generator produces random but well-formed EXL programs over a fixed
// set of elementary cubes, together with adversarial source data: gaps
// (NULL-producing missing tuples), exact zeros (division-by-zero and
// undefined-point fodder), negative values (ln/sqrt undefined points)
// and duplicate-period write attempts (egd pressure).
type Generator struct {
	rng     *rand.Rand
	decls   []string
	stmts   []string
	names   []string
	schemas map[string]model.Schema
	counter int
}

// NewGenerator returns a generator with the three elementary cubes of
// the crosscheck suite: a quarterly series SQ, a quarterly panel PQ and
// an annual series SY.
func NewGenerator(seed int64) *Generator {
	g := &Generator{rng: rand.New(rand.NewSource(seed)), schemas: make(map[string]model.Schema)}
	g.declare("SQ", model.NewSchema("SQ", []model.Dim{{Name: "t", Type: model.TQuarter}}, "v"),
		"cube SQ(t: quarter) measure v")
	g.declare("PQ", model.NewSchema("PQ", []model.Dim{{Name: "t", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "v"),
		"cube PQ(t: quarter, r: string) measure v")
	g.declare("SY", model.NewSchema("SY", []model.Dim{{Name: "t", Type: model.TYear}}, "v"),
		"cube SY(t: year) measure v")
	return g
}

// GenerateCase builds a full case: nStmts random statements plus random
// data for the elementary cubes.
func GenerateCase(seed int64, nStmts int) *Case {
	g := NewGenerator(seed)
	for i := 0; i < nStmts; i++ {
		g.AddStmt()
	}
	return &Case{
		Decls: append([]string(nil), g.decls...),
		Stmts: append([]string(nil), g.stmts...),
		Data:  g.Data(),
	}
}

func (g *Generator) declare(name string, sch model.Schema, decl string) {
	g.names = append(g.names, name)
	g.schemas[name] = sch
	g.decls = append(g.decls, decl)
}

func (g *Generator) fresh() string {
	g.counter++
	return fmt.Sprintf("D%02d", g.counter)
}

func (g *Generator) pick() string {
	return g.names[g.rng.Intn(len(g.names))]
}

// pickWhere returns a random cube satisfying pred, or "".
func (g *Generator) pickWhere(pred func(model.Schema) bool) string {
	var candidates []string
	for _, n := range g.names {
		if pred(g.schemas[n]) {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		return ""
	}
	return candidates[g.rng.Intn(len(candidates))]
}

// expr builds a random nested arithmetic expression whose cube operands
// all share the given schema's dimensions (so every binary operator is a
// plain vectorial join). At least one operand is a cube, keeping the
// analyzer's constant-folding rules satisfied.
func (g *Generator) expr(depth int, base string) string {
	sch := g.schemas[base]
	cube := func() string {
		if c := g.pickWhere(func(s model.Schema) bool { return s.SameDims(sch) }); c != "" {
			return c
		}
		return base
	}
	if depth <= 0 || g.rng.Float64() < 0.3 {
		return cube()
	}
	op := []string{"+", "-", "*", "/"}[g.rng.Intn(4)]
	// The left side recursively bottoms out in a cube leaf, so the whole
	// expression always references at least one cube; the right side may
	// be a small integer constant, another cube, or a deeper subtree.
	left := g.expr(depth-1, base)
	var right string
	switch g.rng.Intn(3) {
	case 0:
		right = fmt.Sprintf("%d", g.rng.Intn(4)+1)
	case 1:
		right = cube()
	default:
		right = g.expr(depth-1, base)
	}
	e := fmt.Sprintf("(%s %s %s)", left, op, right)
	if g.rng.Float64() < 0.2 {
		e = "abs" + e
	}
	return e
}

// AddStmt appends one random statement and registers the derived schema.
func (g *Generator) AddStmt() {
	name := g.fresh()
	for tries := 0; tries < 20; tries++ {
		switch g.rng.Intn(11) {
		case 0: // scalar arithmetic with a constant
			op := []string{"*", "+", "-", "/"}[g.rng.Intn(4)]
			k := g.rng.Intn(4) + 1
			src := g.pick()
			g.emit(name, fmt.Sprintf("%s := %s %s %d", name, src, op, k), g.schemas[src])
			return
		case 1: // total scalar function
			src := g.pick()
			fn := []string{"abs", "round"}[g.rng.Intn(2)]
			if g.rng.Intn(4) == 0 {
				// Keep magnitudes bounded: exp(v/10).
				g.emit(name, fmt.Sprintf("%s := exp(%s / 10)", name, src), g.schemas[src])
				return
			}
			g.emit(name, fmt.Sprintf("%s := %s(%s)", name, fn, src), g.schemas[src])
			return
		case 2: // partial scalar function: undefined on zero/negative points
			src := g.pick()
			switch g.rng.Intn(3) {
			case 0:
				g.emit(name, fmt.Sprintf("%s := ln(%s)", name, src), g.schemas[src])
			case 1:
				g.emit(name, fmt.Sprintf("%s := sqrt(%s)", name, src), g.schemas[src])
			default:
				g.emit(name, fmt.Sprintf("%s := log(2, %s)", name, src), g.schemas[src])
			}
			return
		case 3: // nested arithmetic expression tree
			base := g.pick()
			g.emit(name, fmt.Sprintf("%s := %s", name, g.expr(2, base)), g.schemas[base])
			return
		case 4: // aggregation dropping the non-time dimensions
			src := g.pickWhere(func(s model.Schema) bool {
				return len(s.Dims) == 2 && len(s.TimeDims()) == 1
			})
			if src == "" {
				continue
			}
			agg := g.fold(src)
			sch := g.schemas[src]
			td := sch.Dims[sch.TimeDims()[0]]
			g.emit(name, fmt.Sprintf("%s := %s(%s, group by %s)", name, agg, src, td.Name),
				model.NewSchema(name, []model.Dim{td}, "v"))
			return
		case 5: // coarsening aggregation via a dimension function
			src := g.pickWhere(func(s model.Schema) bool {
				td := s.TimeDims()
				return len(td) == 1 && s.Dims[td[0]].Type == model.TQuarter &&
					s.DimIndex("y") < 0 // "y" must be free for the result dim
			})
			if src == "" {
				continue
			}
			agg := g.fold(src)
			sch := g.schemas[src]
			td := sch.Dims[sch.TimeDims()[0]]
			dims := []model.Dim{{Name: "y", Type: model.TYear}}
			groupBy := fmt.Sprintf("year(%s) as y", td.Name)
			for _, d := range sch.Dims {
				if d.Name != td.Name {
					dims = append(dims, d)
					groupBy += ", " + d.Name
				}
			}
			g.emit(name, fmt.Sprintf("%s := %s(%s, group by %s)", name, agg, src, groupBy),
				model.NewSchema(name, dims, "v"))
			return
		case 6: // shift along the unique time dimension
			src := g.pickWhere(func(s model.Schema) bool { return len(s.TimeDims()) == 1 })
			if src == "" {
				continue
			}
			s := g.rng.Intn(3) + 1
			if g.rng.Intn(2) == 0 {
				s = -s
			}
			g.emit(name, fmt.Sprintf("%s := shift(%s, %d)", name, src, s), g.schemas[src])
			return
		case 7: // whole-series black box
			src := g.pickWhere(func(s model.Schema) bool { return s.IsTimeSeries() })
			if src == "" {
				continue
			}
			switch g.rng.Intn(6) {
			case 0:
				g.emit(name, fmt.Sprintf("%s := movavg(%s, %d)", name, src, g.rng.Intn(3)+2), g.schemas[src])
			case 1:
				g.emit(name, fmt.Sprintf("%s := stl_i(%s)", name, src), g.schemas[src])
			default:
				bb := []string{"stl_t", "stl_s", "cumsum", "lintrend"}[g.rng.Intn(4)]
				g.emit(name, fmt.Sprintf("%s := %s(%s)", name, bb, src), g.schemas[src])
			}
			return
		case 8: // padded vectorial op (outer join semantics; SQL skips these)
			if g.rng.Intn(3) != 0 {
				continue // keep pad ops rare so most programs exercise SQL
			}
			a := g.pick()
			b := g.pickWhere(func(s model.Schema) bool { return s.SameDims(g.schemas[a]) })
			if b == "" {
				continue
			}
			op := []string{"vsum0", "vsub0"}[g.rng.Intn(2)]
			g.emit(name, fmt.Sprintf("%s := %s(%s, %s)", name, op, a, b), g.schemas[a])
			return
		case 9: // broadcast: a panel combined with a series over shared dims
			big := g.pickWhere(func(s model.Schema) bool { return len(s.Dims) == 2 })
			if big == "" {
				continue
			}
			small := g.pickWhere(func(s model.Schema) bool {
				if len(s.Dims) != 1 {
					return false
				}
				j := g.schemas[big].DimIndex(s.Dims[0].Name)
				return j >= 0 && g.schemas[big].Dims[j].Type.Matches(s.Dims[0].Type)
			})
			if small == "" {
				continue
			}
			op := []string{"+", "-", "*", "/"}[g.rng.Intn(4)]
			// Either side first: the result has the panel's schema both
			// ways, but with the series first it drives the join and the
			// panel is probed on part of its key.
			l, r := big, small
			if g.rng.Intn(2) == 0 {
				l, r = small, big
			}
			g.emit(name, fmt.Sprintf("%s := %s %s %s", name, l, op, r), g.schemas[big])
			return
		case 10: // global aggregate to a 0-dimensional cube
			src := g.pick()
			agg := g.fold(src)
			g.emit(name, fmt.Sprintf("%s := %s(%s)", name, agg, src),
				model.NewSchema(name, nil, "v"))
			return
		}
	}
	// Fallback: always possible.
	src := g.pick()
	g.emit(name, fmt.Sprintf("%s := %s + 1", name, src), g.schemas[src])
}

// fold draws the aggregation of a statement over src: any of the eight, but
// prod only over an elementary cube — the first names, the declared ones —
// whose measures value bounds, so that no product leaves the floats.
func (g *Generator) fold(src string) string {
	folds := []string{"sum", "avg", "min", "max", "count", "median", "stddev", "prod"}
	if !slices.Contains(g.names[:len(g.decls)], src) {
		folds = folds[:len(folds)-1]
	}
	return folds[g.rng.Intn(len(folds))]
}

func (g *Generator) emit(name, stmt string, sch model.Schema) {
	g.stmts = append(g.stmts, stmt)
	g.names = append(g.names, name)
	g.schemas[name] = sch.Rename(name)
}

// value draws an adversarial measure: ~12% exact zeros, ~38% negatives,
// the rest positive, all bounded in [-2, 2].
func (g *Generator) value() float64 {
	switch r := g.rng.Float64(); {
	case r < 0.12:
		return 0
	case r < 0.5:
		return -2 * g.rng.Float64()
	default:
		return 2 * g.rng.Float64()
	}
}

// Data builds sparse adversarial instances for the elementary cubes:
// ~25% of tuples are missing (gaps become NULLs / absent join partners),
// and ~10% of filled points get a second conflicting write at the same
// period, which the cube's functional dependency rejects (first write
// wins) — exercising the egd path without corrupting the instance.
func (g *Generator) Data() map[string]*model.Cube {
	out := make(map[string]*model.Cube)
	quarters := make([]model.Period, 12)
	for i := range quarters {
		quarters[i] = model.NewQuarterly(2000, 1).Shift(int64(i))
	}
	regions := []string{"a", "b", "c"}

	put := func(c *model.Cube, dims []model.Value) {
		if g.rng.Float64() < 0.25 {
			return // gap
		}
		_ = c.Put(dims, g.value())
		if g.rng.Float64() < 0.1 {
			_ = c.Put(dims, g.value()) // duplicate period: egd rejects it
		}
	}

	sq := model.NewCube(g.schemas["SQ"])
	for _, q := range quarters {
		put(sq, []model.Value{model.Per(q)})
	}
	out["SQ"] = sq

	pq := model.NewCube(g.schemas["PQ"])
	for _, q := range quarters {
		for _, r := range regions {
			put(pq, []model.Value{model.Per(q), model.Str(r)})
		}
	}
	out["PQ"] = pq

	sy := model.NewCube(g.schemas["SY"])
	for y := 2000; y < 2006; y++ {
		put(sy, []model.Value{model.Per(model.NewAnnual(y))})
	}
	out["SY"] = sy
	return out
}
