// Package crosscheck randomly generates EXL programs and source instances
// and verifies the paper's central correctness property at scale: the
// chase solution of the generated schema mapping equals the result of
// executing the translated mapping on every target engine.
package crosscheck

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"exlengine/internal/backend"
	"exlengine/internal/chase"
	"exlengine/internal/exl"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/ops"
	"exlengine/internal/sqlgen"
)

// generator produces random but well-formed EXL programs over a fixed set
// of elementary cubes.
type generator struct {
	rng   *rand.Rand
	decls []string
	stmts []string
	// cubes tracks every available cube's schema, in creation order.
	names   []string
	schemas map[string]model.Schema
	counter int
}

func newGenerator(seed int64) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed)), schemas: make(map[string]model.Schema)}
	// Elementary cubes: a quarterly series, a quarterly panel, and an
	// annual series.
	g.declare("SQ", model.NewSchema("SQ", []model.Dim{{Name: "t", Type: model.TQuarter}}, "v"),
		"cube SQ(t: quarter) measure v")
	g.declare("PQ", model.NewSchema("PQ", []model.Dim{{Name: "t", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "v"),
		"cube PQ(t: quarter, r: string) measure v")
	g.declare("SY", model.NewSchema("SY", []model.Dim{{Name: "t", Type: model.TYear}}, "v"),
		"cube SY(t: year) measure v")
	return g
}

func (g *generator) declare(name string, sch model.Schema, decl string) {
	g.names = append(g.names, name)
	g.schemas[name] = sch
	g.decls = append(g.decls, decl)
}

func (g *generator) fresh() string {
	g.counter++
	return fmt.Sprintf("D%02d", g.counter)
}

func (g *generator) pick() string {
	return g.names[g.rng.Intn(len(g.names))]
}

// pickWhere returns a random cube satisfying pred, or "".
func (g *generator) pickWhere(pred func(model.Schema) bool) string {
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

// addStmt appends one random statement and registers the derived schema.
func (g *generator) addStmt() {
	name := g.fresh()
	for tries := 0; tries < 20; tries++ {
		kind := g.rng.Intn(9)
		switch kind {
		case 0: // scalar arithmetic with a constant
			op := []string{"*", "+", "-", "/"}[g.rng.Intn(4)]
			k := g.rng.Intn(4) + 1
			src := g.pick()
			g.emit(name, fmt.Sprintf("%s := %s %s %d", name, src, op, k), g.schemas[src])
			return
		case 1: // scalar function
			src := g.pick()
			fn := []string{"abs", "exp", "round"}[g.rng.Intn(3)]
			if fn == "exp" {
				// Keep magnitudes bounded: exp(v/10).
				g.emit(name, fmt.Sprintf("%s := exp(%s / 10)", name, src), g.schemas[src])
				return
			}
			g.emit(name, fmt.Sprintf("%s := %s(%s)", name, fn, src), g.schemas[src])
			return
		case 2: // vectorial op between same-dim cubes
			a := g.pick()
			b := g.pickWhere(func(s model.Schema) bool { return s.SameDims(g.schemas[a]) })
			if b == "" {
				continue
			}
			// Division included deliberately: subtraction can produce
			// zeros, so the undefined-point semantics (drop the tuple)
			// must agree across engines.
			op := []string{"+", "-", "*", "/"}[g.rng.Intn(4)]
			g.emit(name, fmt.Sprintf("%s := %s %s %s", name, a, op, b), g.schemas[a])
			return
		case 3: // aggregation dropping the non-time dimensions
			src := g.pickWhere(func(s model.Schema) bool { return len(s.Dims) == 2 })
			if src == "" {
				continue
			}
			agg := []string{"sum", "avg", "min", "max", "median"}[g.rng.Intn(5)]
			sch := g.schemas[src]
			g.emit(name, fmt.Sprintf("%s := %s(%s, group by t)", name, agg, src),
				model.NewSchema(name, []model.Dim{sch.Dims[0]}, "v"))
			return
		case 4: // shift
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
		case 5: // whole-series black box
			src := g.pickWhere(func(s model.Schema) bool { return s.IsTimeSeries() })
			if src == "" {
				continue
			}
			bb := []string{"stl_t", "stl_s", "cumsum", "lintrend"}[g.rng.Intn(4)]
			g.emit(name, fmt.Sprintf("%s := %s(%s)", name, bb, src), g.schemas[src])
			return
		case 7: // broadcast: a panel combined with a series over the shared dims
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
			op := []string{"+", "*", "/"}[g.rng.Intn(3)]
			g.emit(name, fmt.Sprintf("%s := %s %s %s", name, big, op, small), g.schemas[big])
			return
		case 8: // global aggregate to a 0-dimensional cube
			src := g.pick()
			agg := []string{"sum", "avg", "count"}[g.rng.Intn(3)]
			g.emit(name, fmt.Sprintf("%s := %s(%s)", name, agg, src),
				model.NewSchema(name, nil, "v"))
			return
		case 6: // padded vectorial op
			a := g.pick()
			b := g.pickWhere(func(s model.Schema) bool { return s.SameDims(g.schemas[a]) })
			if b == "" {
				continue
			}
			op := []string{"vsum0", "vsub0"}[g.rng.Intn(2)]
			g.emit(name, fmt.Sprintf("%s := %s(%s, %s)", name, op, a, b), g.schemas[a])
			return
		}
	}
	// Fallback: always possible.
	src := g.pick()
	g.emit(name, fmt.Sprintf("%s := %s + 1", name, src), g.schemas[src])
}

func (g *generator) emit(name, stmt string, sch model.Schema) {
	g.stmts = append(g.stmts, stmt)
	g.names = append(g.names, name)
	g.schemas[name] = sch.Rename(name)
}

func (g *generator) source() string {
	return strings.Join(g.decls, "\n") + "\n" + strings.Join(g.stmts, "\n") + "\n"
}

// data builds sparse random instances for the elementary cubes: values in
// [1, 2] (avoiding exact zeros) with ~20% of tuples missing.
func (g *generator) data() map[string]*model.Cube {
	out := make(map[string]*model.Cube)
	quarters := make([]model.Period, 12)
	for i := range quarters {
		quarters[i] = model.NewQuarterly(2000, 1).Shift(int64(i))
	}
	regions := []string{"a", "b", "c"}

	sq := model.NewCube(g.schemas["SQ"])
	for _, q := range quarters {
		if g.rng.Float64() < 0.2 {
			continue
		}
		_ = sq.Put([]model.Value{model.Per(q)}, 1+g.rng.Float64())
	}
	out["SQ"] = sq

	pq := model.NewCube(g.schemas["PQ"])
	for _, q := range quarters {
		for _, r := range regions {
			if g.rng.Float64() < 0.2 {
				continue
			}
			_ = pq.Put([]model.Value{model.Per(q), model.Str(r)}, 1+g.rng.Float64())
		}
	}
	out["PQ"] = pq

	sy := model.NewCube(g.schemas["SY"])
	for y := 2000; y < 2006; y++ {
		if g.rng.Float64() < 0.2 {
			continue
		}
		_ = sy.Put([]model.Value{model.Per(model.NewAnnual(y))}, 1+g.rng.Float64())
	}
	out["SY"] = sy
	return out
}

// TestRandomProgramsAllEngines generates random programs and checks that
// every engine agrees with the chase on every derived cube.
func TestRandomProgramsAllEngines(t *testing.T) {
	const programs = 60
	const stmtsPerProgram = 8
	for seed := int64(1); seed <= programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := newGenerator(seed)
			for i := 0; i < stmtsPerProgram; i++ {
				g.addStmt()
			}
			src := g.source()

			agreeWithChase(t, compile(t, src), g.data(), 1e-6, src)
		})
	}
}

// compile generates the mapping of an EXL program, quoted in failures.
func compile(t *testing.T, src string) *mapping.Mapping {
	t.Helper()
	prog, err := exl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	a, err := exl.Analyze(prog, nil)
	if err != nil {
		t.Fatalf("analyze: %v\n%s", err, src)
	}
	m, err := mapping.Generate(a)
	if err != nil {
		t.Fatalf("mapping: %v\n%s", err, src)
	}
	return m
}

// agreeWithChase runs m on every target and checks each derived cube
// against the chase solution, which it returns. A target that refuses the
// mapping as untranslatable is skipped; src is quoted in failures.
func agreeWithChase(t *testing.T, m *mapping.Mapping, data map[string]*model.Cube, tol float64, src string) map[string]*model.Cube {
	t.Helper()
	ctx := context.Background()
	ref, err := backend.Run(ctx, ops.TargetChase, m, data, nil)
	if err != nil {
		t.Fatalf("chase failed: %v\n%s", err, src)
	}
	for _, target := range ops.AllTargets {
		if target == ops.TargetChase {
			continue // the reference
		}
		got, err := backend.Run(ctx, target, m, data, nil)
		if errors.Is(err, sqlgen.ErrUntranslatable) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v\n%s", target, err, src)
		}
		for _, rel := range m.Derived {
			if got[rel] == nil {
				t.Fatalf("%s: missing %s\n%s", target, rel, src)
			}
			if !got[rel].Equal(ref[rel], tol) {
				t.Errorf("%s: %s differs from chase\nprogram:\n%s\ndiff:\n%s",
					target, rel, src, strings.Join(got[rel].Diff(ref[rel], tol, 5), "\n"))
			}
		}
	}
	return ref
}

// TestRandomProgramsFusedVsNormalized checks the fusion pass on the same
// random programs: both mapping forms must chase to identical derived
// cubes.
func TestRandomProgramsFusedVsNormalized(t *testing.T) {
	for seed := int64(100); seed < 125; seed++ {
		g := newGenerator(seed)
		for i := 0; i < 6; i++ {
			g.addStmt()
		}
		src := g.source()
		prog, err := exl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		a, err := exl.Analyze(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := mapping.Generate(a)
		if err != nil {
			t.Fatal(err)
		}
		norm, err := mapping.GenerateNormalized(a)
		if err != nil {
			t.Fatal(err)
		}
		data := g.data()
		refF, err := chase.New(fused).Solve(chase.Instance(data))
		if err != nil {
			t.Fatalf("fused chase: %v\n%s", err, src)
		}
		refN, err := chase.New(norm).Solve(chase.Instance(data))
		if err != nil {
			t.Fatalf("normalized chase: %v\n%s", err, src)
		}
		for _, rel := range fused.Derived {
			if !refF[rel].Equal(refN[rel], 1e-9) {
				t.Errorf("seed %d: %s differs between fused and normalized\n%s", seed, rel, src)
			}
		}
	}
}

// TestRandomProgramsPrintParseRoundTrip: the printed form of a random
// program re-parses and re-analyzes to a mapping with the same rendering.
func TestRandomProgramsPrintParseRoundTrip(t *testing.T) {
	for seed := int64(200); seed < 230; seed++ {
		g := newGenerator(seed)
		for i := 0; i < 6; i++ {
			g.addStmt()
		}
		src := g.source()
		p1, err := exl.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		printed := p1.String()
		p2, err := exl.Parse(printed)
		if err != nil {
			t.Fatalf("seed %d: re-parse failed: %v\n%s", seed, err, printed)
		}
		a1, err := exl.Analyze(p1, nil)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := exl.Analyze(p2, nil)
		if err != nil {
			t.Fatalf("seed %d: re-analysis failed: %v\n%s", seed, err, printed)
		}
		m1, err := mapping.Generate(a1)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := mapping.Generate(a2)
		if err != nil {
			t.Fatal(err)
		}
		if m1.String() != m2.String() {
			t.Errorf("seed %d: mappings differ after print/parse round trip:\n%s\nvs\n%s",
				seed, m1, m2)
		}
	}
}
