package engine

import (
	"context"
	"regexp"
	"strings"
	"testing"
	"time"

	"exlengine/internal/chase"
	"exlengine/internal/model"
	"exlengine/internal/ops"
	"exlengine/internal/workload"
)

// revise returns a new version of c: with ins, two tuples appended past
// the end of the series for each of the last three points; with chg,
// every seventh measure changed; with del, every eleventh tuple deleted.
func revise(t *testing.T, c *model.Cube, ins, chg, del bool) *model.Cube {
	t.Helper()
	out := c.Clone()
	ts := c.Tuples()
	for i, tu := range ts {
		switch {
		case chg && i%7 == 3:
			if err := out.Replace(tu.Dims, tu.Measure*1.01+0.01); err != nil {
				t.Fatal(err)
			}
		case del && i%11 == 5:
			out.Delete(tu.Dims)
		}
	}
	if ins {
		for _, tu := range ts[len(ts)-3:] {
			for k := int64(1); k <= 2; k++ {
				dims := append([]model.Value(nil), tu.Dims...)
				p, ok := dims[0].AsPeriod()
				if !ok {
					t.Fatalf("cube %s: first dimension is not a period", c.Schema().Name)
				}
				dims[0] = model.Per(p.Shift(3 * k))
				if err := out.Replace(dims, tu.Measure+float64(k)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return out
}

// fallbackReasons is the closed set of reasons a fragment under an
// incremental plan can give for running in full.
var fallbackReasons = regexp.MustCompile(`^(input \S+ changed without a usable delta` +
	`|no previous version of \S+ to maintain` +
	`|\d+ of \d+ tgds recomputed in full: \S+ \([a-z-]+\)(, \S+ \([a-z-]+\))*)$`)

// TestIncrementalParityAllTargets drives every target, and the preferred
// mix of them, through the four species of revision — insert-only,
// measure-changing, deleting, mixed — with WithIncremental. After every
// step each derived cube equals a fresh engine's full run on the same
// target and the chase solution of the current inputs (exactly on the
// chase, within the cross-target tolerance elsewhere), and every
// fragment either applied its deltas or names, from the closed set, why
// it ran in full.
func TestIncrementalParityAllTargets(t *testing.T) {
	programs := []struct {
		name, src, revised string
		data               func(*testing.T) workload.Data
		// full is the cube whose tgd the chase cannot maintain, if any.
		full string
	}{
		{"chain", chainProgram, "A", func(t *testing.T) workload.Data {
			return workload.Data{"A": quarterCube(t, 40)}
		}, ""},
		{"gdp", workload.GDPProgram, "PDR", func(*testing.T) workload.Data {
			return workload.GDPSource(workload.GDPConfig{Days: 300, Regions: 3, Seed: 11})
		}, "GDPT"},
	}
	targets := []struct {
		name string
		opts []RunOption
		tol  float64
	}{
		{"chase", []RunOption{RunOn(ops.TargetChase)}, 0},
		{"sql", []RunOption{RunOn(ops.TargetSQL)}, 1e-6},
		{"etl", []RunOption{RunOn(ops.TargetETL)}, 1e-6},
		{"frame", []RunOption{RunOn(ops.TargetFrame)}, 1e-6},
		{"preferred", nil, 1e-6},
	}
	steps := []struct {
		name          string
		ins, chg, del bool
	}{
		{"insert-only", true, false, false},
		{"measure-changing", false, true, false},
		{"deleting", false, false, true},
		{"mixed", true, true, true},
	}

	ctx := context.Background()
	newEngine := func(t *testing.T, src string, data workload.Data, at time.Time) *Engine {
		t.Helper()
		e := New()
		if err := e.RegisterProgram("p", src); err != nil {
			t.Fatal(err)
		}
		for _, c := range data {
			if err := e.PutCube(c, at); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	for _, prog := range programs {
		for _, tgt := range targets {
			t.Run(prog.name+"/"+tgt.name, func(t *testing.T) {
				at := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
				data := prog.data(t)
				incr := newEngine(t, prog.src, data, at)
				if _, err := incr.Run(ctx, append(tgt.opts, RunAt(at))...); err != nil {
					t.Fatal(err)
				}
				m, _ := incr.Mapping("p")
				for _, step := range steps {
					at = at.Add(24 * time.Hour)
					data[prog.revised] = revise(t, data[prog.revised], step.ins, step.chg, step.del)
					if err := incr.PutCube(data[prog.revised], at); err != nil {
						t.Fatal(err)
					}
					rep, err := incr.Run(ctx, append(tgt.opts, RunAt(at), WithIncremental())...)
					if err != nil {
						t.Fatalf("%s: %v", step.name, err)
					}

					fresh := newEngine(t, prog.src, data, at)
					if _, err := fresh.Run(ctx, append(tgt.opts, RunAt(at))...); err != nil {
						t.Fatal(err)
					}
					ref, err := chase.New(m).Solve(chase.Instance(data))
					if err != nil {
						t.Fatal(err)
					}
					for _, rel := range m.Derived {
						got, _ := incr.Cube(rel)
						want, _ := fresh.Cube(rel)
						if !got.Equal(want, tgt.tol) {
							t.Errorf("%s: %s differs from a full run on the target:\n%s",
								step.name, rel, strings.Join(got.Diff(want, tgt.tol, 5), "\n"))
						}
						if !got.Equal(ref[rel], tgt.tol) {
							t.Errorf("%s: %s differs from the chase solution:\n%s",
								step.name, rel, strings.Join(got.Diff(ref[rel], tgt.tol, 5), "\n"))
						}
					}

					if len(rep.Fragments) == 0 {
						t.Fatalf("%s: nothing dispatched: %+v", step.name, rep)
					}
					for _, fr := range rep.Fragments {
						holdsFull := false
						for _, cube := range fr.Cubes {
							holdsFull = holdsFull || cube == prog.full
						}
						switch {
						case fr.Incremental == fr.FellBackFull:
							t.Errorf("%s: fragment %v neither applied its deltas nor fell back: %+v", step.name, fr.Cubes, fr)
						case fr.Incremental && (holdsFull || fr.FallbackReason != ""):
							t.Errorf("%s: fragment %v reports deltas applied: %+v", step.name, fr.Cubes, fr)
						case fr.FellBackFull && !holdsFull:
							t.Errorf("%s: fragment %v not maintained: %q", step.name, fr.Cubes, fr.FallbackReason)
						case fr.FellBackFull && !fallbackReasons.MatchString(fr.FallbackReason):
							t.Errorf("%s: fragment %v: reason %q is outside the closed set", step.name, fr.Cubes, fr.FallbackReason)
						}
					}
				}
			})
		}
	}
}
