package engine

import (
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"exlengine/internal/chase"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
	"exlengine/internal/workload"
)

// revise returns a new version of c: with ins, two tuples appended past
// the end of the series for each of the last three points; with chg,
// every seventh measure changed; with del, every eleventh tuple deleted;
// with none of them, the first two measures changed.
func revise(t *testing.T, c *model.Cube, ins, chg, del bool) *model.Cube {
	t.Helper()
	out := c.Clone()
	ts := c.Tuples()
	for i, tu := range ts {
		switch {
		case !ins && !chg && !del && i < 2:
			if err := out.Replace(tu.Dims, tu.Measure+1); err != nil {
				t.Fatal(err)
			}
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
// measure-changing, deleting, mixed — and a fifth that restates two tuples
// on the fourth's key set, with WithIncremental. After every
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
		// group gives, for the cube the chase maintains by aggregating
		// revised, the group of one of revised's tuples.
		agg   string
		group func(dims []model.Value) string
	}{
		{"chain", chainProgram, "A", func(t *testing.T) workload.Data {
			return workload.Data{"A": quarterCube(t, 40)}
		}, "", "", nil},
		{"gdp", workload.GDPProgram, "PDR", func(*testing.T) workload.Data {
			return workload.GDPSource(workload.GDPConfig{Days: 300, Regions: 3, Seed: 11})
		}, "GDPT", "PQR", func(dims []model.Value) string {
			d, _ := dims[0].AsPeriod()
			q, _ := d.Convert(model.Quarterly)
			return q.String() + dims[1].String()
		}},
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
		{"two tuples", false, false, false},
	}

	ctx := context.Background()
	newEngine := func(t *testing.T, src string, data workload.Data, at time.Time, opts ...Option) *Engine {
		t.Helper()
		e := New(opts...)
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
				tracer := obs.NewTracer()
				incr := newEngine(t, prog.src, data, at, WithTracer(tracer))
				if _, err := incr.Run(ctx, append(tgt.opts, RunAt(at))...); err != nil {
					t.Fatal(err)
				}
				m, _ := incr.Mapping("p")
				for _, step := range steps {
					at = at.Add(24 * time.Hour)
					previous := data[prog.revised]
					data[prog.revised] = revise(t, previous, step.ins, step.chg, step.del)
					if err := incr.PutCube(data[prog.revised], at); err != nil {
						t.Fatal(err)
					}
					tracer.Reset()
					rep, err := incr.Run(ctx, append(tgt.opts, RunAt(at), WithIncremental())...)
					if err != nil {
						t.Fatalf("%s: %v", step.name, err)
					}
					if prog.agg != "" {
						// The maintained aggregation evaluated the measure at the
						// members of the groups the revision touched, and nowhere else.
						affected, members := map[string]bool{}, 0
						d := model.DiffCubes(prog.revised, previous, data[prog.revised])
						for _, tu := range append(append(d.Added, d.Changed...), d.Deleted...) {
							affected[prog.group(tu.Dims)] = true
						}
						for _, tu := range data[prog.revised].Tuples() {
							if affected[prog.group(tu.Dims)] {
								members++
							}
						}
						var bindings, groups string
						for _, root := range tracer.Roots() {
							for _, sp := range root.FindAll("chase.tgd.incr") {
								if cube, _ := sp.Attr("cube"); cube == prog.agg {
									bindings, _ = sp.Attr("bindings")
									groups, _ = sp.Attr("groups")
								}
							}
						}
						if bindings != strconv.Itoa(members) {
							t.Errorf("%s: maintaining %s bound %s rows, want %d: the members of %d affected groups",
								step.name, prog.agg, bindings, members, len(affected))
						}
						// A revision that only restates measures stands on its
						// predecessor's key set, which the run before it grouped; the
						// fifth leaves most groups alone.
						if want := map[bool]string{true: "partition", false: "hash"}[!step.ins && !step.del]; groups != want {
							t.Errorf("%s: groups=%s, want %s", step.name, groups, want)
						}
						if total := data[prog.revised].Len(); step.name == "two tuples" && members > total/4 {
							t.Errorf("%s: %d of %d rows are in affected groups", step.name, members, total)
						}
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
