package crosscheck

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"exlengine/internal/chase"
	"exlengine/internal/engine"
	"exlengine/internal/exlerr"
	"exlengine/internal/faults"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
)

// degradedRun registers the program, loads the data, and runs the engine
// with the injector installed, returning the engine and its report.
func degradedRun(t *testing.T, src string, data map[string]*model.Cube, in *faults.Injector) (*engine.Engine, *engine.Report) {
	t.Helper()
	var opts []engine.Option
	if in != nil {
		opts = append(opts, engine.WithDispatchMiddleware(in.Middleware()))
	}
	e := engine.New(opts...)
	if err := e.RegisterProgram("p", src); err != nil {
		t.Fatalf("register: %v\n%s", err, src)
	}
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range data {
		if err := e.PutCube(c, t0); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := e.Run(context.Background())
	if err != nil {
		t.Fatalf("degraded run failed: %v\n%s", err, src)
	}
	return e, rep
}

// chaseRef solves the generated mapping with the chase.
func chaseRef(t *testing.T, src string, data map[string]*model.Cube) (*mapping.Mapping, chase.Instance) {
	t.Helper()
	m := compile(t, src)
	ref, err := chase.New(m).Solve(chase.Instance(data))
	if err != nil {
		t.Fatalf("chase: %v\n%s", err, src)
	}
	return m, ref
}

// TestRandomProgramsOneFatalFault runs random programs through the full
// engine with exactly one fatal error injected per run, on the first
// attempt of a seed-chosen fragment: the fragment falls back to another
// target, and the degraded run's cubes must still equal the chase.
func TestRandomProgramsOneFatalFault(t *testing.T) {
	const programs = 25
	for _, first := range []int64{300, 400} {
		for seed := first; seed < first+programs; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				g := newGenerator(seed)
				for i := 0; i < 6; i++ {
					g.addStmt()
				}
				src := g.source()
				data := g.data()
				m, ref := chaseRef(t, src, data)

				// A clean run tells us how many fragments the plan
				// dispatches, so the fault lands on a seed-chosen one.
				_, clean := degradedRun(t, src, data, nil)
				n := len(clean.Fragments)
				if n == 0 {
					t.Fatalf("no fragments dispatched\n%s", src)
				}
				frag := int(seed) % n
				in := faults.NewInjector(faults.Fault{Fragment: frag, Kind: faults.Error, Class: exlerr.Fatal})

				e, rep := degradedRun(t, src, data, in)
				if len(in.Fired()) != 1 {
					t.Fatalf("injector fired %d times, want 1", len(in.Fired()))
				}
				if rep.Fallbacks != 1 {
					t.Errorf("Fallbacks = %d, want 1\n%+v", rep.Fallbacks, rep.Fragments)
				}
				fr := rep.Fragments[frag]
				if !fr.Degraded() || fr.Final == fr.Primary {
					t.Errorf("fragment %d not degraded: %+v", frag, fr)
				}
				for _, rel := range m.Derived {
					got, ok := e.Cube(rel)
					if !ok {
						t.Fatalf("missing %s after degraded run\n%s", rel, src)
					}
					if !got.Equal(ref[rel], 1e-6) {
						t.Errorf("%s differs from chase after degradation to %v\nprogram:\n%s\ndiff:\n%s",
							rel, fr.Final, src, strings.Join(got.Diff(ref[rel], 1e-6, 5), "\n"))
					}
				}
			})
		}
	}
}
