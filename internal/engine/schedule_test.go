package engine

import (
	"context"
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"exlengine/internal/dispatch"
	"exlengine/internal/exlerr"
	"exlengine/internal/model"
	"exlengine/internal/store/durable"
)

// The pair of programs of the re-registration tests: p2 derives from a cube
// p1 derives and from a cube of its own.
const (
	pairP1 = "cube S(i: int) measure v\nA := S * 2\n"
	pairP2 = "cube T(i: int) measure w\nB := A + T\n"
)

// intCube builds a one-dimensional cube name(i: int) with measure
// f(i) for i in [0, n).
func intCube(t *testing.T, name, measure string, n int, f func(int) float64) *model.Cube {
	t.Helper()
	c := model.NewCube(model.NewSchema(name, []model.Dim{{Name: "i", Type: model.TInt}}, measure))
	for i := 0; i < n; i++ {
		if err := c.Put([]model.Value{model.Int(int64(i))}, f(i)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestPlainEngineOverlapsIndependentPrograms: an engine built with no
// scheduling option runs the fragments of two independent programs in one
// wave, concurrently — a gate in front of every fragment sees both inside
// at once.
func TestPlainEngineOverlapsIndependentPrograms(t *testing.T) {
	inside := make(chan struct{}, 2)
	release := make(chan struct{})
	gate := func(next dispatch.Runner) dispatch.Runner {
		return func(ctx context.Context, fr dispatch.Fragment, snap map[string]*model.Cube) (map[string]*model.Cube, error) {
			inside <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return next(ctx, fr, snap)
		}
	}
	e := New(WithDispatchMiddleware(gate))
	if err := e.RegisterProgram("p1", pairP1); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProgram("p2", "cube T(i: int) measure w\nB := T * 3\n"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*model.Cube{
		intCube(t, "S", "v", 10, func(i int) float64 { return float64(i) }),
		intCube(t, "T", "w", 10, func(i int) float64 { return float64(i) }),
	} {
		if err := e.PutCube(c, time.Unix(1, 0)); err != nil {
			t.Fatal(err)
		}
	}

	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := e.Run(context.Background(), RunAt(time.Unix(1, 0)))
		done <- result{rep, err}
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-inside:
		case <-time.After(5 * time.Second):
			close(release)
			<-done
			t.Fatalf("only %d fragment(s) inside at once: the independent programs ran one after the other", i)
		}
	}
	close(release)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.rep.Subgraphs) != 2 {
		t.Errorf("subgraphs = %+v, want one per program", r.rep.Subgraphs)
	}
	for _, name := range []string{"A", "B"} {
		if c, ok := e.Cube(name); !ok || c.Len() != 10 {
			t.Errorf("cube %s missing after the overlapped run", name)
		}
	}
}

// TestWaveErrorNamesLowestFragment: when two fragments of one wave fail, the
// run fails with the error of the lower-index one, whichever finishes
// first — here fragment 1 fails at once and fragment 0 a moment later, on
// every run.
func TestWaveErrorNamesLowestFragment(t *testing.T) {
	fail := func(next dispatch.Runner) dispatch.Runner {
		return func(ctx context.Context, fr dispatch.Fragment, snap map[string]*model.Cube) (map[string]*model.Cube, error) {
			if fr.Index == 0 {
				time.Sleep(time.Millisecond)
			}
			return nil, exlerr.New(exlerr.Fatal, errors.New("injected"))
		}
	}
	e := New(WithoutDegradation(), WithDispatchMiddleware(fail))
	if err := e.RegisterProgram("p1", pairP1); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProgram("p2", "cube T(i: int) measure w\nB := T * 3\n"); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 50; run++ {
		_, err := e.Run(context.Background(), RunAt(time.Unix(1, 0)))
		if err == nil {
			t.Fatal("a run whose every fragment fails succeeded")
		}
		if !strings.Contains(err.Error(), "fragment 0 ") {
			t.Fatalf("run %d: err = %v, want the error of fragment 0", run, err)
		}
	}
}

// TestReRegisterTwoProgramsOnReopenedStore: a catalog of two programs, the
// second deriving from the first and from a cube of its own, registers
// again on a reopened durable store that holds every cube of both. The
// incremental run after a revision maintains or reuses what the store
// holds, and its outputs equal a full run's.
func TestReRegisterTwoProgramsOnReopenedStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	t0, t1 := time.Unix(1, 0), time.Unix(2, 0)
	open := func() (*Engine, *durable.Store) {
		t.Helper()
		st, err := durable.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		e := New(WithStore(st))
		if err := e.RegisterProgram("p1", pairP1); err != nil {
			t.Fatalf("register p1: %v", err)
		}
		if err := e.RegisterProgram("p2", pairP2); err != nil {
			t.Fatalf("register p2: %v", err)
		}
		return e, st
	}

	e, st := open()
	s := intCube(t, "S", "v", 200, func(i int) float64 { return float64(i) })
	for _, c := range []*model.Cube{s, intCube(t, "T", "w", 200, func(i int) float64 { return float64(3 * i) })} {
		if err := e.PutCube(c, t0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(ctx, RunAt(t0), WithIncremental()); err != nil {
		t.Fatal(err)
	}
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	e, st = open()
	defer st.Close()
	revised := s.Clone()
	if err := revised.Replace([]model.Value{model.Int(7)}, 70); err != nil {
		t.Fatal(err)
	}
	if err := e.PutCube(revised.Freeze(), t1); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(ctx, RunAt(t1), WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Fragments) == 0 {
		t.Fatalf("the incremental run after the reopen dispatched nothing: %+v", rep)
	}
	for _, fr := range rep.Fragments {
		if fr.Mode != dispatch.ModeMaintained && fr.Mode != dispatch.ModeReused {
			t.Errorf("fragment %v ran %s (%q) after the reopen, want maintained or reused", fr.Cubes, fr.Mode, fr.FallbackReason)
		}
	}

	full := New()
	if err := full.RegisterProgram("p1", pairP1); err != nil {
		t.Fatal(err)
	}
	if err := full.RegisterProgram("p2", pairP2); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"S", "T"} {
		c, _ := e.Cube(name)
		if err := full.PutCube(c, t1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := full.Run(ctx, RunAt(t1)); err != nil {
		t.Fatal(err)
	}
	outputs := func(e *Engine) map[string]string {
		out := map[string]string{}
		for _, name := range []string{"A", "B"} {
			var b strings.Builder
			if err := e.WriteCSV(name, &b); err != nil {
				t.Fatal(err)
			}
			out[name] = b.String()
		}
		return out
	}
	if got, want := outputs(e), outputs(full); !maps.Equal(got, want) {
		t.Errorf("outputs after the reopen differ from a full run's:\n%v\nwant\n%v", got, want)
	}
	if names := e.Programs(); !slices.Equal(names, []string{"p1", "p2"}) {
		t.Errorf("programs = %v", names)
	}
}
