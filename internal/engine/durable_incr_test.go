package engine

import (
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"exlengine/internal/dispatch"
	"exlengine/internal/faults"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
	"exlengine/internal/store/durable"
	"exlengine/internal/workload"
)

// durablePanel opens a durable store behind a byte-counting filesystem,
// registers benchProgram on an engine over it, loads a quarters × 100
// panel and makes the priming run.
func durablePanel(tb testing.TB, quarters int, opts ...Option) (*Engine, *durable.Store, *faults.FaultFS, *model.Cube) {
	tb.Helper()
	fs := faults.NewFaultFS(durable.OSFS{})
	st, err := durable.Open(tb.TempDir(), durable.WithFS(fs))
	if err != nil {
		tb.Fatal(err)
	}
	e := New(append([]Option{WithStore(st)}, opts...)...)
	if err := e.RegisterProgram("p", benchProgram); err != nil {
		tb.Fatal(err)
	}
	seed := panelCube(tb, quarters, 100)
	if err := e.PutCube(seed, panelDay(0)); err != nil {
		tb.Fatal(err)
	}
	if _, err := e.Run(context.Background(), RunOn(ops.TargetChase), RunAt(panelDay(0)), WithIncremental()); err != nil {
		tb.Fatal(err)
	}
	return e, st, fs, seed
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("segments in %s: %v (%v)", dir, names, err)
	}
	return names
}

func panelDay(i int) time.Time {
	return time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * 24 * time.Hour)
}

// TestDurableIncrementalCommitIsProportional pins what an incremental op
// costs the durable store: on a 20k-tuple panel, a revision of 1 % of the
// tuples and the run that follows write bytes in proportion to the tuples
// that changed, not to the five cubes; no segment is written; every stored
// result is a measure column on the key set of the version before, and from
// the second step on the run that made them allocates within
// maintainedStepBudget, which a copied row map or a sort would blow; and the
// delta the next run asks the store for is the one the commit kept, not a
// new diff. After a reopen every version is what was put.
func TestDurableIncrementalCommitIsProportional(t *testing.T) {
	tracer := obs.NewTracer()
	e, st, fs, seed := durablePanel(t, 200, WithTracer(tracer))
	derived := []string{"A", "B", "C", "D"}

	const steps = 10
	revisions := []*model.Cube{seed}
	d0, _ := st.Get("D")
	results := []*model.Cube{d0}
	segment := segmentFiles(t, st.Dir())
	for i := 1; i <= steps; i++ {
		rev := revisePanel(revisions[i-1], i)
		revisions = append(revisions, rev)
		bytes0, gen0 := fs.BytesWritten(), st.Generation()

		if err := e.PutCube(rev, panelDay(i)); err != nil {
			t.Fatal(err)
		}
		// What the run's determination asks: how did S move since the
		// generation its outputs were computed at?
		d, err := st.Delta("S", gen0)
		if err != nil || d.Size() != 200 {
			t.Fatalf("step %d: Delta(S) = %v, %v", i, d, err)
		}
		if n := testing.AllocsPerRun(5, func() { st.Delta("S", gen0) }); n != 0 {
			t.Errorf("step %d: Delta(S) for the generation before the put allocates %v times: it diffed", i, n)
		}

		// The first step builds the index of each key set, once for all the
		// versions that follow on it.
		spent := maintainedRun(t, e, i)
		if budget := maintainedStepBudget(len(derived)*rev.Len(), len(derived)*d.Size()); i > 1 && spent > budget {
			t.Errorf("step %d: the run allocated %d B, budget %d", i, spent, budget)
		}
		changed := 0
		for _, name := range derived {
			out, err := st.Delta(name, gen0+1)
			if err != nil || out.Size() != 200 {
				t.Fatalf("step %d: Delta(%s) = %v, %v", i, name, out, err)
			}
			if n := testing.AllocsPerRun(5, func() { st.Delta(name, gen0+1) }); n != 0 {
				t.Errorf("step %d: Delta(%s) for the generation before the commit allocates %v times", i, name, n)
			}
			changed += out.Size()
		}
		changed += d.Size()
		di, _ := st.Get("D")
		results = append(results, di)
		if written, budget := fs.BytesWritten()-bytes0, int64(64*changed+4096); written > budget {
			t.Errorf("step %d: %d bytes written for %d changed tuples, budget %d", i, written, changed, budget)
		}
	}
	// A segment is named after the generation it was written at.
	if now := segmentFiles(t, st.Dir()); !slices.Equal(now, segment) {
		t.Errorf("a segment was written across %d steps: %v, then %v", steps, segment, now)
	}

	// The persist span says what the commit logged.
	var persist *obs.Span
	for _, root := range tracer.Roots() {
		if s := root.Find("persist"); s != nil {
			persist = s
		}
	}
	if persist == nil {
		t.Fatal("no persist span")
	}
	if v, _ := persist.Attr("delta_cubes"); v != "4" {
		t.Errorf("persist delta_cubes = %q, want 4", v)
	}
	if v, _ := persist.Attr("full_cubes"); v != "0" {
		t.Errorf("persist full_cubes = %q, want 0", v)
	}
	if v, ok := persist.Attr("wal_bytes"); !ok || v == "0" {
		t.Errorf("persist wal_bytes = %q", v)
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := durable.Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i, want := range revisions {
		got, ok := re.GetAsOf("S", panelDay(i))
		if !ok || !got.Equal(want, 0) {
			t.Fatalf("S as of step %d does not equal what was put", i)
		}
		if got, ok = re.GetAsOf("D", panelDay(i)); !ok || !got.Equal(results[i], 0) {
			t.Fatalf("D as of step %d does not equal what the run stored", i)
		}
	}
}

// TestFullChaseRunSharesKeySets: a full run on the chase derives every
// point-wise result as a measure column on its operand's key set, so across
// ten revisions of S and the full runs that follow, every stored version of
// A–D stands on stored S's key set; the store finds each result's delta
// column against column — the 1 % of the tuples that moved, restated — and a
// reopened store replays every version as it was stored.
func TestFullChaseRunSharesKeySets(t *testing.T) {
	e, st, _, seed := durablePanel(t, 200)
	names := []string{"S", "A", "B", "C", "D"}
	stored := make(map[string][]*model.Cube)
	record := func() {
		for _, name := range names {
			c, _ := st.Get(name)
			stored[name] = append(stored[name], c)
		}
	}
	record()
	const steps = 10
	rev := seed
	for i := 1; i <= steps; i++ {
		rev = revisePanel(rev, i)
		if err := e.PutCube(rev, panelDay(i)); err != nil {
			t.Fatal(err)
		}
		gen := st.Generation()
		rep, err := e.Run(context.Background(), RunOn(ops.TargetChase), RunAt(panelDay(i)))
		if err != nil || len(rep.Fragments) != 1 || rep.Fragments[0].Incremental {
			t.Fatalf("step %d: not a full run: %+v, %v", i, rep, err)
		}
		s, _ := st.Get("S")
		for _, name := range names[1:] {
			c, _ := st.Get(name)
			if !c.SharesKeySet(s) || !c.SharesKeySet(stored["S"][0]) {
				t.Errorf("step %d: stored %s does not stand on stored S's key set", i, name)
			}
			d, err := st.Delta(name, gen)
			if err != nil || len(d.Changed) != rev.Len()/100 || len(d.Added)+len(d.Deleted) != 0 {
				t.Fatalf("step %d: Delta(%s) = %v, %v: want %d tuples changed and nothing else", i, name, d, err, rev.Len()/100)
			}
		}
		record()
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := durable.Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, name := range names {
		if got := len(re.Versions(name)); got != steps+1 {
			t.Fatalf("%s has %d versions after the reopen, want %d", name, got, steps+1)
		}
		for i, want := range stored[name] {
			if got, ok := re.GetAsOf(name, panelDay(i)); !ok || !got.Equal(want, 0) || !got.Frozen() {
				t.Fatalf("%s as of step %d is not the version stored", name, i)
			}
		}
	}
}

// BenchmarkDurableIncrementalCommit is one durable incremental op on the
// 20k-tuple panel — put a 1 % revision, bring the four derived cubes up
// to date, both commits fsync'd — with the bytes it wrote beside the time.
func BenchmarkDurableIncrementalCommit(b *testing.B) {
	e, st, fs, cur := durablePanel(b, 200)
	defer st.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	bytes0 := fs.BytesWritten()
	for i := 1; i <= b.N; i++ {
		b.StopTimer()
		cur = revisePanel(cur, i)
		b.StartTimer()
		if err := e.PutCube(cur, panelDay(i)); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(ctx, RunOn(ops.TargetChase), RunAt(panelDay(i)), WithIncremental()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fs.BytesWritten()-bytes0)/float64(b.N), "disk-B/op")
}

// TestRestartIsInvisibleToIncrementalRuns: the store is the one record of
// what each derived version was computed from, so an incremental run after
// a close and durable.Open, on a new engine with the program registered
// again, does what it would have done on the engine that made the versions.
// For GDP and for the chain program over a durable store: a full run, then
// one churned input; then (a) the incremental run on the same engine, and
// (b) the same run after the restart, with or without a compaction before
// the close. The two plan and maintain alike, fragment for fragment, and
// store the same bytes.
func TestRestartIsInvisibleToIncrementalRuns(t *testing.T) {
	ctx := context.Background()
	gdp := workload.GDPSource(workload.GDPConfig{Days: 200, Regions: 3, Seed: 9})
	t0, t1 := panelDay(0), panelDay(1)
	for _, tc := range []struct {
		program, src string
		inputs       []*model.Cube
		derived      []string
	}{
		{"gdp", workload.GDPProgram, []*model.Cube{gdp["PDR"], gdp["RGDPPC"]}, gdpDerived},
		{"chain", chainProgram, []*model.Cube{quarterCube(t, 40)}, []string{"B", "C"}},
	} {
		// setup leaves in dir the state both runs start from.
		setup := func(dir string) (*Engine, *durable.Store) {
			t.Helper()
			st, err := durable.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			e := New(WithStore(st))
			if err := e.RegisterProgram(tc.program, tc.src); err != nil {
				t.Fatal(err)
			}
			for _, c := range tc.inputs {
				if err := e.PutCube(c, t0); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.Run(ctx, RunAt(t0)); err != nil {
				t.Fatal(err)
			}
			if err := e.PutCube(churn(t, tc.inputs[0], true), t1); err != nil {
				t.Fatal(err)
			}
			return e, st
		}
		outputs := func(e *Engine) map[string]string {
			t.Helper()
			out := map[string]string{}
			for _, name := range tc.derived {
				var b strings.Builder
				if err := e.WriteCSV(name, &b); err != nil {
					t.Fatal(err)
				}
				out[name] = b.String()
			}
			return out
		}

		same, sameSt := setup(t.TempDir())
		want, err := same.Run(ctx, RunAt(t1), WithIncremental())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(want.Fragments, func(fr dispatch.FragmentReport) bool { return fr.Mode == dispatch.ModeMaintained }) {
			t.Fatalf("%s: the run on the same engine maintains nothing: %+v", tc.program, want.Fragments)
		}
		for _, compact := range []bool{false, true} {
			dir := t.TempDir()
			_, st := setup(dir)
			if compact {
				if err := st.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := durable.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			e := New(WithStore(re))
			if err := e.RegisterProgram(tc.program, tc.src); err != nil {
				t.Fatal(err)
			}
			got, err := e.Run(ctx, RunAt(t1), WithIncremental())
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s, compact %v", tc.program, compact)
			if !slices.Equal(got.Plan, want.Plan) || !slices.Equal(got.Skipped, want.Skipped) || len(got.Fragments) != len(want.Fragments) {
				t.Fatalf("%s: after the restart plan %v, skipped %v, %d fragments; on the same engine %v, %v, %d",
					label, got.Plan, got.Skipped, len(got.Fragments), want.Plan, want.Skipped, len(want.Fragments))
			}
			for i, fr := range got.Fragments {
				if w := want.Fragments[i]; !slices.Equal(fr.Cubes, w.Cubes) || fr.Mode != w.Mode || fr.FallbackReason != w.FallbackReason {
					t.Errorf("%s: fragment %v is %s (%q) after the restart, %v %s (%q) on the same engine",
						label, fr.Cubes, fr.Mode, fr.FallbackReason, w.Cubes, w.Mode, w.FallbackReason)
				}
			}
			if !maps.Equal(outputs(e), outputs(same)) {
				t.Errorf("%s: the outputs after the restart are not the bytes the same engine stored", label)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := sameSt.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
