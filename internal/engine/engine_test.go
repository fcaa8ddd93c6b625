package engine

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"exlengine/internal/backend"
	"exlengine/internal/chase"
	"exlengine/internal/exl"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/ops"
	"exlengine/internal/store"
	"exlengine/internal/workload"
)

func newGDPEngine(t *testing.T, data workload.Data, opts ...Option) *Engine {
	t.Helper()
	e := New(opts...)
	if err := e.RegisterProgram("gdp", workload.GDPProgram); err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range data {
		if err := e.PutCube(c, t0); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func chaseReference(t *testing.T, data workload.Data) chase.Instance {
	t.Helper()
	prog, err := exl.Parse(workload.GDPProgram)
	if err != nil {
		t.Fatal(err)
	}
	a, err := exl.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Generate(a)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := chase.New(m).Solve(chase.Instance(data))
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestEndToEndArchitecture is the Figure 2 walk: programs registered,
// elementary data loaded, determination + translation + dispatch, results
// in the store, matching the chase solution.
func TestEndToEndArchitecture(t *testing.T) {
	data := workload.GDPSource(workload.GDPConfig{Days: 370, Regions: 3})
	ref := chaseReference(t, data)
	e := newGDPEngine(t, data)

	rep, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Plan) != 5 {
		t.Errorf("plan = %v", rep.Plan)
	}
	if len(rep.Subgraphs) < 2 {
		t.Errorf("expected a mixed-target run: %+v", rep.Subgraphs)
	}
	for _, rel := range []string{"PQR", "RGDP", "GDP", "GDPT", "PCHNG"} {
		got, ok := e.Cube(rel)
		if !ok {
			t.Fatalf("cube %s missing after run", rel)
		}
		if !got.Equal(ref[rel], 1e-6) {
			t.Errorf("%s differs from chase:\n%s", rel, strings.Join(got.Diff(ref[rel], 1e-6, 5), "\n"))
		}
	}
}

func TestRunOnEachTarget(t *testing.T) {
	data := workload.GDPSource(workload.GDPConfig{Days: 200, Regions: 2})
	ref := chaseReference(t, data)
	for _, target := range ops.AllTargets {
		t.Run(string(target), func(t *testing.T) {
			e := newGDPEngine(t, data)
			if _, err := e.Run(context.Background(), RunOn(target)); err != nil {
				t.Fatal(err)
			}
			got, _ := e.Cube("PCHNG")
			if !got.Equal(ref["PCHNG"], 1e-6) {
				t.Errorf("PCHNG differs on %s", target)
			}
		})
	}
}

// TestIncrementalRecalculation mirrors Section 6: after a leaf changes,
// only the affected cubes are recalculated, and the results match a full
// recomputation on the new data.
func TestIncrementalRecalculation(t *testing.T) {
	data := workload.GDPSource(workload.GDPConfig{Days: 200, Regions: 2})
	e := newGDPEngine(t, data)
	if _, err := e.Run(context.Background(), RunAt(time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC))); err != nil {
		t.Fatal(err)
	}
	pqrBefore, _ := e.Cube("PQR")

	// New version of RGDPPC only.
	newData := workload.GDPSource(workload.GDPConfig{Days: 200, Regions: 2, Seed: 42})
	t1 := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := e.PutCube(newData["RGDPPC"], t1); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(context.Background(), RunChanged("RGDPPC"), RunAt(t1))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(rep.Plan, ",") != "RGDP,GDP,GDPT,PCHNG" {
		t.Errorf("incremental plan = %v", rep.Plan)
	}

	// PQR untouched (same version), downstream recomputed correctly.
	pqrAfter, _ := e.Cube("PQR")
	if !pqrAfter.Equal(pqrBefore, model.Eps) {
		t.Error("PQR must not change when only RGDPPC changes")
	}
	mixed := workload.Data{"PDR": data["PDR"], "RGDPPC": newData["RGDPPC"]}
	ref := chaseReference(t, mixed)
	got, _ := e.Cube("PCHNG")
	if !got.Equal(ref["PCHNG"], 1e-6) {
		t.Error("incremental result differs from full recomputation")
	}

	// Historicity: the pre-change version is still readable as-of 2020.
	t0 := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	old, ok := e.CubeAsOf("RGDPPC", t0)
	if !ok || !old.Equal(data["RGDPPC"], model.Eps) {
		t.Error("as-of read of the old RGDPPC version failed")
	}
}

func TestTranslateArtifacts(t *testing.T) {
	e := newGDPEngine(t, workload.GDPSource(workload.GDPConfig{Days: 10, Regions: 1}))
	cases := map[string]string{
		backend.ArtifactTgds:   "GDP → GDPT(stl_t(GDP))",
		backend.ArtifactSQL:    "FROM STL_T(GDP)",
		backend.ArtifactR:      "$time.series",
		backend.ArtifactMatlab: "isolateTrend(",
		backend.ArtifactETL:    `"type": "merge_join"`,
	}
	for kind, frag := range cases {
		out, err := e.Translate("gdp", kind)
		if err != nil {
			t.Errorf("Translate(%s): %v", kind, err)
			continue
		}
		if !strings.Contains(out, frag) {
			t.Errorf("artifact %s missing %q", kind, frag)
		}
	}
	if _, err := e.Translate("gdp", "cobol"); err == nil {
		t.Error("unknown artifact kind must fail")
	}
	if _, err := e.Translate("nope", backend.ArtifactSQL); err == nil {
		t.Error("unknown program must fail")
	}
}

func TestMultiProgramEngine(t *testing.T) {
	e := New()
	if err := e.RegisterProgram("gdp", workload.GDPProgram); err != nil {
		t.Fatal(err)
	}
	// A second program building on the first program's output.
	if err := e.RegisterProgram("derived", "GDPIDX := GDP / shift(GDP, 1) * 100"); err != nil {
		t.Fatal(err)
	}
	if got := e.Programs(); strings.Join(got, ",") != "derived,gdp" {
		t.Errorf("programs = %v", got)
	}
	data := workload.GDPSource(workload.GDPConfig{Days: 380, Regions: 2})
	t0 := time.Unix(0, 0)
	_ = e.PutCube(data["PDR"], t0)
	_ = e.PutCube(data["RGDPPC"], t0)
	rep, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Plan) != 6 {
		t.Errorf("plan = %v", rep.Plan)
	}
	idx, ok := e.Cube("GDPIDX")
	if !ok || idx.Len() == 0 {
		t.Fatalf("GDPIDX missing or empty")
	}
	// Cross-check one value: GDPIDX(q) = GDP(q)/GDP(q-1)*100.
	gdp, _ := e.Cube("GDP")
	ts := gdp.Tuples()
	q1 := ts[len(ts)-2]
	q2 := ts[len(ts)-1]
	want := q2.Measure / q1.Measure * 100
	got, okV := idx.Get(q2.Dims)
	if !okV || !approx(got, want) {
		t.Errorf("GDPIDX = %v, want %v", got, want)
	}
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+b)
}

func TestRegisterProgramErrors(t *testing.T) {
	e := New()
	if err := e.RegisterProgram("bad", "A := "); err == nil {
		t.Error("syntax error must fail")
	}
	if err := e.RegisterProgram("bad2", "A := NOPE * 2"); err == nil {
		t.Error("unknown cube must fail")
	}
	if err := e.RegisterProgram("gdp", workload.GDPProgram); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProgram("gdp", workload.GDPProgram); !errors.Is(err, ErrProgramRegistered) {
		t.Errorf("duplicate program name = %v, want ErrProgramRegistered", err)
	}
	if err := e.RegisterProgram("dup", "cube PDR(d: day, r: string)\nX := PDR * 1"); err == nil {
		t.Error("redeclaring an existing cube with a program must fail")
	}
	// Re-deriving an existing derived cube fails at graph level.
	if err := e.RegisterProgram("clash", "GDP := RGDP * 1"); err == nil {
		t.Error("second derivation of GDP must fail")
	}
}

func TestRunWithoutPrograms(t *testing.T) {
	e := New()
	if _, err := e.Run(context.Background()); err == nil {
		t.Error("Run without programs must fail")
	}
}

func TestCSVLifecycle(t *testing.T) {
	e := New()
	if err := e.RegisterProgram("p", "cube A(t: year) measure v\nB := A * 2"); err != nil {
		t.Fatal(err)
	}
	csv := "t,v\n2019,1\n2020,2\n"
	if err := e.LoadCSV("A", strings.NewReader(csv), time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadCSV("NOPE", strings.NewReader(csv), time.Unix(0, 0)); !errors.Is(err, ErrCubeNotDeclared) {
		t.Errorf("undeclared cube = %v, want ErrCubeNotDeclared", err)
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteCSV("B", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2020,4") {
		t.Errorf("exported CSV:\n%s", buf.String())
	}
	if err := e.WriteCSV("UNSET", &buf); err == nil {
		t.Error("export of missing cube must fail")
	}
}

// TestLoadCSVAdoptsTheParsedCube pins that LoadCSV hands the store the
// cube it parsed, frozen, instead of letting the store clone it: loading
// a 20k-tuple cube allocates what parsing it does, and not a second row
// map (about 1.5 MB at this size) on top.
func TestLoadCSVAdoptsTheParsedCube(t *testing.T) {
	e := New()
	if err := e.RegisterProgram("p", benchProgram); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.WriteCSV(&buf, panelCube(t, 200, 100)); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	sch, _ := e.Schema("S")
	parse := allocated(func() {
		if _, err := store.ReadCSV(bytes.NewReader(body), sch); err != nil {
			t.Fatal(err)
		}
	})
	load := allocated(func() {
		if err := e.LoadCSV("S", bytes.NewReader(body), time.Unix(1, 0)); err != nil {
			t.Fatal(err)
		}
	})
	if extra := load - parse; extra > 256<<10 {
		t.Errorf("LoadCSV allocated %d bytes beyond the %d of parsing: the store cloned the cube", extra, parse)
	}
	if c, ok := e.Cube("S"); !ok || c.Len() != 20000 || !c.Frozen() {
		t.Fatalf("stored S = %v", c)
	}
}

// TestPutCubeLeavesTheCallersCubeAlone: unlike LoadCSV, PutCube is handed
// a cube its caller keeps, so the store must clone it — the caller's copy
// stays mutable and the stored version does not follow it.
func TestPutCubeLeavesTheCallersCubeAlone(t *testing.T) {
	e := New()
	if err := e.RegisterProgram("p", benchProgram); err != nil {
		t.Fatal(err)
	}
	c := panelCube(t, 4, 4)
	if err := e.PutCube(c, time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	stored, _ := e.Cube("S")
	if c.Frozen() || stored == c {
		t.Fatal("PutCube froze or adopted the caller's cube")
	}
	tu := c.Tuples()[0]
	if err := c.Replace(tu.Dims, -1); err != nil {
		t.Fatal(err)
	}
	if v, _ := stored.Get(tu.Dims); v != tu.Measure {
		t.Fatalf("stored version followed the caller's mutation: %v", v)
	}
}

func TestMappingAccessor(t *testing.T) {
	e := New()
	_ = e.RegisterProgram("gdp", workload.GDPProgram)
	m, ok := e.Mapping("gdp")
	if !ok || len(m.Tgds) != 5 {
		t.Errorf("Mapping = %v, %v", m, ok)
	}
	if _, ok := e.Mapping("nope"); ok {
		t.Error("unknown program mapping must miss")
	}
}

// TestEngineConcurrentUse: loading new cube versions while recalculating
// must be safe (the store is the only shared mutable state).
func TestEngineConcurrentUse(t *testing.T) {
	data := workload.GDPSource(workload.GDPConfig{Days: 120, Regions: 2})
	e := newGDPEngine(t, data)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			fresh := workload.GDPSource(workload.GDPConfig{Days: 120, Regions: 2, Seed: int64(i + 10)})
			if err := e.PutCube(fresh["RGDPPC"], time.Date(2021+i, 1, 1, 0, 0, 0, 0, time.UTC)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if _, err := e.Run(context.Background(), RunChanged("RGDPPC"), RunAt(time.Date(2030+i, 1, 1, 0, 0, 0, 0, time.UTC))); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if _, ok := e.Cube("PCHNG"); !ok {
		t.Fatal("PCHNG missing after concurrent runs")
	}
}
