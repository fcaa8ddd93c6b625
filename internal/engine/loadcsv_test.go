package engine

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"exlengine/internal/model"
	"exlengine/internal/store"
	"exlengine/internal/store/durable"
	"exlengine/internal/workload"
)

// pdrBodies returns the GDP example's PDR at days × 20 tuples and revisions
// of it as mutable cubes, each restating every hundredth tuple from another
// offset, with all of their CSV bodies (the base's first).
func pdrBodies(t *testing.T, days, revisions int) (cubes []*model.Cube, bodies [][]byte) {
	t.Helper()
	base := workload.GDPSource(workload.GDPConfig{Days: days, Regions: 20})["PDR"]
	cubes = append(cubes, base)
	for r := 1; r <= revisions; r++ {
		rev := base.Clone()
		for i, tu := range base.Tuples() {
			if i%100 == r {
				if err := rev.Replace(tu.Dims, tu.Measure+float64(r)); err != nil {
					t.Fatal(err)
				}
			}
		}
		cubes = append(cubes, rev)
	}
	for _, c := range cubes {
		var body bytes.Buffer
		if err := store.WriteCSV(&body, c); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body.Bytes())
	}
	return cubes, bodies
}

func gdpEngineOn(t *testing.T, dir string) (*Engine, *durable.Store) {
	t.Helper()
	st, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithStore(st))
	if err := e.RegisterProgram("gdp", workload.GDPProgram); err != nil {
		t.Fatal(err)
	}
	return e, st
}

// TestLoadCSVRevisionAllocatesAColumn: a 40k-tuple PDR that arrives again as
// CSV with 1 % of its measures restated is decoded onto the stored version's
// key set. From the body to the durable store the load allocates a measure
// column and little else, logs the delta record a Put of the same revision as
// a cube logs, and is there bit for bit when the store is opened again.
func TestLoadCSVRevisionAllocatesAColumn(t *testing.T) {
	const tuples = 40000
	cubes, bodies := pdrBodies(t, tuples/20, 1)
	at := func(k int) time.Time { return time.Unix(0, 0).AddDate(0, 0, k) }
	dir := t.TempDir()
	viaCSV, stCSV := gdpEngineOn(t, dir)
	viaPut, stPut := gdpEngineOn(t, t.TempDir())
	defer stPut.Close()
	for _, e := range []*Engine{viaCSV, viaPut} {
		if err := e.LoadCSV("PDR", bytes.NewReader(bodies[0]), at(0)); err != nil {
			t.Fatal(err)
		}
	}
	prev, _ := viaCSV.Cube("PDR")
	if err := viaPut.PutCube(cubes[1], at(1)); err != nil {
		t.Fatal(err)
	}
	logged, _ := stCSV.WALStats()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := viaCSV.LoadCSV("PDR", bytes.NewReader(bodies[1]), at(1))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if b, n := float64(after.TotalAlloc-before.TotalAlloc)/tuples, float64(after.Mallocs-before.Mallocs)/tuples; b > 12 || n >= 0.1 {
		t.Errorf("the load allocated %.1f B and %.3f objects per tuple, want at most 12 B and fewer than 0.1", b, n)
	}
	if got, _ := viaCSV.Cube("PDR"); !got.SharesKeySet(prev) || !got.Equal(cubes[1], 0) || got.Len() != tuples {
		t.Error("the revision is not its body on its predecessor's key set")
	}
	withRevision, _ := stCSV.WALStats()
	whole, _ := stPut.WALStats()
	if asCube := whole - logged; withRevision-logged != asCube || asCube > logged/20 {
		t.Errorf("the load logged %d bytes, a Put of the revision logs %d, the first load logged %d", withRevision-logged, asCube, logged)
	}

	if err := stCSV.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, st := gdpEngineOn(t, dir)
	defer st.Close()
	if got, _ := reopened.Cube("PDR"); got == nil || !got.Equal(cubes[1], 0) || !cubes[1].Equal(got, 0) || got.Len() != tuples {
		t.Error("after reopening, PDR is not the revision that was loaded")
	}
	if got, _ := reopened.CubeAsOf("PDR", at(0)); got == nil || !got.Equal(cubes[0], 0) {
		t.Error("after reopening, PDR as of the first load is not the first load")
	}
}

// heldBack reads a body up to its last byte, which it gives only once ready is
// closed: whoever decodes it has fetched its predecessor by then, and puts
// what it decoded when the test lets it.
type heldBack struct {
	body    []byte
	started func()
	ready   <-chan struct{}
}

func (h *heldBack) Read(p []byte) (int, error) {
	switch {
	case len(h.body) == 0:
		return 0, io.EOF
	case len(h.body) == 1:
		h.started()
		<-h.ready
	}
	n := copy(p, h.body[:max(1, min(len(p), len(h.body)-1))])
	h.body = h.body[n:]
	return n, nil
}

// TestLoadCSVConcurrentlyOnOneCube: three loads of one cube decode at once
// against the one version there is — two revisions of it, and one that inserts
// a tuple mid-body and a period at the end — and then put one after the other,
// so that two of them put a cube decoded onto a version that is no longer the
// latest. Every stored version is its file, and the store's delta from every
// generation to the latest is what diffing the two versions gives (run under
// -race).
func TestLoadCSVConcurrentlyOnOneCube(t *testing.T) {
	cubes, bodies := pdrBodies(t, 60, 2)
	grown := cubes[0].Clone()
	for r := 0; r < 20; r++ {
		if err := grown.Put([]model.Value{model.Per(model.NewDaily(2031, time.March, 1)), model.Str(workload.RegionName(r))}, float64(r)); err != nil {
			t.Fatal(err)
		}
	}
	// And a region on a day in the middle: the decode of this body stops
	// following the first version there, not where the version ends.
	if err := grown.Put([]model.Value{model.Per(model.NewDaily(2000, time.January, 31)), model.Str("R10a")}, 1); err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := store.WriteCSV(&body, grown); err != nil {
		t.Fatal(err)
	}
	// The order of the puts: a revision, the insert, the other revision.
	files := []*model.Cube{cubes[0], cubes[1], grown, cubes[2]}
	loads := [][]byte{bodies[1], body.Bytes(), bodies[2]}

	e, st := gdpEngineOn(t, t.TempDir())
	defer st.Close()
	at := func(k int) time.Time { return time.Unix(0, 0).AddDate(0, 0, k) }
	if err := e.LoadCSV("PDR", bytes.NewReader(bodies[0]), at(0)); err != nil {
		t.Fatal(err)
	}
	gen0 := st.Generation()

	var decoding, done sync.WaitGroup
	decoding.Add(len(loads))
	turn := make([]chan struct{}, len(loads)+1)
	for k := range turn {
		turn[k] = make(chan struct{})
	}
	for k, b := range loads {
		done.Add(1)
		go func(k int, b []byte) {
			defer done.Done()
			defer close(turn[k+1])
			if err := e.LoadCSV("PDR", &heldBack{body: b, started: decoding.Done, ready: turn[k]}, at(k+1)); err != nil {
				t.Errorf("load %d: %v", k+1, err)
			}
		}(k, b)
	}
	decoding.Wait()
	close(turn[0])
	done.Wait()

	latest, _ := e.Cube("PDR")
	for k, want := range files {
		got, ok := e.CubeAsOf("PDR", at(k))
		if !ok || !got.Equal(want, 0) || !want.Equal(got, 0) || got.Len() != want.Len() {
			t.Fatalf("the version put at %d is not its file", k)
		}
		d, err := st.Delta("PDR", gen0+uint64(k))
		if err != nil {
			t.Fatal(err)
		}
		sameLists(t, k, d, model.DiffCubes("PDR", got, latest))
	}
	if first, _ := e.CubeAsOf("PDR", at(0)); !latest.SharesKeySet(first) {
		t.Error("the last revision, decoded onto the first version's key set, was not kept on it")
	}
}

func sameLists(t *testing.T, k int, got, want *model.CubeDelta) {
	t.Helper()
	for l, lists := range [][2][]model.Tuple{{got.Added, want.Added}, {got.Changed, want.Changed}, {got.Deleted, want.Deleted}} {
		if len(lists[0]) != len(lists[1]) {
			t.Fatalf("delta from generation %d: list %d has %d tuples, want %d", k, l, len(lists[0]), len(lists[1]))
		}
		for i, tu := range lists[0] {
			if w := lists[1][i]; model.EncodeKey(tu.Dims) != model.EncodeKey(w.Dims) || tu.Measure != w.Measure {
				t.Fatalf("delta from generation %d: list %d has %v at %d, want %v", k, l, tu, i, w)
			}
		}
	}
}
