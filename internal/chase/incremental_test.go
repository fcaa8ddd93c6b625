package chase

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"exlengine/internal/model"
	"exlengine/internal/workload"
)

// mutate returns a copy of src with a deterministic mix of value
// changes, deletions and insertions applied to the named cube.
func mutate(t *testing.T, src Instance, name string, seed int64) Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make(Instance, len(src))
	for k, c := range src {
		out[k] = c.Clone()
	}
	c := out[name]
	tuples := c.Tuples()
	if len(tuples) == 0 {
		t.Fatalf("cube %s empty", name)
	}
	for i, tu := range tuples {
		switch {
		case i%17 == 3: // value change
			if err := c.Replace(tu.Dims, tu.Measure*1.05+0.1); err != nil {
				t.Fatal(err)
			}
		case i%23 == 7: // deletion
			c.Delete(tu.Dims)
		}
	}
	// A few inserts at shifted coordinates that don't collide: reuse an
	// existing tuple's dims is impossible, so perturb the measure of a
	// random existing point instead when dims are not synthesizable.
	for i := 0; i < 3; i++ {
		tu := tuples[rng.Intn(len(tuples))]
		if err := c.Replace(tu.Dims, tu.Measure+float64(i)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// runIncr runs the full chase on base and cur, then the incremental
// chase on cur seeded from the base outputs, and requires exact
// (bit-for-bit) agreement with the full run on cur.
func runIncr(t *testing.T, src string, base, cur Instance) *Stats {
	t.Helper()
	m := compile(t, src)
	s := New(m)
	baseOut, err := s.Solve(base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Solve(cur)
	if err != nil {
		t.Fatal(err)
	}
	in := &Front{
		Deltas: make(map[string]*model.CubeDelta),
		Bases:  make(map[string]*model.Cube),
	}
	for _, name := range m.Elementary {
		in.Deltas[name] = model.DiffCubes(name, base[name], cur[name])
	}
	for name, c := range baseOut {
		in.Bases[name] = c.Freeze()
	}
	got, stats, err := s.Maintain(context.Background(), cur, in)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("incremental output missing %s", name)
		}
		if lines := exactDiff(w, g); len(lines) > 0 {
			t.Errorf("cube %s diverges:\n  %s", name, lines[0])
		}
	}
	return stats
}

// exactDiff reports tuple-level differences with zero tolerance.
func exactDiff(want, got *model.Cube) []string {
	d := model.DiffCubes("", want, got)
	var out []string
	for _, tu := range d.Added {
		out = append(out, "extra: "+tu.Dims[0].String())
	}
	for range d.Changed {
		out = append(out, "changed measure")
	}
	for range d.Deleted {
		out = append(out, "missing tuple")
	}
	return out
}

func TestIncrementalGDPChurnExact(t *testing.T) {
	base := Instance(workload.GDPSource(workload.GDPConfig{Days: 120, Regions: 3, Seed: 1}))
	cur := mutate(t, base, "PDR", 7)
	stats := runIncr(t, workload.GDPProgram, base, cur)
	if stats.Incremental == 0 {
		t.Errorf("expected some incremental tgds, got %+v", stats)
	}
	// The GDP program ends in black boxes (stl_t) which always recompute
	// in full; the upstream aggregation and arithmetic must not.
	if stats.Skipped+stats.Incremental == 0 || stats.Strata == 0 {
		t.Errorf("suspicious stats: %+v", stats)
	}
}

func TestIncrementalNoChangeSkipsEverything(t *testing.T) {
	src := Instance(workload.GDPSource(workload.GDPConfig{Days: 60, Regions: 2, Seed: 2}))
	stats := runIncr(t, workload.GDPProgram, src, src)
	if stats.Full != 0 || stats.Incremental != 0 {
		t.Errorf("no-op run should only skip: %+v", stats)
	}
	if stats.Skipped != stats.Strata {
		t.Errorf("want all %d tgds skipped, got %+v", stats.Strata, stats)
	}
}

func TestIncrementalSupervision(t *testing.T) {
	base := Instance(workload.SupervisionSource(5, 12, 3))
	cur := mutate(t, base, "ASSETS", 11)
	runIncr(t, workload.SupervisionProgram, base, cur)
}

func TestIncrementalDeletionRetracts(t *testing.T) {
	base := Instance(workload.GDPSource(workload.GDPConfig{Days: 40, Regions: 2, Seed: 4}))
	cur := make(Instance, len(base))
	for k, c := range base {
		cur[k] = c.Clone()
	}
	// Delete every tuple of one region: downstream per-region points must
	// be retracted, not left stale.
	for _, tu := range cur["RGDPPC"].Tuples() {
		if tu.Dims[len(tu.Dims)-1].String() == workload.RegionName(0) {
			cur["RGDPPC"].Delete(tu.Dims)
		}
	}
	runIncr(t, workload.GDPProgram, base, cur)
}

func TestIncrementalNormalizedMappingFallsBackSafely(t *testing.T) {
	base := Instance(workload.GDPSource(workload.GDPConfig{Days: 60, Regions: 2, Seed: 5}))
	cur := mutate(t, base, "PDR", 13)
	m := compileNormalized(t, workload.GDPProgram)
	s := New(m)
	baseOut, err := s.Solve(base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Solve(cur)
	if err != nil {
		t.Fatal(err)
	}
	in := &Front{Deltas: map[string]*model.CubeDelta{}, Bases: map[string]*model.Cube{}}
	for _, name := range m.Elementary {
		in.Deltas[name] = model.DiffCubes(name, base[name], cur[name])
	}
	for name, c := range baseOut {
		in.Bases[name] = c.Freeze()
	}
	got, _, err := s.Maintain(context.Background(), cur, in)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if lines := exactDiff(w, got[name]); len(lines) > 0 {
			t.Errorf("cube %s diverges: %v", name, lines)
		}
	}
}

// TestIncrementalDeltaInCubeOrder: a maintained tgd lists its output
// delta in cube order, as CubeDelta promises — here over quarters whose
// ordinals straddle a byte boundary (2048-Q1 is ordinal 0x2000), which
// keys with little-endian ordinals would list 2048 first.
func TestIncrementalDeltaInCubeOrder(t *testing.T) {
	m := compile(t, "cube A(t: quarter) measure v\nB := A * 2\n")
	quarter := func(i int) []model.Value {
		return []model.Value{model.Per(model.NewQuarterly(2046, 1).Shift(int64(i)))}
	}
	base, cur := model.NewCube(m.Schemas["A"]), model.NewCube(m.Schemas["A"])
	for i := 0; i < 16; i++ { // 2046-Q1 … 2049-Q4
		var err error
		switch i % 4 {
		case 0: // unchanged
			err = errors.Join(base.Put(quarter(i), 1), cur.Put(quarter(i), 1))
		case 1: // changed
			err = errors.Join(base.Put(quarter(i), 1), cur.Put(quarter(i), 2))
		case 2: // deleted
			err = base.Put(quarter(i), 1)
		default: // added
			err = cur.Put(quarter(i), 1)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	s := New(m)
	baseOut, err := s.Solve(Instance{"A": base})
	if err != nil {
		t.Fatal(err)
	}
	in := &Front{
		Deltas: map[string]*model.CubeDelta{"A": model.DiffCubes("A", base, cur)},
		Bases:  map[string]*model.Cube{"B": baseOut["B"].Freeze()},
	}
	_, stats, err := s.Maintain(context.Background(), Instance{"A": cur}, in)
	deltas := in.Deltas
	if err != nil {
		t.Fatal(err)
	}
	if stats.Incremental != 1 {
		t.Fatalf("B was not maintained incrementally: %+v", stats)
	}
	d := deltas["B"]
	if d == nil {
		t.Fatal("no output delta for B")
	}
	for what, ts := range map[string][]model.Tuple{"Added": d.Added, "Changed": d.Changed, "Deleted": d.Deleted} {
		if len(ts) != 4 {
			t.Errorf("%s has %d tuples, want 4", what, len(ts))
		}
		for i := 1; i < len(ts); i++ {
			if ts[i-1].Dims[0].Compare(ts[i].Dims[0]) >= 0 {
				t.Errorf("%s lists %v before %v", what, ts[i-1].Dims[0], ts[i].Dims[0])
			}
		}
	}
}

// TestFrontPublish checks each branch of the front's one rule, as a relation
// gets a new version, and that narrowing a front to one fragment keeps only
// the relations it names.
func TestFrontPublish(t *testing.T) {
	sch := model.NewSchema("B", []model.Dim{{Name: "t", Type: model.TYear}}, "v")
	year := func(y int) []model.Value { return []model.Value{model.Per(model.NewAnnual(y))} }
	cube := func(vals ...float64) *model.Cube {
		c := model.NewCube(sch)
		for i, v := range vals {
			if err := c.Put(year(2000+i), v); err != nil {
				t.Fatal(err)
			}
		}
		return c.Freeze()
	}
	base, moved := cube(1, 2), cube(1, 3)
	handed := model.DiffCubes("B", base, moved)
	empty := &model.CubeDelta{Name: "B", Base: base, Current: moved}

	for _, tc := range []struct {
		name     string
		base     *model.Cube
		out      *model.Cube
		d        *model.CubeDelta
		fullOnly bool
		delta    func(*model.CubeDelta) bool // what Deltas["B"] must be; nil for none
	}{
		{name: "no base", out: moved, fullOnly: true},
		{name: "no output", base: base, fullOnly: true},
		{name: "output is the base", base: base, out: base, d: handed}, // whatever delta is handed in
		{name: "delta handed in", base: base, out: moved, d: handed,
			delta: func(d *model.CubeDelta) bool { return d == handed }},
		{name: "nil delta diffed", base: base, out: moved,
			delta: func(d *model.CubeDelta) bool {
				return d != handed && len(d.Changed) == 1 && d.Changed[0].Measure == 3 && len(d.Added)+len(d.Deleted) == 0
			}},
		{name: "empty delta dropped", base: base, out: moved, d: empty},
	} {
		f := &Front{Bases: map[string]*model.Cube{}}
		if tc.base != nil {
			f.Bases["B"] = tc.base
		}
		f.Publish("B", tc.out, tc.d)
		if got := f.FullOnly["B"]; got != tc.fullOnly {
			t.Errorf("%s: FullOnly[B] = %v, want %v", tc.name, got, tc.fullOnly)
		}
		d, ok := f.Deltas["B"]
		if want := tc.delta != nil; ok != want || want && !tc.delta(d) {
			t.Errorf("%s: Deltas[B] = %+v (present %v), want present %v", tc.name, d, ok, want)
		}
	}

	f := &Front{
		Deltas:   map[string]*model.CubeDelta{"A": handed, "X": handed},
		FullOnly: map[string]bool{"C": true, "Y": true},
		Bases:    map[string]*model.Cube{"B": base, "Z": base},
	}
	n := f.Narrow([]string{"A", "C", "U"}, []string{"B", "V"})
	if len(n.Deltas) != 1 || n.Deltas["A"] != handed || len(n.FullOnly) != 1 || !n.FullOnly["C"] || len(n.Bases) != 1 || n.Bases["B"] != base {
		t.Errorf("narrowed to inputs A, C, U and outputs B, V: %+v, want A's delta, C full only and B's base", n)
	}
	n.Publish("B", moved, nil)
	if f.Deltas["B"] != nil || len(f.Deltas) != 2 {
		t.Error("publishing into a narrowed copy reached the front it was narrowed from")
	}
}

// TestMaintainAllocatesTheDelta: a step of four point-wise statements in a
// chain, maintained on the column path after a revision that restates 200
// measures of their source, allocates in proportion to the 200 and not to the
// tuples: each output is a patch over its previous version's column. What
// the step allocates at 20 000 and at 80 000 tuples agrees within a small
// constant, and stays under a bound per delta row. (A copy of each previous
// column would be 8 B a tuple: 640 KB at 20 000.)
func TestMaintainAllocatesTheDelta(t *testing.T) {
	const changed, perRow, spread = 200, 512, 2048
	s := New(compile(t, `
cube S(q: quarter, r: string) measure v
A := S * 2
B := A + S
C := B - A
D := C * 0.5
`))
	step := func(regions int) uint64 {
		src := qrCube("S", 80, regions, func(q, r int) float64 { return float64(q*regions+r+1) / 4 }, nil).Freeze()
		base, err := s.Solve(Instance{"S": src})
		if err != nil {
			t.Fatal(err)
		}
		rev, every := src.Clone(), src.Len()/changed
		for i, tu := range src.Tuples() {
			if i%every == 0 {
				_ = rev.Replace(tu.Dims, tu.Measure+0.5)
			}
		}
		cur := rev.Freeze()
		d := model.DiffCubes("S", src, cur)
		if len(d.Changed) != changed {
			t.Fatalf("the revision restates %d measures, want %d", len(d.Changed), changed)
		}
		least := uint64(math.MaxUint64)
		for rep := 0; rep < 4; rep++ { // the first builds the key set's index, which every later step reads
			front := &Front{Deltas: map[string]*model.CubeDelta{"S": d}, Bases: make(map[string]*model.Cube)}
			for name, c := range base {
				front.Bases[name] = c
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, stats, err := s.Maintain(context.Background(), Instance{"S": cur}, front)
			runtime.ReadMemStats(&after)
			if err != nil || stats.Incremental != 4 || stats.Full != 0 {
				t.Fatalf("maintained %d statements, recomputed %d in full: %v", stats.Incremental, stats.Full, err)
			}
			if rep > 0 {
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			for name, c := range got {
				if !c.SharesKeySet(src) {
					t.Fatalf("%s left its predecessor's key set", name)
				}
			}
			if v, _ := got["D"].Get(d.Changed[0].Dims); v != d.Changed[0].Measure/2 {
				t.Fatalf("D at %v is %v, want %v", d.Changed[0].Dims, v, d.Changed[0].Measure/2)
			}
		}
		return least
	}
	small, large := step(250), step(1000)
	t.Logf("a step allocates %d B at 20 000 tuples, %d B at 80 000", small, large)
	if large > small+spread || small > large+spread {
		t.Errorf("a step allocates %d B at 20 000 tuples and %d B at 80 000: it grows with the tuples, not the delta", small, large)
	}
	if bound := uint64(perRow * changed); max(small, large) > bound {
		t.Errorf("a step allocates %d B, past %d B a restated measure (%d B)", max(small, large), perRow, bound)
	}
}
