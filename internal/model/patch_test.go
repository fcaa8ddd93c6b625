package model

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

// checkVersion holds a version to its oracle, the column an eager copy
// patched at every step gives, bit for bit: through the point reads and the
// scans in order (a Cursor over every row and over every third, Ordered),
// which leave a patch as it is, and, where whole, through Measures, which
// folds it. A patch restates rows in ascending order and never more than one
// in patchShare; the version stands on base's key set.
func checkVersion(t *testing.T, what string, v, base *Cube, want []float64, whole bool) {
	t.Helper()
	p := v.View()
	if !v.SharesKeySet(base) || v.Len() != len(want) || !OnlyColumns(v) {
		t.Fatalf("%s: on the base's key set %v, %d tuples (want %d), columns only %v", what, v.SharesKeySet(base), v.Len(), len(want), OnlyColumns(v))
	}
	o := p.over.Load()
	if o != nil {
		if len(o.rows) > len(want)/patchShare || !slices.IsSorted(o.rows) || len(slices.Compact(slices.Clone(o.rows))) != len(o.rows) {
			t.Fatalf("%s: a patch of %d rows over %d tuples, sorted %v", what, len(o.rows), len(want), slices.IsSorted(o.rows))
		}
	}
	var every3 []int
	for i := range want {
		if i%3 == 0 {
			every3 = append(every3, i)
		}
		m, ok := v.Get(p.Dims(i))
		if !ok || math.Float64bits(m) != math.Float64bits(want[i]) || math.Float64bits(p.At(i)) != math.Float64bits(want[i]) || math.Float64bits(p.Tuple(i).Measure) != math.Float64bits(want[i]) {
			t.Fatalf("%s: row %d reads %v (Get %v, %v), want %v", what, i, p.At(i), m, ok, want[i])
		}
	}
	for j, m := range p.Gather(nil, every3) {
		if math.Float64bits(m) != math.Float64bits(want[every3[j]]) {
			t.Fatalf("%s: Gather at row %d reads %v, want %v", what, every3[j], m, want[every3[j]])
		}
	}
	checkScans(t, what, v, want)
	if o != nil && p.over.Load() == nil {
		t.Fatalf("%s: a scan in order folded the patch", what)
	}
	if !whole {
		return
	}
	ms := p.Measures()
	for i := range want {
		if math.Float64bits(ms[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: its column at row %d reads %v, want %v", what, i, ms[i], want[i])
		}
	}
	if p.patched && (p.over.Load() != nil || p.col.Load() == nil) {
		t.Fatalf("%s: read whole, and still a patch", what)
	}
	checkScans(t, what+", read whole,", v, want)
}

// checkScans holds the scans of v in order — a Cursor over every row, one
// over every third that reads each twice, Ordered — to want, bit for bit.
func checkScans(t *testing.T, what string, v *Cube, want []float64) {
	t.Helper()
	p := v.View()
	all, third := p.Cursor(), p.Cursor()
	for i := range want {
		tu := all.Tuple(i)
		if math.Float64bits(tu.Measure) != math.Float64bits(want[i]) || compareDims(tu.Dims, p.Dims(i)) != 0 {
			t.Fatalf("%s: a cursor at row %d reads %v, want %v", what, i, tu, want[i])
		}
		if i%3 == 0 {
			if a, b := third.At(i), third.At(i); math.Float64bits(a) != math.Float64bits(want[i]) || math.Float64bits(b) != math.Float64bits(want[i]) {
				t.Fatalf("%s: a cursor over every third row reads %v, then %v, at row %d, want %v", what, a, b, i, want[i])
			}
		}
	}
	i := 0
	_ = v.Ordered(func(tu Tuple) error {
		if math.Float64bits(tu.Measure) != math.Float64bits(want[i]) || compareDims(tu.Dims, p.Dims(i)) != 0 {
			t.Fatalf("%s: Ordered at %d reads %v, want %v", what, i, tu, want[i])
		}
		i++
		return nil
	})
	if i != len(want) {
		t.Fatalf("%s: Ordered read %d tuples, want %d", what, i, len(want))
	}
}

// buildOn returns what a Builder that follows prev makes of prev's tuples
// under measures, adding each by Add (byKey) or by AddFollowing, and past the
// last of them, where extra, one tuple more.
func buildOn(t *testing.T, prev *Cube, measures []float64, byKey, extra bool) *Cube {
	t.Helper()
	b, p := NewBuilderOn(prev, prev.Schema()), prev.View()
	for i, m := range measures {
		if byKey {
			if err := b.Add(p.Dims(i), m); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if d, ok := b.Following(); !ok || compareDims(d, p.Dims(i)) != 0 {
			t.Fatalf("the Builder follows %v at row %d, want %v", d, i, p.Dims(i))
		}
		b.AddFollowing(m)
	}
	if extra {
		if err := b.Add([]Value{Per(NewDaily(2100, time.January, 1)), Str("R00")}, -1); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// FuzzRestateChain: a chain of versions, each made from the one before by a
// delta that only restates measures — Apply of its tuples, Restate of its
// rows, or a Builder that follows the version before, fed its tuples under
// their new measures — is, version by version, what a copy of the previous
// column patched eagerly gives (checkVersion): as a patch, after its first
// whole read, and again once the chain is built, by which time later versions
// were made from it and some of them, or it, read whole; a chain that
// restates enough rows passes through a rebase. A Builder whose arrivals stop
// following midway, a tuple short or one over, makes a version of its own
// that is the arrivals. The base is left as it was. A script step is a header
// byte — bits 0–1 how the version is made (Apply, Restate, a Builder, a
// Builder that stops following), bit 2 read it whole, bit 3 restate every row
// besides (dense), bits 4–7 how many restatements follow — and two bytes a
// restatement: a row and the measure's bits.
func FuzzRestateChain(f *testing.F) {
	f.Add(uint8(80), []byte{0x14, 3, 9, 6, 7, 1})                            // one restated, then read whole
	f.Add(uint8(80), []byte{0x20, 1, 2, 3, 4, 0x25, 1, 2, 5, 5, 0x12, 7, 7}) // two then two, one row twice, then a Builder
	f.Add(uint8(7), []byte{0x11, 3, 9, 0x15, 2, 0})                          // eight tuples: a patch of one row, then past the rule
	f.Add(uint8(200), []byte{0xa2, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10})
	f.Add(uint8(60), []byte{0x90, 1, 255, 9, 255, 17, 254, 33, 0, 41, 128, 6, 50, 70, 3, 4, 8, 90})
	f.Add(uint8(150), []byte{0x12, 5, 5, 0x0a, 0x12, 9, 9, 0x16, 0x17, 4, 4}) // a Builder: sparse, dense, sparse again, then one that stops following
	f.Add(uint8(40), []byte{0x23, 3, 3, 4, 4, 0x07, 0x1b, 1, 1})              // Builders that stop following: sparse, dense with an extra tuple
	f.Add(uint8(255), []byte{0xf1, 0, 1, 5, 2, 10, 3, 15, 4, 20, 5, 25, 6, 30, 7, 35, 8, 40, 9, 45, 10, 50, 11, 55, 12,
		60, 13, 65, 14, 70, 0xf2, 15, 75, 16, 80, 17, 85, 18, 90, 19, 95, 20, 100, 21, 105, 22, 110, 23, 115, 24, 120, 25,
		125, 26, 130, 27, 135, 28, 140, 29, 145, 0xf0, 30, 150, 31, 155, 32, 160, 33, 165, 34, 170, 35, 175, 36, 180, 37,
		185, 38, 190, 39, 195, 40, 200, 41, 205, 42, 210, 43, 215, 44, 220, 0x42, 45, 225, 46, 230, 47, 235, 48, 240, 49}) // past a rebase
	f.Fuzz(func(t *testing.T, n uint8, script []byte) {
		base := asColumns(t, pdrCube(int(n)+1))
		want := slices.Clone(base.View().Measures())
		kept := slices.Clone(want)
		versions, oracles, whole := []*Cube{base}, [][]float64{want}, []bool{true}
		for step := 0; len(script) > 0; step++ {
			head := script[0]
			script = script[1:]
			restated := make(map[int]float64)
			for k := 0; k < int(head>>4) && len(script) >= 2; k++ {
				restated[int(script[0])%len(want)] = math.Float64frombits(uint64(script[1]) * 0x9E3779B97F4A7C15)
				script = script[2:]
			}
			if head&8 != 0 {
				for r := range want {
					if _, ok := restated[r]; !ok {
						restated[r] = float64(step*len(want) + r)
					}
				}
			}
			rows := make([]int, 0, len(restated))
			for r := range restated {
				rows = append(rows, r)
			}
			slices.Sort(rows)
			prev, next := versions[len(versions)-1], slices.Clone(oracles[len(oracles)-1])
			vals, changed := make([]float64, len(rows)), make([]Tuple, len(rows))
			for j, r := range rows {
				vals[j], next[r] = restated[r], restated[r]
				changed[j] = Tuple{Dims: prev.View().Dims(r), Measure: restated[r]}
			}
			var v *Cube
			var err error
			switch head & 3 {
			case 0:
				v, err = prev.Apply(nil, changed, nil)
			case 1:
				v, err = prev.Restate(rows, vals)
			case 2:
				v = buildOn(t, prev, next, step%2 == 0, false)
			default:
				// A tuple short, or one over: a version of its own, and the
				// chain goes on from prev.
				short := step%2 == 0 && len(next) > 1
				arrivals, got := next, slices.Clone(next)
				if short {
					arrivals, got = next[:len(next)-1], got[:len(next)-1]
				} else {
					got = append(got, -1)
				}
				other := buildOn(t, prev, arrivals, step%4 < 2, !short)
				if other.SharesKeySet(prev) || other.Len() != len(got) {
					t.Fatalf("step %d: a Builder that stopped following made %d tuples (want %d), on its predecessor's key set %v", step, other.Len(), len(got), other.SharesKeySet(prev))
				}
				checkScans(t, "a Builder that stopped following", other, got)
				for i, m := range other.View().Measures() {
					if math.Float64bits(m) != math.Float64bits(got[i]) {
						t.Fatalf("step %d: a Builder that stopped following reads %v at row %d, want %v", step, m, i, got[i])
					}
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: %v", len(versions), err)
			}
			checkVersion(t, "a new version", v, base, next, head&4 != 0)
			versions, oracles, whole = append(versions, v), append(oracles, next), append(whole, head&4 != 0)
		}
		for k, v := range versions {
			checkVersion(t, "at the chain's end, a version", v, base, oracles[k], !whole[k])
		}
		checkVersion(t, "the base", base, base, kept, true)
	})
}

// TestRestateMisfits: rows out of order, named twice, past the version's end
// or not as many as the measures are refused, with nothing built; no row
// restated is the version itself, on its column.
func TestRestateMisfits(t *testing.T) {
	base := pdrCube(40).Freeze()
	for _, rows := range [][]int{{3, 2}, {4, 4}, {-1}, {40}} {
		if v, err := base.Restate(rows, make([]float64, len(rows))); err == nil || v != nil {
			t.Errorf("Restate of rows %v: %v, %v", rows, v, err)
		}
	}
	if _, err := base.Restate([]int{1, 2}, []float64{1}); err == nil {
		t.Error("Restate of two rows to one measure")
	}
	v, err := base.Restate(nil, nil)
	if err != nil || v.View() != base.View() {
		t.Errorf("Restate of no row: %v, on the base's view %v", err, v != nil && v.View() == base.View())
	}
}

// TestPatchedVersionReadConcurrently: goroutines read one patched version at
// once — by point, by its first whole read, and by making successors from it
// — while others read the version it is a patch over (run under -race). Every
// reader sees the one content, the whole reads one column, and each
// successor is a patch.
func TestPatchedVersionReadConcurrently(t *testing.T) {
	const n, readers = 8000, 8
	base := pdrCube(n).Freeze()
	want := slices.Clone(base.View().Measures())
	var rows []int
	for i := 5; i < n; i += 97 {
		rows = append(rows, i)
	}
	vals := make([]float64, len(rows))
	for j, r := range rows {
		vals[j] = -float64(r)
		want[r] = vals[j]
	}
	v, err := base.Restate(rows, vals)
	if err != nil || v.View().over.Load() == nil {
		t.Fatalf("Restate: %v; a patch %v", err, err == nil && v.View().over.Load() != nil)
	}
	columns := make([][]float64, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := v.View()
			switch g % 4 {
			case 0:
				for i := g; i < n; i += 13 {
					if m, ok := v.Get(p.Dims(i)); !ok || m != want[i] || p.At(i) != want[i] {
						t.Errorf("row %d reads %v, want %v", i, m, want[i])
						return
					}
				}
			case 1:
				columns[g] = p.Measures()
				i := 0
				_ = v.Ordered(func(tu Tuple) error {
					if tu.Measure != want[i] {
						t.Errorf("Ordered at %d reads %v, want %v", i, tu.Measure, want[i])
					}
					i++
					return nil
				})
			case 2:
				next, err := v.Restate([]int{g}, []float64{float64(g)})
				if err != nil || next.View().over.Load() == nil || next.View().At(g) != float64(g) || next.View().At(rows[0]) != vals[0] {
					t.Errorf("a successor made while the version is read: %v", err)
				}
			default:
				if got := base.View().Gather(nil, rows); got[0] != 5 || got[len(got)-1] != float64(rows[len(rows)-1]) {
					t.Errorf("the base reads %v at the restated rows", got)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < readers; g += 4 {
		if &columns[g][0] != &columns[1][0] {
			t.Fatal("two first whole reads hold two columns")
		}
	}
	if p := v.View(); p.over.Load() != nil {
		t.Fatal("the version, read whole, still holds its patch")
	}
}

// TestMemEstimateChargesAPatchItsRows: a version that is a patch is charged
// its key set, its patch's header and 12 B a restated row, not the column
// under it, which is charged to the version that owns it; among others on its
// key set, only the patch. Once read whole it is charged the column it holds.
func TestMemEstimateChargesAPatchItsRows(t *testing.T) {
	const n, restated = 8000, 100
	base := pdrCube(n).Freeze()
	rows, vals := make([]int, restated), make([]float64, restated)
	for j := range rows {
		rows[j], vals[j] = 3+j*(n/restated), -float64(j)
	}
	v, err := base.Restate(rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	keys, patch := base.View().keys.memEstimate(), patchHeaderBytes+12*restated
	if got, want := base.MemEstimate(), tupleOverheadBytes+keys+8*n; got != want {
		t.Errorf("the base is charged %d B, want %d", got, want)
	}
	if got, want := v.MemEstimate(), tupleOverheadBytes+keys+patch; got != want {
		t.Errorf("a patch of %d rows is charged %d B, want %d", restated, got, want)
	}
	if got, want := MemEstimateOf(map[string]*Cube{"B": base, "V": v}), 2*tupleOverheadBytes+keys+8*n+patch; got != want {
		t.Errorf("the base and its patch are charged %d B together, want %d", got, want)
	}
	v.View().Measures()
	if got, want := v.MemEstimate(), base.MemEstimate(); got != want {
		t.Errorf("the version read whole is charged %d B, want its column's %d", got, want)
	}
}

// TestBuilderPatchReadConcurrently: goroutines read one version a following
// Builder made as a patch — through cursors and Ordered, which leave it a
// patch, and by its first whole read, which folds it — while others make its
// successors with following Builders, pooled scratch and all (run under
// -race). Every reader sees the one content and every successor its own.
func TestBuilderPatchReadConcurrently(t *testing.T) {
	const n, readers = 8000, 8
	base := pdrCube(n).Freeze()
	want := slices.Clone(base.View().Measures())
	for i := 5; i < n; i += 97 {
		want[i] = -float64(i)
	}
	v := buildOn(t, base, want, false, false)
	if k, ok := v.View().Patched(); !ok || k != len(want)/97+1 {
		t.Fatalf("the Builder made a patch %v of %d rows", ok, k)
	}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := v.View()
			switch g % 4 {
			case 0:
				cur := p.Cursor()
				for i := g; i < n; i += 7 {
					if m := cur.Tuple(i).Measure; m != want[i] {
						t.Errorf("a cursor at row %d reads %v, want %v", i, m, want[i])
						return
					}
				}
			case 1:
				i := 0
				_ = v.Ordered(func(tu Tuple) error {
					if tu.Measure != want[i] {
						t.Errorf("Ordered at %d reads %v, want %v", i, tu.Measure, want[i])
					}
					i++
					return nil
				})
			case 2:
				next := slices.Clone(want)
				next[g] = 0.5
				succ := buildOn(t, v, next, g%8 == 2, false)
				if k, ok := succ.View().Patched(); !ok || succ.View().At(g) != 0.5 || succ.View().At(5) != want[5] {
					t.Errorf("a successor made while the version is read: a patch %v of %d rows", ok, k)
				}
			default:
				if ms := p.Measures(); ms[5] != want[5] || ms[n-1] != want[n-1] {
					t.Errorf("the first whole read reads %v and %v", ms[5], ms[n-1])
				}
			}
		}(g)
	}
	wg.Wait()
}
