package model

import (
	"math"
	"slices"
	"sync"
	"testing"
)

// checkVersion holds a version to its oracle, the column an eager copy
// patched at every step gives, bit for bit: through the point reads, which
// leave a patch as it is, and, where whole, through the readers of the whole
// column. A patch restates rows in ascending order and never more than one
// in patchShare; the version stands on base's key set.
func checkVersion(t *testing.T, what string, v, base *Cube, want []float64, whole bool) {
	t.Helper()
	p := v.View()
	if !v.SharesKeySet(base) || v.Len() != len(want) || !OnlyColumns(v) {
		t.Fatalf("%s: on the base's key set %v, %d tuples (want %d), columns only %v", what, v.SharesKeySet(base), v.Len(), len(want), OnlyColumns(v))
	}
	if o := p.over.Load(); o != nil {
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
		if !ok || math.Float64bits(m) != math.Float64bits(want[i]) || math.Float64bits(p.At(i)) != math.Float64bits(want[i]) {
			t.Fatalf("%s: row %d reads %v (Get %v, %v), want %v", what, i, p.At(i), m, ok, want[i])
		}
	}
	for j, m := range p.Gather(nil, every3) {
		if math.Float64bits(m) != math.Float64bits(want[every3[j]]) {
			t.Fatalf("%s: Gather at row %d reads %v, want %v", what, every3[j], m, want[every3[j]])
		}
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
	i := 0
	_ = v.Ordered(func(tu Tuple) error {
		if math.Float64bits(tu.Measure) != math.Float64bits(want[i]) || compareDims(tu.Dims, p.Dims(i)) != 0 {
			t.Fatalf("%s: Ordered at %d reads %v, want %v", what, i, tu, want[i])
		}
		i++
		return nil
	})
}

// FuzzRestateChain: a chain of versions, each made from the one before by a
// delta that only restates measures — Apply of its tuples or Restate of its
// rows — is, version by version, what a copy of the previous column patched
// eagerly gives (checkVersion): as a patch, after its first whole read, and
// again once the chain is built, by which time later versions were made from
// it and some of them, or it, read whole; a chain that restates enough rows
// passes through a rebase. The base is left as it was. A script step is a
// header byte — bit 0 Restate, bit 1 read the version whole, bits 2–7 how
// many restatements follow — and two bytes a restatement: a row and the
// measure's bits.
func FuzzRestateChain(f *testing.F) {
	f.Add(uint8(80), []byte{4, 3, 9, 6, 7, 1})                      // one restated, then read whole
	f.Add(uint8(80), []byte{8, 1, 2, 3, 4, 9, 1, 2, 5, 5, 4, 7, 7}) // two then two, one row twice
	f.Add(uint8(7), []byte{4, 3, 9, 5, 2, 0})                       // eight tuples: a patch of one row, then past the rule
	f.Add(uint8(200), []byte{40, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10})
	f.Add(uint8(60), []byte{25, 1, 255, 9, 255, 17, 254, 33, 0, 41, 128, 6, 50, 70, 3, 4, 8, 90})
	f.Add(uint8(255), []byte{252, 0, 1, 5, 2, 10, 3, 15, 4, 20, 5, 25, 6, 30, 7, 35, 8, 40, 9, 45, 10, 50, 11, 55, 12,
		60, 13, 65, 14, 70, 15, 75, 16, 80, 17, 85, 18, 90, 19, 95, 20, 100, 21, 105, 22, 110, 23, 115, 24, 120, 25,
		125, 26, 130, 27, 135, 28, 140, 29, 145, 30, 150, 31, 155, 32, 160, 33, 165, 34, 170, 35, 175, 36, 180, 37,
		185, 38, 190, 39, 195, 40, 200, 41, 205, 42, 210, 43, 215, 44, 220, 45, 225, 46, 230, 47, 235, 48, 240, 49,
		245, 50, 250, 51, 255, 52, 3, 53, 8, 54, 13, 55, 18, 56, 23, 57, 28, 58, 33, 59, 38, 60, 43, 61, 48, 62, 53, 63, 58, 64}) // past a rebase
	f.Fuzz(func(t *testing.T, n uint8, script []byte) {
		base := asColumns(t, pdrCube(int(n)+1))
		want := slices.Clone(base.View().Measures())
		kept := slices.Clone(want)
		versions, oracles, whole := []*Cube{base}, [][]float64{want}, []bool{true}
		for len(script) > 0 {
			head := script[0]
			script = script[1:]
			restated := make(map[int]float64)
			for k := 0; k < int(head>>2) && len(script) >= 2; k++ {
				restated[int(script[0])%len(want)] = math.Float64frombits(uint64(script[1]) * 0x9E3779B97F4A7C15)
				script = script[2:]
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
			if head&1 != 0 {
				v, err = prev.Restate(rows, vals)
			} else {
				v, err = prev.Apply(nil, changed, nil)
			}
			if err != nil {
				t.Fatalf("step %d: %v", len(versions), err)
			}
			checkVersion(t, "a new version", v, base, next, head&2 != 0)
			versions, oracles, whole = append(versions, v), append(oracles, next), append(whole, head&2 != 0)
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
