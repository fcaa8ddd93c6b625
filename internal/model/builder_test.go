package model

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// fuzzPredecessor returns the version a Builder under sch follows in
// FuzzBuilder, a frozen cube made from ts, tuples in cube order: nothing; the
// same dimension tuples under other measures; the first half of them; all of
// them and more; all of them but for one in the middle, whose key is another;
// the same under another schema; the same under other measures, Cloned and
// edited by script (runScript) before it is frozen. Its numbers are of the
// other kind than ts's (Int 3 for Num 3.0): one key, and Dims that show whose
// they are.
func fuzzPredecessor(t *testing.T, pick uint8, sch Schema, ts []Tuple, script []byte) *Cube {
	prev := NewCube(sch)
	put := func(x Value, s string, m float64) {
		if i, isInt := x.AsInt(); isInt && x.Kind() == KindNumber {
			x = Int(i)
		} else if isInt {
			x = Num(float64(i))
		}
		if err := prev.Replace([]Value{x, Str(s)}, m); err != nil {
			panic(err)
		}
	}
	switch pick % 7 {
	case 0:
		return nil
	case 2:
		ts = ts[:len(ts)/2]
	case 3:
		put(Int(-1), "a", 1)
		put(Int(1000), "z", 2)
	case 4:
		if len(ts) > 0 {
			mid := ts[len(ts)/2].Dims
			ts = append(ts[:len(ts)/2:len(ts)/2], ts[len(ts)/2+1:]...)
			put(mid[0], mid[1].str+"\x00", 3)
		}
	case 5:
		prev = NewCube(sch.Rename("D"))
	}
	for _, tu := range ts {
		put(tu.Dims[0], tu.Dims[1].str, -tu.Measure-1)
	}
	if pick%7 == 6 {
		edited, oracle := prev.Freeze().Clone(), rowsOf(prev)
		dims := func(i byte) []Value { return []Value{Num(float64(i / 3)), Str(string(rune('a' + i%3)))} }
		runScript(t, edited, oracle, dims, script)
		sameAsOracle(t, edited, oracle)
		prev = edited
	}
	return prev.Freeze()
}

// FuzzBuilder: tuples arrive in any order, some more than once — with the
// same measure, one within Eps of it, or another — and with dimension values
// that differ in kind (Int 3, Num 3.0) where they encode to one key, at a
// Builder that follows the predecessor pick chooses (fuzzPredecessor). What
// Build returns is what a loop of Put over the same arrivals leaves in the row
// map kept here as the oracle, and in a new cube, which answers as the oracle
// does: the same tuples bit for bit, in cube order; or the same error, to the
// letter. The arrivals that were the predecessor's first tuples, in its order,
// stand on the predecessor's Dims, every other tuple on its first arrival's;
// the version is on the predecessor's key set exactly when they were all of
// its tuples and nothing else arrived; and the predecessor is left as it was.
func FuzzBuilder(f *testing.F) {
	for pick := uint8(0); pick < 7; pick++ {
		f.Add([]byte{}, pick)
		f.Add([]byte{0, 0, 1, 1, 0, 2, 2, 0, 3, 4, 0, 4, 5, 0, 5}, pick) // in order
		f.Add([]byte{2, 0, 3, 1, 0, 2, 0, 0, 1}, pick)                   // reversed
		f.Add([]byte{1, 0, 2, 1, 0, 2}, pick)                            // a repeat, same measure
		f.Add([]byte{1, 0, 2, 1, 4, 2, 0, 0, 7}, pick)                   // a repeat within Eps, then a lower key
		f.Add([]byte{5, 0, 2, 4, 0, 1, 4, 8, 1, 5, 8, 2}, pick)          // two conflicts: the earlier arrival is named
		f.Add([]byte{0, 0, 1, 1, 0, 2, 2, 0, 3, 1, 8, 2}, pick)          // a conflict with a tuple that was followed
		f.Add([]byte{3, 1, 9, 3, 2, 9, 3, 3, 9}, pick)                   // Int 3 and Num 3.0 are one tuple
		f.Add([]byte{7, 0, 255, 7, 0, 255}, pick)                        // NaN is not itself
	}
	f.Fuzz(func(t *testing.T, script []byte, pick uint8) {
		sch := NewSchema("C", []Dim{{Name: "x", Type: TInt}, {Name: "s", Type: TString}}, "m")
		type arrival struct {
			at   int
			dims []Value
			m    float64
		}
		var arrivals []arrival
		oracle, loop := rowMap{}, NewCube(sch)
		var want error
		edits := script
		for ; len(script) >= 3; script = script[3:] {
			at, how, m := int(script[0]), script[1], float64(script[2])
			x := Int(int64(at / 3))
			if how&1 != 0 {
				x = Num(float64(at / 3))
			}
			switch {
			case script[2] == 255:
				m = math.NaN()
			case how&4 != 0:
				m += 1e-12
			case how&8 != 0:
				m++
			}
			dims := []Value{x, Str(string(rune('a' + at%3)))}
			if want == nil {
				want = oracle.put(sch.Name, dims, m)
				if err := loop.Put(dims, m); (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
					t.Fatalf("Put: %v, want %v", err, want)
				}
			}
			arrivals = append(arrivals, arrival{at, dims, m})
		}
		sameAsOracle(t, loop, oracle)

		prev := fuzzPredecessor(t, pick, sch, oracle.sorted(), edits)
		var prevTuples []Tuple
		if prev != nil {
			prevTuples = prev.Tuples()
		}
		b := NewBuilderOn(prev, sch)
		inOrder, last := true, -1
		followed := 0 // the arrivals that were prev's first tuples
		for i, a := range arrivals {
			if err := b.Add(a.dims, a.m); err != nil {
				t.Fatal(err)
			}
			inOrder, last = inOrder && a.at > last, a.at
			if b.InOrder() != inOrder {
				t.Fatalf("InOrder = %v after %d, want %v", b.InOrder(), a.at, inOrder)
			}
			if followed == i && i < len(prevTuples) && prev.schema.Equal(sch) && EncodeKey(a.dims) == EncodeKey(prevTuples[i].Dims) {
				followed++
			}
		}
		got, err := b.Build()
		if prev != nil {
			for i, tu := range prev.Tuples() {
				if &tu.Dims[0] != &prevTuples[i].Dims[0] || compareDims(tu.Dims, prevTuples[i].Dims) != 0 || math.Float64bits(tu.Measure) != math.Float64bits(prevTuples[i].Measure) {
					t.Fatalf("the predecessor's tuple %d is now %v", i, tu)
				}
			}
		}
		if want != nil {
			if got != nil || err == nil || err.Error() != want.Error() || !errors.Is(err, ErrFunctional) {
				t.Fatalf("Build: %v, %v\nwant: %v", got, err, want)
			}
			return
		}
		if err != nil || !OnlyColumns(got) || got.Len() != len(oracle) {
			t.Fatalf("Build: %v; %d tuples, want %d", err, got.Len(), len(oracle))
		}
		if !got.Equal(loop, 0) || !loop.Equal(got, 0) {
			t.Fatalf("built cube differs from the Put loop's: %v", got.Diff(loop, 0, 3))
		}
		ts := got.Tuples()
		sameTuplesBits(t, ts, oracle.sorted())
		if all := prev != nil && prev.schema.Equal(sch) && followed == len(arrivals) && followed == len(prevTuples); prev != nil && got.SharesKeySet(prev) != all {
			t.Fatalf("on the predecessor's key set: %v; followed %d of %d arrivals through %d tuples", got.SharesKeySet(prev), followed, len(arrivals), len(prevTuples))
		}
		theirs := make(map[string]*Value)
		for _, tu := range prevTuples[:followed] {
			theirs[EncodeKey(tu.Dims)] = &tu.Dims[0]
		}
		for _, tu := range ts {
			k := EncodeKey(tu.Dims)
			if p := theirs[k]; p != nil && p != &tu.Dims[0] {
				t.Fatalf("%v was followed and is not on the predecessor's Dims", tu.Dims)
			} else if first := oracle[k]; p == nil && first.Dims[0].Kind() != tu.Dims[0].Kind() {
				t.Fatalf("%v is not the first arrival's Dims (%v)", tu.Dims, first.Dims[0].Kind())
			}
		}
	})
}

// pdrRows returns a PDR-shaped cube's tuples in cube order.
func pdrRows(n int) []Tuple { return pdrCube(n).Tuples() }

func buildFrom(ts []Tuple, build bool) *Cube {
	b := NewBuilder(pdrCube(0).Schema())
	for _, tu := range ts {
		if err := b.Add(tu.Dims, tu.Measure); err != nil {
			panic(err)
		}
	}
	if !build {
		return nil
	}
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// TestBuilderInOrderNeedsNoSort: tuples that arrive in cube order are
// appended and that is all — Build allocates the cube's shells and its two
// columns, never the sort's arena, references and arrival numbers; one swap
// and it does.
func TestBuilderInOrderNeedsNoSort(t *testing.T) {
	ts := pdrRows(5000)
	buildAllocs := func(ts []Tuple) float64 {
		return testing.AllocsPerRun(5, func() { buildFrom(ts, true) }) - testing.AllocsPerRun(5, func() { buildFrom(ts, false) })
	}
	inOrder := buildAllocs(ts)
	if inOrder > 6 {
		t.Errorf("Build of in-order tuples makes %v allocations, want at most 6", inOrder)
	}
	swapped := append([]Tuple(nil), ts...)
	swapped[100], swapped[4000] = swapped[4000], swapped[100]
	if got := buildAllocs(swapped); got < inOrder+2 {
		t.Errorf("Build of out-of-order tuples makes %v allocations, %v in order: where is the sort's scratch?", got, inOrder)
	}
	if c := buildFrom(swapped, true); !c.Equal(buildFrom(ts, true), 0) {
		t.Error("the swap changed the cube")
	}
}

// TestFollowingBuilderPaysForOneForm: a Builder that follows a predecessor of
// n tuples allocates a patch where few measures move — 200 restated, and the
// list it kept them in, well under a column — and where every measure moves
// one column and the few rows it kept before it switched to it (and the
// column's rounding to whole pages): never a patch and a column both.
func TestFollowingBuilderPaysForOneForm(t *testing.T) {
	const n = 40000
	prev := asColumns(t, pdrCube(n))
	spent := func(measure func(i int, m float64) float64) (uint64, *Cube) {
		var c *Cube
		least := uint64(math.MaxUint64)
		for rep := 0; rep < 3; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b, p := NewBuilderOn(prev, prev.Schema()), prev.View()
			for i := range n {
				b.Following()
				b.AddFollowing(measure(i, p.At(i)))
			}
			c, _ = b.Build()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least, c
	}
	sparse, c := spent(func(i int, m float64) float64 {
		if i%200 == 0 {
			return m + 1
		}
		return m
	})
	if k, ok := c.View().Patched(); !ok || k != n/200 || sparse > 16*1024 {
		t.Errorf("200 measures restated: a patch %v of %d rows, %d B allocated", ok, k, sparse)
	}
	dense, c := spent(func(_ int, m float64) float64 { return m + 1 })
	t.Logf("a following Builder over %d tuples allocates %d B for 200 restated, %d B for all", n, sparse, dense)
	if _, ok := c.View().Patched(); ok || dense > 8*n+16*1024 {
		t.Errorf("every measure restated: a patch %v, %d B allocated, want a column of %d B and a chunk", ok, dense, 8*n)
	}
}

// TestBuilderArity: Add checks what Put checks.
func TestBuilderArity(t *testing.T) {
	b := NewBuilder(rgdpSchema())
	if err := b.Add([]Value{Str("north")}, 1); err == nil {
		t.Error("wrong arity Add must fail")
	}
	if err := b.AddRow([]Value{Str("north")}, Num(1)); err == nil {
		t.Error("wrong arity AddRow must fail")
	}
}

// TestBuilderAddRow: a row with a NULL anywhere is no tuple, a measure that
// is no number an error — one rule for the SQL, frame and ETL results.
func TestBuilderAddRow(t *testing.T) {
	sch := NewSchema("S", []Dim{{Name: "k", Type: TString}}, "v")
	b := NewBuilder(sch)
	for _, row := range [][2]Value{
		{Str("a"), Num(1)},
		{Str("b"), {}}, // NULL measure
		{{}, Num(3)},   // NULL dim
		{Str("c"), Int(4)},
	} {
		if err := b.AddRow(row[:1], row[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddRow([]Value{Str("d")}, Str("four")); err == nil {
		t.Error("a string for a measure must fail")
	}
	c, err := b.Build()
	if err != nil || c.Len() != 2 {
		t.Fatalf("cube has %d tuples (%v), want 2: NULL rows dropped", c.Len(), err)
	}
	if m, ok := c.Get([]Value{Str("c")}); !ok || m != 4 {
		t.Errorf("c -> %v, %v", m, ok)
	}
}

var sinkCube *Cube

func benchBuilder(b *testing.B, ts []Tuple) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCube = buildFrom(ts, true)
	}
}

func BenchmarkBuilderInOrder(b *testing.B) { benchBuilder(b, pdrRows(200000)) }

func BenchmarkBuilderShuffled(b *testing.B) {
	ts := pdrRows(200000)
	rand.New(rand.NewSource(1)).Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	benchBuilder(b, ts)
}

// BenchmarkApplyInsert appends one period for every region to a 200k-tuple
// panel: what a time series that grows costs per step.
func BenchmarkApplyInsert(b *testing.B) {
	base := pdrCube(200000).Freeze()
	day := NewDaily(2000, 1, 1).Shift(200000 / 20)
	added := make([]Tuple, 20)
	for r := range added {
		added[r] = Tuple{Dims: []Value{Per(day), Str(string([]byte{'R', byte('0' + r/10), byte('0' + r%10)}))}, Measure: float64(r)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if sinkCube, err = base.Apply(added, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	runtime.KeepAlive(base)
}
