package model

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// compareDims is the comparison order the cube's byte-key order must
// reproduce: dimension by dimension, Value.Compare.
func compareDims(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// byCompare returns the cube's tuples ordered by a comparison sort on
// compareDims, taken from its base and its edits as no reader under test
// takes them. Keys are distinct, so that order is unique.
func byCompare(c *Cube) []Tuple {
	var ts []Tuple
	if c.base != nil {
		for i, k := range c.base.keys.tuples {
			if _, edited := c.edits[k.key]; !edited {
				ts = append(ts, c.base.Tuple(i))
			}
		}
	}
	for _, e := range c.edits {
		if !e.gone {
			ts = append(ts, e.Tuple)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return compareDims(ts[i].Dims, ts[j].Dims) < 0 })
	return ts
}

func sameTuples(t *testing.T, what string, got, want []Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if compareDims(got[i].Dims, want[i].Dims) != 0 || got[i].Measure != want[i].Measure {
			t.Fatalf("%s: position %d is %v -> %v, want %v -> %v", what, i,
				got[i].Dims, got[i].Measure, want[i].Dims, want[i].Measure)
		}
	}
}

// dimGens draw one dimension value each; together they cover the edges
// of every key encoding.
var dimGens = map[string]func(*rand.Rand) Value{
	"number": func(r *rand.Rand) Value {
		switch r.Intn(8) {
		case 0:
			return Num(math.Copysign(0, -1))
		case 1:
			return Num(0)
		case 2:
			return Int(3)
		case 3:
			return Num(3.0)
		case 4:
			return Num(math.Inf(1 - 2*r.Intn(2)))
		case 5:
			return Int(-r.Int63())
		case 6:
			return Int(r.Int63())
		default:
			return Num(r.NormFloat64() * 1e3)
		}
	},
	"int": func(r *rand.Rand) Value { return Int(int64(r.Intn(1<<20)) - 1<<19) },
	"string": func(r *rand.Rand) Value {
		alphabet := []string{"", "a", "ab", "\x00", "a\x00", "a\x00b", "\x01", "\xff", "b"}
		s := ""
		for n := r.Intn(5); n > 0; n-- {
			s += alphabet[r.Intn(len(alphabet))]
		}
		return Str(s)
	},
	"period": func(r *rand.Rand) Value {
		switch r.Intn(4) {
		case 0:
			return Per(NewDaily(1990+r.Intn(40), time.Month(1+r.Intn(12)), 1+r.Intn(28)))
		case 1:
			return Per(NewMonthly(r.Intn(4000)-1000, time.Month(1+r.Intn(12))))
		case 2:
			return Per(NewQuarterly(1990+r.Intn(40), 1+r.Intn(4)))
		default:
			return Per(NewAnnual(r.Intn(4000) - 1000))
		}
	},
	// Mostly escaped NULs, and keys past a one-byte uvarint length.
	"nuls": func(r *rand.Rand) Value {
		return Str(strings.Repeat("\x00", 4+60*r.Intn(2)+r.Intn(4)) + fmt.Sprint(r.Intn(5000)))
	},
	"const": func(*rand.Rand) Value { return Str("same") },
}

func randomCube(r *rand.Rand, n int, gens ...string) *Cube {
	dims := make([]Dim, len(gens))
	for i := range dims {
		dims[i] = Dim{Name: fmt.Sprintf("d%d", i), Type: TString}
	}
	c := NewCube(NewSchema("C", dims, "m"))
	row := make([]Value, len(gens))
	for tries := 0; c.Len() < n && tries < 100*n+100; tries++ {
		for i, g := range gens {
			row[i] = dimGens[g](r)
		}
		_ = c.Replace(row, float64(c.Len()))
	}
	return c
}

// checkTupleKeys: the keys of two equal-width tuples without NaN order
// as compareDims does, and are equal exactly when every value is Equal.
func checkTupleKeys(t testing.TB, a, b []Value) {
	t.Helper()
	ka, kb := EncodeKey(a), EncodeKey(b)
	if got, want := strings.Compare(ka, kb), compareDims(a, b); got != want {
		t.Fatalf("keys of %v and %v compare as %d, compareDims = %d", a, b, got, want)
	}
	equal := true
	for i := range a {
		equal = equal && a[i].Equal(b[i])
	}
	if (ka == kb) != equal {
		t.Fatalf("keys of %v and %v equal: %v, values Equal: %v", a, b, ka == kb, equal)
	}
}

// TestOrderMatchesCompareDims: on randomized cubes the radix order is
// the compareDims order, at sizes on both sides of the small-bucket
// threshold and of a 16-bit count; and so is the key order of any two
// random tuples of a shape, which unlike a cube's may be Equal.
func TestOrderMatchesCompareDims(t *testing.T) {
	shapes := [][]string{
		{"number"}, {"int"}, {"string"}, {"period"},
		{"string", "string"}, {"period", "string"}, {"number", "period"},
		{"const", "const", "int"}, {"const", "string", "number"}, {"nuls"}, {"nuls", "int"},
	}
	r := rand.New(rand.NewSource(12))
	for _, n := range []int{0, 1, radixMin - 1, radixMin, radixMin + 1, 1000} {
		for _, gens := range shapes {
			c := randomCube(r, n, gens...)
			want := byCompare(c)
			name := fmt.Sprintf("%v/%d", gens, c.Len())
			sameTuples(t, name, c.Tuples(), want)

			var wide []dimTuple
			var ts []Tuple
			size := 0
			for k, e := range c.edits { // a new cube's edits are all its tuples
				wide, ts, size = append(wide, dimTuple{e.Dims, k}), append(ts, e.Tuple), size+len(k)
			}
			sortByKeysWith[uint64](size, wide, ts)
			sameTuples(t, name+"/uint64", ts, want)
		}
	}
	for _, gens := range shapes {
		a, b := make([]Value, len(gens)), make([]Value, len(gens))
		for n := 0; n < 2000; n++ {
			for i, g := range gens {
				a[i], b[i] = dimGens[g](r), dimGens[g](r)
				if r.Intn(2) == 0 { // a shared prefix, so that later dimensions decide
					b[i] = a[i]
				}
			}
			checkTupleKeys(t, a, b)
		}
	}
	big := randomCube(r, 70000, "const", "int", "string")
	if big.Len() <= 1<<16 {
		t.Fatalf("big cube has only %d tuples", big.Len())
	}
	sameTuples(t, "big", big.Tuples(), byCompare(big))
}

// TestOrderPinsNaN: Compare does not order NaN, the byte order does.
func TestOrderPinsNaN(t *testing.T) {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	c := NewCube(NewSchema("C", []Dim{{Name: "x", Type: TInt}}, "m"))
	for i, f := range []float64{math.NaN(), 0, math.Inf(1), negNaN, math.Inf(-1)} {
		if err := c.Replace([]Value{Num(f)}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []float64
	_ = c.Ordered(func(tu Tuple) error { got = append(got, tu.Measure); return nil })
	want := []float64{3, 4, 1, 2, 0} // -NaN, -Inf, 0, +Inf, NaN
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("order of measures = %v, want %v", got, want)
	}
}

// fuzzValue builds one valid value from fuzzer-chosen parts.
func fuzzValue(kind uint8, f float64, i int64, s string) Value {
	switch kind % 5 {
	case 0:
		return Num(f)
	case 1:
		return Int(i)
	case 2:
		return Str(s)
	case 3:
		return Per(Period{Freq: Daily + Frequency(uint64(i)%4), Ord: i >> 2})
	default:
		return Bool(i%2 != 0)
	}
}

// FuzzOrderedKey: for any two valid values the sign of bytes.Compare of
// their ordered keys is Value.Compare, except for NaN, which Compare
// leaves unordered and the keys pin outside the infinities; and the
// tuples built from the two values pass checkTupleKeys.
func FuzzOrderedKey(f *testing.F) {
	f.Add(uint8(0), 3.0, int64(0), "", uint8(1), 0.0, int64(3), "")
	f.Add(uint8(0), math.Copysign(0, -1), int64(0), "", uint8(0), 0.0, int64(0), "")
	f.Add(uint8(1), 0.0, int64(math.MinInt64), "", uint8(1), 0.0, int64(math.MaxInt64), "")
	f.Add(uint8(2), 0.0, int64(0), "a\x00", uint8(2), 0.0, int64(0), "a\x00\x00b")
	f.Add(uint8(2), 0.0, int64(0), "", uint8(2), 0.0, int64(0), "\x00")
	f.Add(uint8(3), 0.0, int64(11000<<2), "", uint8(3), 0.0, int64(-5<<2|2), "")
	f.Add(uint8(0), math.NaN(), int64(0), "", uint8(0), math.Inf(1), int64(0), "")
	f.Add(uint8(4), 0.0, int64(1), "", uint8(2), 0.0, int64(0), "x")
	f.Fuzz(func(t *testing.T, ka uint8, fa float64, ia int64, sa string, kb uint8, fb float64, ib int64, sb string) {
		a, b := fuzzValue(ka, fa, ia, sa), fuzzValue(kb, fb, ib, sb)
		keyA, keyB := AppendOrderedKey(nil, a), AppendOrderedKey(nil, b)
		got := bytes.Compare(keyA, keyB)
		na, aNum := a.AsNumber()
		nb, bNum := b.AsNumber()
		if aNum && bNum && (math.IsNaN(na) || math.IsNaN(nb)) {
			rank := func(f float64) int { // NaN by its sign bit, numbers in between
				switch {
				case !math.IsNaN(f):
					return 0
				case math.Signbit(f):
					return -1
				}
				return 1
			}
			if ra, rb := rank(na), rank(nb); ra != rb && (got < 0) != (ra < rb) {
				t.Fatalf("keys order %v vs %v as %d", a, b, got)
			}
			return
		}
		if want := a.Compare(b); got != want {
			t.Fatalf("bytes.Compare of keys of %v and %v = %d, Compare = %d", a, b, got, want)
		}
		checkTupleKeys(t, []Value{a}, []Value{b})
		checkTupleKeys(t, []Value{a, a}, []Value{a, b})
		checkTupleKeys(t, []Value{a, b}, []Value{b, a})
		checkTupleKeys(t, []Value{b, a, b}, []Value{b, a, a})
	})
}

// pdrCube builds a cube shaped like the GDP example's PDR(d: day, r:
// string): n tuples over 20 regions.
func pdrCube(n int) *Cube {
	c := NewCube(NewSchema("PDR", []Dim{{Name: "d", Type: TDay}, {Name: "r", Type: TString}}, "p"))
	start := NewDaily(2000, time.January, 1)
	for i := 0; i < n; i++ {
		dims := []Value{Per(start.Shift(int64(i / 20))), Str(fmt.Sprintf("R%02d", i%20))}
		if err := c.Put(dims, float64(i)); err != nil {
			panic(err)
		}
	}
	return c
}

// TestConcurrentFirstScan: many goroutines take the first ordered scan of
// one cube nobody mutates at once (run under -race) — a frozen cube is born
// with its order, so the one left to race for is a mutable cube's; all see
// the one order.
func TestConcurrentFirstScan(t *testing.T) {
	c := pdrCube(5000)
	want := byCompare(c)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(copying bool) {
			defer wg.Done()
			var got []Tuple
			if copying {
				got = c.Tuples()
			} else {
				_ = c.Ordered(func(tu Tuple) error { got = append(got, tu); return nil })
			}
			if len(got) != len(want) {
				t.Errorf("scan saw %d tuples, want %d", len(got), len(want))
				return
			}
			for i := range want {
				if compareDims(got[i].Dims, want[i].Dims) != 0 {
					t.Errorf("scan differs from the order at %d", i)
					return
				}
			}
		}(g%2 == 0)
	}
	wg.Wait()
}

// TestSharedOrderNotWritable: neither the callback's tuple nor the
// slice Tuples returns reaches the order the next reader sees.
func TestSharedOrderNotWritable(t *testing.T) {
	c := pdrCube(100).Freeze()
	want := byCompare(c)
	_ = c.Ordered(func(tu Tuple) error {
		tu.Measure = -1
		tu.Dims = nil
		return nil
	})
	ts := c.Tuples()
	for i := range ts {
		ts[i] = Tuple{}
	}
	var got []Tuple
	_ = c.Ordered(func(tu Tuple) error { got = append(got, tu); return nil })
	sameTuples(t, "after writes", got, want)
}

// allocated returns the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFirstScanAllocBudget: the first ordered scan of a PDR-shaped cube
// built by Put — its edits over the empty version, sorted — leaves its column
// form behind: a Dims header (24 B), a row-key header (16 B) and a measure
// (8 B) per tuple, 48 B where the order alone, as tuples, was 32: the key
// headers are what lets a revision probe its way onto this version's key set
// instead of being sorted again, and the measures stand apart so that it adds
// a column of its own and nothing else. The sort's scratch is the keys back
// to back (17 B) and one reference each (12 B): 80 B/tuple allocated in all,
// 48 of them retained. Later scans allocate nothing per tuple.
func TestFirstScanAllocBudget(t *testing.T) {
	const n = 50000
	c := pdrCube(n)
	scan := func() { _ = c.Ordered(func(Tuple) error { return nil }) }
	if per := float64(allocated(scan)) / n; per > 80 {
		t.Errorf("first ordered scan allocates %.1f B/tuple, budget 80", per)
	}
	if per := float64(allocated(scan)) / n; per > 1 {
		t.Errorf("repeated ordered scan allocates %.1f B/tuple, want none", per)
	}
	fresh := pdrCube(n) // a Clone of c would stand on c's fold, and have nothing to sort
	kept, _ := liveBytes(func() any { _ = fresh.Ordered(func(Tuple) error { return nil }); return fresh })
	if per := float64(kept) / n; per > 49 {
		t.Errorf("first ordered scan retains %.1f B/tuple, budget 48", per)
	}
	runtime.KeepAlive(fresh)
}

var sinkLen int

func BenchmarkCubeFirstSort(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := pdrCube(200000) // a cube built by Put has no fold yet; a Clone would share one
		b.StartTimer()
		_ = c.Ordered(func(Tuple) error { sinkLen++; return nil })
	}
}

// BenchmarkCloneEditSnapshot: a 1 % revision as a client makes one — Clone a
// 200k-tuple version, Replace 2 000 of its measures, Snapshot — which costs
// the edits and a measure column, and no copy or sort of the version.
func BenchmarkCloneEditSnapshot(b *testing.B) {
	base := pdrCube(200000).Freeze()
	tuples := base.Tuples()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := base.Clone()
		for j := i % 100; j < len(tuples); j += 100 {
			if err := c.Replace(tuples[j].Dims, float64(-i-j)); err != nil {
				b.Fatal(err)
			}
		}
		sinkCube = c.Snapshot()
	}
}
