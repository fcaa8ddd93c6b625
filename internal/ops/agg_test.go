package ops

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"exlengine/internal/model"
)

func TestAggregate(t *testing.T) {
	bag := []float64{4, 1, 3, 2}
	tests := []struct {
		name string
		want float64
	}{
		{"sum", 10},
		{"avg", 2.5},
		{"min", 1},
		{"max", 4},
		{"count", 4},
		{"median", 2.5},
		{"prod", 24},
		{"stddev", math.Sqrt(1.25)},
	}
	for _, tt := range tests {
		got, err := Aggregate(tt.name, bag)
		if err != nil {
			t.Errorf("%s: %v", tt.name, err)
			continue
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("%s(%v) = %v, want %v", tt.name, bag, got, tt.want)
		}
	}
}

func TestMedianOddEven(t *testing.T) {
	if m, _ := Aggregate("median", []float64{5, 1, 9}); m != 5 {
		t.Errorf("odd median = %v", m)
	}
	if m, _ := Aggregate("median", []float64{5, 1, 9, 7}); m != 6 {
		t.Errorf("even median = %v", m)
	}
	if m, _ := Aggregate("median", []float64{42}); m != 42 {
		t.Errorf("singleton median = %v", m)
	}
}

func TestMedianDoesNotMutateBag(t *testing.T) {
	f, _ := FoldOf("median")
	var acc Acc
	var bag []float64
	for _, v := range []float64{3, 1, 2} {
		acc.Add(f, &bag, v)
	}
	_ = acc.Result(f, bag)
	acc.Add(f, &bag, 0)
	if got := acc.Result(f, bag); got != 1.5 {
		t.Errorf("median after further Add = %v, want 1.5", got)
	}
}

func TestBagSemantics(t *testing.T) {
	// Repeated elements are meaningful (multiset): avg of {2,2,8} is 4.
	if got, _ := Aggregate("avg", []float64{2, 2, 8}); got != 4 {
		t.Errorf("bag avg = %v", got)
	}
	if got, _ := Aggregate("count", []float64{2, 2, 8}); got != 3 {
		t.Errorf("bag count = %v", got)
	}
}

func TestUnknownAggregator(t *testing.T) {
	if _, err := FoldOf("mode"); err == nil {
		t.Error("unknown fold must fail")
	}
	if _, err := Aggregate("mode", []float64{1}); err == nil {
		t.Error("unknown Aggregate must fail")
	}
}

func TestIsAggregation(t *testing.T) {
	for _, n := range []string{"sum", "avg", "min", "max", "count", "median", "stddev", "prod"} {
		if !IsAggregation(n) {
			t.Errorf("IsAggregation(%s) = false", n)
		}
		if _, err := FoldOf(n); err != nil {
			t.Errorf("FoldOf(%s): %v", n, err)
		}
	}
	for _, n := range []string{"stl_t", "shift", "ln", "nosuch"} {
		if IsAggregation(n) {
			t.Errorf("IsAggregation(%s) = true", n)
		}
	}
}

func TestStddevStability(t *testing.T) {
	// Welford vs naive on values with a large common offset.
	base := 1e9
	vals := []float64{base + 1, base + 2, base + 3, base + 4}
	got, _ := Aggregate("stddev", vals)
	want := math.Sqrt(1.25)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("stddev with offset = %v, want %v", got, want)
	}
}

func TestAggregatorsQuick(t *testing.T) {
	// Properties on random bags: min <= median <= max, min <= avg <= max,
	// sum = avg*count, stddev >= 0.
	f := func(raw []float64) bool {
		var bag []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				bag = append(bag, v)
			}
		}
		if len(bag) == 0 {
			return true
		}
		mn, _ := Aggregate("min", bag)
		mx, _ := Aggregate("max", bag)
		md, _ := Aggregate("median", bag)
		av, _ := Aggregate("avg", bag)
		sm, _ := Aggregate("sum", bag)
		ct, _ := Aggregate("count", bag)
		sd, _ := Aggregate("stddev", bag)
		tol := 1e-6 * (1 + math.Abs(sm))
		return mn <= md && md <= mx && mn <= av && av <= mx &&
			math.Abs(sm-av*ct) <= tol && sd >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzFoldColumn holds the column kernel to a loop of Add over the same
// column, for every fold: ordinals drawn from up to eight groups and
// model.NoGroup, measures from raw float bits. Every group ends with the same
// count and, where it has a measure, the same Result to the bit.
func FuzzFoldColumn(f *testing.F) {
	column := func(pairs ...float64) []byte { // group, measure, group, measure, …
		var b []byte
		for i := 0; i < len(pairs); i += 2 {
			b = binary.LittleEndian.AppendUint64(append(b, byte(pairs[i])), math.Float64bits(pairs[i+1]))
		}
		return b
	}
	f.Add(uint8(1), column(0, 1e16, 0, 1, 0, -1e16, 0, 1)) // a sum the order decides
	f.Add(uint8(3), column(0, math.NaN(), 1, math.Inf(1), 3, 2, 1, math.Inf(-1), 2, math.Copysign(0, -1), 2, 0, 0, 1))
	// Two NaNs in one bag: which one's payload the sum keeps is the order of
	// the addition's operands.
	f.Add(uint8(1), column(0, math.NaN(), 0, 1, 0, math.Copysign(math.NaN(), -1), 1, math.Inf(1), 1, math.Inf(-1), 1, math.NaN()))
	f.Add(uint8(2), column(2, 5, 0, -0.5, 2, 7, 1, 3, 0, 0.25, 1, -3))
	f.Fuzz(func(t *testing.T, groups uint8, data []byte) {
		n := int(groups%8) + 1
		var ords []uint32
		var vs []float64
		for ; len(data) >= 9; data = data[9:] {
			g := uint32(data[0]) % uint32(n+1)
			if int(g) == n { // one ordinal in n+1 is no group's
				g = model.NoGroup
			}
			ords = append(ords, g)
			vs = append(vs, math.Float64frombits(binary.LittleEndian.Uint64(data[1:9])))
		}
		for fold := range Fold(len(foldNames)) {
			column, loop := make([]Acc, n), make([]Acc, n)
			var columnBags, loopBags [][]float64
			if fold.Bags() {
				columnBags, loopBags = make([][]float64, n), make([][]float64, n)
			}
			FoldColumn(fold, column, columnBags, ords, vs)
			for i, g := range ords {
				if g != model.NoGroup {
					var bag *[]float64
					if fold.Bags() {
						bag = &loopBags[g]
					}
					loop[g].Add(fold, bag, vs[i])
				}
			}
			for g := range loop {
				if column[g].N() != loop[g].N() {
					t.Fatalf("%s, group %d: the column folds %d measures, Add %d", foldNames[fold], g, column[g].N(), loop[g].N())
				}
				if loop[g].N() == 0 {
					continue
				}
				var cb, lb []float64
				if fold.Bags() {
					cb, lb = columnBags[g], loopBags[g]
				}
				if c, a := column[g].Result(fold, cb), loop[g].Result(fold, lb); math.Float64bits(c) != math.Float64bits(a) {
					t.Fatalf("%s, group %d: the column gives %v (%#x), Add %v (%#x)", foldNames[fold], g, c, math.Float64bits(c), a, math.Float64bits(a))
				}
			}
		}
	})
}

// TestEmptyBag: counting nothing gives 0; every other fold of the empty bag is
// undefined.
func TestEmptyBag(t *testing.T) {
	for fold := range Fold(len(foldNames)) {
		v, ok := fold.Empty()
		if want := foldNames[fold] == "count"; ok != want || v != 0 {
			t.Errorf("%s.Empty() = %v, %v; want 0, %v", foldNames[fold], v, ok, want)
		}
	}
}

func TestMedianEqualsSortMiddleQuick(t *testing.T) {
	f := func(raw []float64) bool {
		var bag []float64
		for _, v := range raw {
			if !math.IsNaN(v) {
				bag = append(bag, v)
			}
		}
		if len(bag) == 0 {
			return true
		}
		got, _ := Aggregate("median", bag)
		s := append([]float64(nil), bag...)
		sort.Float64s(s)
		var want float64
		if len(s)%2 == 1 {
			want = s[len(s)/2]
		} else {
			want = (s[len(s)/2-1] + s[len(s)/2]) / 2
		}
		return got == want || (math.IsNaN(got) && math.IsNaN(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
