package ops

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"exlengine/internal/model"
)

// at applies the named operator at one point: args is the measure, then the
// parameter of a binary operator.
func at(t *testing.T, name string, args ...float64) (float64, bool) {
	t.Helper()
	op, err := OpOf(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != op.Arity() {
		t.Fatalf("%s takes %d arguments, given %v", name, op.Arity(), args)
	}
	return op.At(args[0], args[len(args)-1])
}

func TestScalarArith(t *testing.T) {
	tests := []struct {
		name string
		args []float64
		want float64
	}{
		{"add", []float64{2, 3}, 5},
		{"sub", []float64{2, 3}, -1},
		{"mul", []float64{2, 3}, 6},
		{"div", []float64{6, 3}, 2},
		{"neg", []float64{2}, -2},
		{"abs", []float64{-2}, 2},
		{"round", []float64{2.6}, 3},
		{"sqrt", []float64{9}, 3},
		{"exp", []float64{0}, 1},
		{"ln", []float64{math.E}, 1},
		{"log", []float64{8, 2}, 3},
		{"pow", []float64{2, 10}, 1024},
		{"sin", []float64{0}, 0},
		{"cos", []float64{0}, 1},
	}
	for _, tt := range tests {
		got, ok := at(t, tt.name, tt.args...)
		if !ok {
			t.Errorf("%s%v: undefined", tt.name, tt.args)
			continue
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("%s%v = %v, want %v", tt.name, tt.args, got, tt.want)
		}
	}
}

func TestScalarUndefinedPoints(t *testing.T) {
	cases := []struct {
		name string
		args []float64
	}{
		{"div", []float64{1, 0}},
		{"ln", []float64{0}},
		{"ln", []float64{-1}},
		{"log", []float64{-1, 2}},
		{"log", []float64{8, 1}},  // base 1
		{"log", []float64{8, -2}}, // negative base
		{"sqrt", []float64{-1}},
		{"pow", []float64{-4, 0.5}}, // NaN
		{"exp", []float64{1000}},    // +Inf
	}
	for _, c := range cases {
		if v, ok := at(t, c.name, c.args...); ok {
			t.Errorf("%s%v = %v, want undefined", c.name, c.args, v)
		}
	}
}

func TestScalarUnknown(t *testing.T) {
	if _, err := OpOf("frobnicate"); err == nil {
		t.Error("unknown scalar must fail")
	}
	if Supports(TargetChase, "frobnicate") {
		t.Error("an unknown operator is supported")
	}
}

func TestScalarArity(t *testing.T) {
	for name, want := range map[string]int{
		"add": 2, "sub": 2, "mul": 2, "div": 2, "pow": 2, "log": 2,
		"neg": 1, "ln": 1, "exp": 1, "sqrt": 1, "abs": 1, "round": 1, "sin": 1, "cos": 1,
	} {
		op, err := OpOf(name)
		if err != nil || op.Arity() != want || op.String() != name {
			t.Errorf("OpOf(%s) = %s of arity %d, %v", name, op, op.Arity(), err)
		}
	}
}

func TestDimensionFunctions(t *testing.T) {
	day := model.Per(model.NewDaily(2001, time.August, 15))
	q, err := dimApply(t, "quarter", day)
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "2001-Q3" {
		t.Errorf("quarter = %v", q)
	}
	m, err := dimApply(t, "month", day)
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != "2001-08" {
		t.Errorf("month = %v", m)
	}
	y, err := dimApply(t, "year", day)
	if err != nil {
		t.Fatal(err)
	}
	if y.String() != "2001" {
		t.Errorf("year = %v", y)
	}
	// quarter of a non-period is an error.
	if _, err := dimApply(t, "quarter", model.Str("x")); err == nil {
		t.Error("quarter of string must fail")
	}
	// quarter of an annual period is an error (finer conversion).
	if _, err := dimApply(t, "quarter", model.Per(model.NewAnnual(2001))); err == nil {
		t.Error("quarter of annual must fail")
	}
	if _, err := Dimension("nope"); err == nil {
		t.Error("unknown dimension function must fail")
	}
}

func dimApply(t *testing.T, name string, v model.Value) (model.Value, error) {
	t.Helper()
	f, err := Dimension(name)
	if err != nil {
		t.Fatal(err)
	}
	return f.Apply(v)
}

func TestDimensionResultTypes(t *testing.T) {
	f, _ := Dimension("quarter")
	got, err := f.ResultType(model.TDay)
	if err != nil || got != model.TQuarter {
		t.Errorf("quarter(day) type = %v, %v", got, err)
	}
	if _, err := f.ResultType(model.TString); err == nil {
		t.Error("quarter of string dimension must fail at type level")
	}
	if _, err := f.ResultType(model.TYear); err == nil {
		t.Error("quarter of year dimension must fail at type level")
	}
	y, _ := Dimension("year")
	if gt, err := y.ResultType(model.TQuarter); err != nil || gt != model.TYear {
		t.Errorf("year(quarter) type = %v, %v", gt, err)
	}
}

func TestShiftValue(t *testing.T) {
	p := model.Per(model.NewQuarterly(2001, 1))
	got, err := ShiftValue(p, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "2000-Q4" {
		t.Errorf("ShiftValue period = %v", got)
	}
	if got, _ := ShiftValue(model.Int(5), 2); got.String() != "7" {
		t.Errorf("ShiftValue int = %v", got)
	}
	if got, _ := ShiftValue(model.Num(5.5), 2); got.String() != "7.5" {
		t.Errorf("ShiftValue num = %v", got)
	}
	if _, err := ShiftValue(model.Str("x"), 1); err == nil {
		t.Error("shift of string must fail")
	}
}

func TestDivMulInverseQuick(t *testing.T) {
	f := func(a, b float64) bool {
		if b == 0 || math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		q, ok := opDiv.At(a, b)
		if !ok {
			return false
		}
		p, ok := opMul.At(q, b)
		return ok && math.Abs(p-a) <= 1e-9*(1+math.Abs(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

var (
	nan     = math.NaN()
	inf     = math.Inf(1)
	negZero = math.Copysign(0, -1)
	tiny    = math.SmallestNonzeroFloat64 // the least subnormal
)

// TestScalarDomainTable pins every operator's outcome on the edge inputs: NaN
// of both signs, ±0, ±Inf, subnormals, overflow. A want of NaN is an undefined
// point — no defined result is NaN — and a defined one is compared to the bit,
// so the sign of a zero counts.
func TestScalarDomainTable(t *testing.T) {
	negNaN := math.Copysign(nan, -1)
	unary := []float64{nan, negNaN, negZero, 0, -inf, inf, tiny, -1, 1e300}
	for _, c := range []struct {
		op   string
		want []float64 // at each of unary
	}{
		{"neg", []float64{nan, nan, 0, negZero, nan, nan, -tiny, 1, -1e300}},
		{"ln", []float64{nan, nan, nan, nan, nan, nan, math.Log(tiny), nan, 690.7755278982137}},
		{"exp", []float64{nan, nan, 1, 1, 0, nan, 1, 0.36787944117144233, nan}},
		{"sqrt", []float64{nan, nan, negZero, 0, nan, nan, 2.2227587494850775e-162, nan, 1e150}},
		{"abs", []float64{nan, nan, 0, 0, nan, nan, tiny, 1, 1e300}},
		{"round", []float64{nan, nan, negZero, 0, nan, nan, 0, -1, 1e300}},
		{"sin", []float64{nan, nan, negZero, 0, nan, nan, tiny, -0.8414709848078965, -0.8178819121159087}},
		{"cos", []float64{nan, nan, 1, 1, nan, nan, 1, 0.5403023058681398, -0.5753861119575491}},
	} {
		for i, x := range unary {
			checkOutcome(t, c.op, []float64{x}, c.want[i])
		}
	}
	for _, c := range []struct {
		op         string
		x, y, want float64
	}{
		{"add", 1e308, 1e308, nan}, // overflow
		{"add", negZero, negZero, negZero},
		{"add", negZero, 0, 0},
		{"add", tiny, tiny, 2 * tiny},
		{"add", math.MaxFloat64, -math.MaxFloat64, 0},
		{"add", inf, -1, nan},
		{"add", nan, 1, nan},
		{"add", 1, negNaN, nan},
		{"sub", -1e308, 1e308, nan},
		{"sub", 0, 0, 0},
		{"sub", negZero, 0, negZero},
		{"sub", 0, negZero, 0},
		{"sub", inf, inf, nan},
		{"mul", 1e200, 1e200, nan},
		{"mul", -1e200, 1e200, nan},
		{"mul", negZero, 1, negZero},
		{"mul", 0, -1, negZero},
		{"mul", 1e-200, 1e-200, 0}, // underflow is defined
		{"mul", inf, 0, nan},
		{"div", 1, 0, nan},
		{"div", 1, negZero, nan},
		{"div", 0, 0, nan},
		{"div", 1, 1e-300, 9.999999999999999e299},
		{"div", 1e200, 1e-300, nan},
		{"div", negZero, 1, negZero},
		{"div", 0, -1, negZero},
		{"div", tiny, 2, 0},
		{"pow", 2, 10, 1024},
		{"pow", -4, 0.5, nan},
		{"pow", 0, -1, nan},
		{"pow", negZero, -1, nan},
		{"pow", 10, 400, nan},
		{"pow", nan, 0, 1}, // x⁰ is 1 for every x
		{"pow", 1, nan, 1}, // 1ʸ is 1 for every y
		{"log", 8, 2, 3},
		{"log", 1, 2, 0},
		{"log", 8, inf, 0},
		{"log", 8, 1, nan},
		{"log", 8, 0, nan},
		{"log", 8, negZero, nan},
		{"log", 8, -2, nan},
		{"log", 0, 2, nan},
		{"log", -1, 2, nan},
		{"log", nan, 2, nan},
		{"log", 8, nan, nan},
	} {
		checkOutcome(t, c.op, []float64{c.x, c.y}, c.want)
	}
}

// checkOutcome checks one point of Op.At: undefined where want is NaN, else
// want to the bit.
func checkOutcome(t *testing.T, op string, args []float64, want float64) {
	t.Helper()
	got, ok := at(t, op, args...)
	switch {
	case math.IsNaN(want):
		if ok {
			t.Errorf("%s%v = %v; want undefined", op, args, got)
		}
	case !ok || math.Float64bits(got) != math.Float64bits(want):
		t.Errorf("%s%v = %v (%#x), defined %v; want %v (%#x)", op, args, got, math.Float64bits(got), ok, want, math.Float64bits(want))
	}
}

// FuzzMapColumn holds the column kernel to a loop of Op.At, for every
// operator and every shape — column × column, column × constant, constant ×
// column, in place — over random lengths and raw float bits: the same
// Float64bits at every defined point, and exactly the undefined points marked,
// with no mask where there are none.
func FuzzMapColumn(f *testing.F) {
	column := func(pairs ...float64) []byte { // x, y, x, y, …
		var b []byte
		for _, v := range pairs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(column(1, 2, 3, 4, 5, 0.5))
	f.Add(column(math.NaN(), 1, math.Copysign(math.NaN(), -1), math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)))
	f.Add(column(1e200, 1e200, -1e200, 1e-300, math.SmallestNonzeroFloat64, 0.5, -4, 0.5, 8, 1, 0, 0))
	f.Add(column(math.MaxFloat64, -math.MaxFloat64, 2, 10, 1e-320, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		var xs, ys []float64
		for ; len(data) >= 16; data = data[16:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			ys = append(ys, math.Float64frombits(binary.LittleEndian.Uint64(data[8:])))
		}
		n := len(xs)
		if n == 0 {
			return
		}
		for op := range Op(len(opNames)) {
			shapes := []struct {
				name string
				x, y []float64
				at   func(i int) (float64, float64)
			}{
				{"column × column", xs, ys, func(i int) (float64, float64) { return xs[i], ys[i] }},
				{"column × constant", xs, ys[:1], func(i int) (float64, float64) { return xs[i], ys[0] }},
				{"constant × column", xs[:1], ys, func(i int) (float64, float64) { return xs[0], ys[i] }},
			}
			for _, s := range shapes {
				if op.Arity() == 1 && s.name != "column × column" {
					continue
				}
				dst := make([]float64, n)
				undef := op.Map(dst, s.x, s.y, nil)
				// In place: the result over the operand that is a column.
				inPlace := slices.Clone(s.x)
				inPlaceUndef := op.Map(inPlace, inPlace, s.y, nil)
				if len(s.x) < n {
					inPlace = slices.Clone(s.y)
					inPlaceUndef = op.Map(inPlace, s.x, inPlace, nil)
				}
				anyUndefined := false
				for i := range dst {
					x, y := s.at(i)
					want, ok := op.At(x, y)
					anyUndefined = anyUndefined || !ok
					for _, got := range []struct {
						form  string
						v     float64
						undef []bool
					}{{"into a column", dst[i], undef}, {"in place", inPlace[i], inPlaceUndef}} {
						marked := got.undef != nil && got.undef[i]
						if marked == ok {
							t.Fatalf("%s %s, %s, point %d (%v, %v): marked undefined %v, defined at the point %v", op, s.name, got.form, i, x, y, marked, ok)
						}
						if ok && math.Float64bits(got.v) != math.Float64bits(want) {
							t.Fatalf("%s %s, %s, point %d (%v, %v): %v (%#x), the value at a time %v (%#x)", op, s.name, got.form, i, x, y, got.v, math.Float64bits(got.v), want, math.Float64bits(want))
						}
					}
				}
				for _, u := range [][]bool{undef, inPlaceUndef} {
					if u != nil && (!anyUndefined || len(u) != n) {
						t.Fatalf("%s %s: a mask of %d over %d points, of which any undefined: %v", op, s.name, len(u), n, anyUndefined)
					}
				}
			}
		}
	})
}

// TestMapAllocatesNoMaskWhereDefined: a map with every point defined returns
// no mask and allocates nothing; the first undefined point allocates the one
// mask, and later ones mark it. At a point, an operator allocates nothing,
// defined there or not.
func TestMapAllocatesNoMaskWhereDefined(t *testing.T) {
	const n = 1000
	x, y, dst := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = float64(i+1)/100, float64(2*i+1)
	}
	for op := range Op(len(opNames)) {
		operand := y
		if op == opLog || op == opPow {
			operand = []float64{10}
		}
		var undef []bool
		if allocs := testing.AllocsPerRun(10, func() { undef = op.Map(dst, x, operand, nil) }); allocs != 0 || undef != nil {
			t.Errorf("%s: %v allocations, mask %v, with every point defined", op, allocs, undef != nil)
		}
		for _, p := range [][2]float64{{x[0], operand[0]}, {0, 0}, {-1, -2}} {
			if allocs := testing.AllocsPerRun(10, func() { op.At(p[0], p[1]) }); allocs != 0 {
				t.Errorf("%s at %v: %v allocations", op, p, allocs)
			}
		}
	}
	x[3], x[700] = 0, 0
	undef := opLog.Map(dst, x, []float64{10}, nil)
	if len(undef) != n || !undef[3] || !undef[700] || slices.Index(undef, true) != 3 || slices.Index(undef[4:], true) != 696 {
		t.Errorf("log of 0 at points 3 and 700: mask %v", slices.IndexFunc(undef, func(u bool) bool { return u }))
	}
	if again := opDiv.Map(dst, []float64{1}, x, undef); &again[0] != &undef[0] {
		t.Error("a mask passed in is not the one returned")
	}
}

// BenchmarkMapColumn maps a 20 000-point column by a constant and by a column,
// as the panel's statements do.
func BenchmarkMapColumn(b *testing.B) {
	const n = 20000
	x, y, dst := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = float64(i)/4, float64(i+1)
	}
	b.Run("column×constant", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opMul.Map(dst, x, []float64{2}, nil)
		}
	})
	b.Run("column×column", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opAdd.Map(dst, x, y, nil)
		}
	})
}
