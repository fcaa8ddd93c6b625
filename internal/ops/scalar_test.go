package ops

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"exlengine/internal/model"
)

func mustScalar(t *testing.T, name string) ScalarFunc {
	t.Helper()
	f, err := Scalar(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
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
		got, err := mustScalar(t, tt.name)(tt.args...)
		if err != nil {
			t.Errorf("%s%v: %v", tt.name, tt.args, err)
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
		_, err := mustScalar(t, c.name)(c.args...)
		if err == nil || !ErrUndefined(err) {
			t.Errorf("%s%v: want undefined-point error, got %v", c.name, c.args, err)
		}
	}
}

func TestScalarUnknown(t *testing.T) {
	if _, err := Scalar("frobnicate"); err == nil {
		t.Error("unknown scalar must fail")
	}
	if _, err := ScalarArity("frobnicate"); err == nil {
		t.Error("unknown arity must fail")
	}
}

func TestScalarArity(t *testing.T) {
	for name, want := range map[string]int{
		"add": 2, "sub": 2, "mul": 2, "div": 2, "pow": 2, "log": 2,
		"neg": 1, "ln": 1, "exp": 1, "sqrt": 1, "abs": 1, "round": 1, "sin": 1, "cos": 1,
	} {
		got, err := ScalarArity(name)
		if err != nil || got != want {
			t.Errorf("ScalarArity(%s) = %d, %v", name, got, err)
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
	div := mustScalar(t, "div")
	mul := mustScalar(t, "mul")
	f := func(a, b float64) bool {
		if b == 0 || math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		q, err := div(a, b)
		if err != nil {
			return false
		}
		p, err := mul(q, b)
		if err != nil {
			return false
		}
		return math.Abs(p-a) <= 1e-9*(1+math.Abs(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
