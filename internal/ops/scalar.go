package ops

import (
	"fmt"
	"math"

	"exlengine/internal/model"
)

// ScalarFunc is a tuple-level function on measures. args[0] is the measure;
// any scalar parameters follow (e.g. the base for log). A scalar function
// is undefined (ok=false semantics expressed as an error) on inputs where
// the mathematical operator is meaningless, per the paper: the result cube
// simply has no tuple there.
type ScalarFunc func(args ...float64) (float64, error)

// ErrUndefined marks points where a scalar operator is undefined (division
// by zero, log of a non-positive number). Engines drop the corresponding
// result tuple rather than failing the whole program.
type ErrUndefinedT struct{ Op string }

// Error implements error.
func (e ErrUndefinedT) Error() string { return "ops: " + e.Op + " undefined on input" }

// ErrUndefined reports whether err marks an undefined-point condition.
func ErrUndefined(err error) bool {
	_, ok := err.(ErrUndefinedT)
	return ok
}

var scalarFuncs = map[string]ScalarFunc{
	"add": func(a ...float64) (float64, error) { return a[0] + a[1], nil },
	"sub": func(a ...float64) (float64, error) { return a[0] - a[1], nil },
	"mul": func(a ...float64) (float64, error) { return a[0] * a[1], nil },
	"div": func(a ...float64) (float64, error) {
		if a[1] == 0 {
			return 0, ErrUndefinedT{Op: "div"}
		}
		return a[0] / a[1], nil
	},
	"neg": func(a ...float64) (float64, error) { return -a[0], nil },
	"log": func(a ...float64) (float64, error) {
		base, x := a[1], a[0]
		if x <= 0 || base <= 0 || base == 1 {
			return 0, ErrUndefinedT{Op: "log"}
		}
		return math.Log(x) / math.Log(base), nil
	},
	"ln": func(a ...float64) (float64, error) {
		if a[0] <= 0 {
			return 0, ErrUndefinedT{Op: "ln"}
		}
		return math.Log(a[0]), nil
	},
	"exp": func(a ...float64) (float64, error) { return finite("exp", math.Exp(a[0])) },
	"sqrt": func(a ...float64) (float64, error) {
		if a[0] < 0 {
			return 0, ErrUndefinedT{Op: "sqrt"}
		}
		return math.Sqrt(a[0]), nil
	},
	"abs":   func(a ...float64) (float64, error) { return math.Abs(a[0]), nil },
	"round": func(a ...float64) (float64, error) { return math.Round(a[0]), nil },
	"pow":   func(a ...float64) (float64, error) { return finite("pow", math.Pow(a[0], a[1])) },
	"sin":   func(a ...float64) (float64, error) { return math.Sin(a[0]), nil },
	"cos":   func(a ...float64) (float64, error) { return math.Cos(a[0]), nil },
}

// finite is the result v of op where it is a real number; where it is not —
// a negative base under a fractional exponent, an overflow — the operator is
// undefined, like the root and the logarithms outside their domains.
func finite(op string, v float64) (float64, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, ErrUndefinedT{Op: op}
	}
	return v, nil
}

// Scalar returns the named scalar function ("add", "sub", "mul", "div",
// "neg", "log", "ln", …).
func Scalar(name string) (ScalarFunc, error) {
	f, ok := scalarFuncs[name]
	if !ok {
		return nil, errUnknown("scalar", name)
	}
	return f, nil
}

// ScalarArity returns the number of arguments of a scalar function
// (measure included).
func ScalarArity(name string) (int, error) {
	switch name {
	case "add", "sub", "mul", "div", "pow", "log":
		return 2, nil
	case "neg", "ln", "exp", "sqrt", "abs", "round", "sin", "cos":
		return 1, nil
	default:
		return 0, errUnknown("scalar", name)
	}
}

// DimFunc is a scalar function on dimension values, usable in group-by
// lists and on lhs dimension terms (the quarter(t) of tgd (1)).
type DimFunc struct {
	// Apply maps a dimension value to the transformed value.
	Apply func(model.Value) (model.Value, error)
	// ResultType gives the dimension type of the result given the input
	// dimension type.
	ResultType func(model.DimType) (model.DimType, error)
}

var dimFuncs = map[string]DimFunc{
	"quarter": {
		Apply:      periodConvert(model.Quarterly),
		ResultType: periodResultType(model.Quarterly),
	},
	"month": {
		Apply:      periodConvert(model.Monthly),
		ResultType: periodResultType(model.Monthly),
	},
	"year": {
		Apply:      periodConvert(model.Annual),
		ResultType: periodResultType(model.Annual),
	},
}

// Dimension returns the named dimension function.
func Dimension(name string) (DimFunc, error) {
	f, ok := dimFuncs[name]
	if !ok {
		return DimFunc{}, errUnknown("dimension", name)
	}
	return f, nil
}

func periodConvert(to model.Frequency) func(model.Value) (model.Value, error) {
	return func(v model.Value) (model.Value, error) {
		p, ok := v.AsPeriod()
		if !ok {
			return model.Value{}, fmt.Errorf("ops: %s applied to non-period value %v", to, v)
		}
		q, err := p.Convert(to)
		if err != nil {
			return model.Value{}, err
		}
		return model.Per(q), nil
	}
}

func periodResultType(to model.Frequency) func(model.DimType) (model.DimType, error) {
	return func(t model.DimType) (model.DimType, error) {
		if !t.IsTime() {
			return model.DimType{}, fmt.Errorf("ops: frequency conversion needs a time dimension, got %s", t)
		}
		if t.Freq != model.FreqInvalid && t.Freq > to {
			return model.DimType{}, fmt.Errorf("ops: cannot convert %s dimension to finer frequency %s", t, to)
		}
		return model.DimType{Kind: model.DimPeriod, Freq: to}, nil
	}
}

// ShiftValue shifts a time dimension value by s steps; it is the dimension
// arithmetic behind the EXL shift operator and behind fused lhs terms such
// as q-1.
func ShiftValue(v model.Value, s int64) (model.Value, error) {
	switch v.Kind() {
	case model.KindPeriod:
		p, _ := v.AsPeriod()
		return model.Per(p.Shift(s)), nil
	case model.KindInt:
		i, _ := v.AsInt()
		return model.Int(i + s), nil
	case model.KindNumber:
		f, _ := v.AsNumber()
		return model.Num(f + float64(s)), nil
	default:
		return model.Value{}, fmt.Errorf("ops: shift applied to non-shiftable value %v", v)
	}
}
