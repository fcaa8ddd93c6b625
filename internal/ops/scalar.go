package ops

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"exlengine/internal/model"
)

// Op is a scalar operator resolved from its name, once, where a plan is
// compiled or an expression bound: the one definition of the fourteen
// operators every engine computes a measure with.
type Op uint8

// The scalar operators, in the order of opNames; the binary ones first.
const (
	opAdd Op = iota
	opSub
	opMul
	opDiv
	opPow
	opLog
	opNeg
	opLn
	opExp
	opSqrt
	opAbs
	opRound
	opSin
	opCos
)

var opNames = [...]string{"add", "sub", "mul", "div", "pow", "log", "neg", "ln", "exp", "sqrt", "abs", "round", "sin", "cos"}

// OpOf resolves the named scalar operator ("add", "sub", "mul", "div",
// "neg", "log", "ln", …).
func OpOf(name string) (Op, error) {
	if i := slices.Index(opNames[:], name); i >= 0 {
		return Op(i), nil
	}
	return 0, errUnknown("scalar", name)
}

// String returns the operator's name.
func (op Op) String() string { return opNames[op] }

// Arity returns the number of arguments of the operator, measure included.
func (op Op) Arity() int {
	if op <= opLog {
		return 2
	}
	return 1
}

// Map computes dst[i] = op(x[i], y[i]) at every point i of dst — op(x[i])
// for a unary operator, which ignores y. An operand is a column, holding
// len(dst) values, or a constant: a column of one, standing at every point.
// dst may be one of the operands.
//
// An operator is undefined exactly where its result is not a finite real
// number: division by zero, an overflow, the logarithms and the root outside
// their domains, a negative base under a fractional exponent (log's base
// must also be positive). undef marks the undefined points of dst: nil, or
// len(dst) long, it is returned with the points this map found undefined
// added, and allocated here at the first of them — a map that meets none
// allocates nothing. What dst holds at an undefined point is unspecified.
//
// Map is the one body of every scalar operator: At is Map over columns of
// one, so a point computed a column at a time and one computed a value at a
// time are the same to the bit, −0 included.
func (op Op) Map(dst, x, y []float64, undef []bool) []bool {
	n := len(dst)
	// i&mx is i on a column and 0 on a constant.
	mx, my := stride(x, n), stride(y, n)
	switch op {
	case opAdd:
		for i := range dst {
			dst[i] = x[i&mx] + y[i&my]
		}
	case opSub:
		for i := range dst {
			dst[i] = x[i&mx] - y[i&my]
		}
	case opMul:
		for i := range dst {
			dst[i] = x[i&mx] * y[i&my]
		}
	case opDiv:
		for i := range dst {
			dst[i] = x[i&mx] / y[i&my]
		}
	case opPow:
		for i := range dst {
			dst[i] = math.Pow(x[i&mx], y[i&my])
		}
	case opLog:
		for i := range dst {
			if base := y[i&my]; base > 0 {
				dst[i] = math.Log(x[i&mx]) / math.Log(base)
			} else {
				dst[i] = math.NaN()
			}
		}
	case opNeg:
		for i := range dst {
			dst[i] = -x[i&mx]
		}
	case opLn:
		for i := range dst {
			dst[i] = math.Log(x[i&mx])
		}
	case opExp:
		for i := range dst {
			dst[i] = math.Exp(x[i&mx])
		}
	case opSqrt:
		for i := range dst {
			dst[i] = math.Sqrt(x[i&mx])
		}
	case opAbs:
		for i := range dst {
			dst[i] = math.Abs(x[i&mx])
		}
	case opRound:
		for i := range dst {
			dst[i] = math.Round(x[i&mx])
		}
	case opSin:
		for i := range dst {
			dst[i] = math.Sin(x[i&mx])
		}
	case opCos:
		for i := range dst {
			dst[i] = math.Cos(x[i&mx])
		}
	}
	for i, v := range dst {
		if !(math.Abs(v) <= math.MaxFloat64) { // NaN or ±Inf
			if undef == nil {
				undef = make([]bool, n)
			}
			undef[i] = true
		}
	}
	return undef
}

// stride is the index mask of an operand of a map over n points: all ones on
// a column, zero on a constant (or an operand a unary operator ignores).
func stride(x []float64, n int) int {
	if len(x) == n {
		return -1
	}
	return 0
}

// At is the operator at one point, op(x, y) — op(x) for a unary operator,
// which ignores y: Map over columns of one. ok is false where the operator is
// undefined. It allocates nothing, at an undefined point neither.
func (op Op) At(x, y float64) (v float64, ok bool) {
	var undef [1]bool
	op.Map(unsafe.Slice(&v, 1), unsafe.Slice(&x, 1), unsafe.Slice(&y, 1), undef[:])
	return v, !undef[0]
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
