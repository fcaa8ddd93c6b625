// Package ops implements the EXL operator library: tuple-level scalar
// functions, dimension functions (quarter, month, year), multi-tuple
// aggregation operators, and multi-tuple black-box operators over time
// series (seasonal decomposition, moving averages, linear trend).
//
// The package is a pure function registry: it knows nothing about cubes or
// tgds. The chase engine and every target engine evaluate operators through
// it, which is what makes the cross-engine equivalence tests meaningful. Each
// kind of operator has one body, run a column at a time or a value at a time
// over a column of one, so that both are the same machine code: a scalar
// operator is Op.Map, dst[i] = op(x[i], y[i]) over columns or constants, which
// marks the points where the result is not a finite real number as undefined,
// whether the chase hands it a statement's operand columns or Op.At one point;
// an aggregation is folded by FoldColumn, whether an engine hands it a
// column of measures and their group ordinals or, through Acc.Add, one measure
// at a time.
package ops

import (
	"fmt"
	"sort"
)

// Class partitions operators as in the paper's Section 3: tuple-level
// operators compute each result value from at most one tuple per operand;
// multi-tuple operators (aggregations and black boxes) compute result
// values from sets of tuples.
type Class uint8

// Operator classes.
const (
	ClassInvalid     Class = iota
	ClassScalar            // tuple-level, one cube operand + scalar params
	ClassVector            // tuple-level, two cube operands, matched on dimensions
	ClassShift             // tuple-level, transforms a time dimension
	ClassAggregation       // multi-tuple, group by + aggregation function
	ClassBlackBox          // multi-tuple, whole-series transformation
	ClassDimension         // scalar function on dimension values (group-by lists)
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassScalar:
		return "scalar"
	case ClassVector:
		return "vectorial"
	case ClassShift:
		return "shift"
	case ClassAggregation:
		return "aggregation"
	case ClassBlackBox:
		return "blackbox"
	case ClassDimension:
		return "dimension"
	default:
		return "invalid"
	}
}

// Info describes an operator for the EXL analyzer and the translators.
type Info struct {
	Name        string
	Class       Class
	CubeArgs    int // number of cube operands
	Params      int // number of scalar parameters (-1: variable)
	Description string
}

// Lookup returns the operator description for a name used in EXL function
// notation. The algebraic operators +, -, *, / are not listed here; the
// parser handles their syntax and the analyzer resolves them to scalar or
// vectorial applications depending on operand types.
func Lookup(name string) (Info, bool) {
	i, ok := infos[name]
	return i, ok
}

// Names returns all registered operator names, sorted.
func Names() []string {
	out := make([]string, 0, len(infos))
	for n := range infos {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

var infos = map[string]Info{
	// Tuple-level scalar functions (measure -> measure).
	"log":   {Name: "log", Class: ClassScalar, CubeArgs: 1, Params: 1, Description: "logarithm with explicit base: log(base, e)"},
	"ln":    {Name: "ln", Class: ClassScalar, CubeArgs: 1, Description: "natural logarithm"},
	"exp":   {Name: "exp", Class: ClassScalar, CubeArgs: 1, Description: "exponential"},
	"sqrt":  {Name: "sqrt", Class: ClassScalar, CubeArgs: 1, Description: "square root"},
	"abs":   {Name: "abs", Class: ClassScalar, CubeArgs: 1, Description: "absolute value"},
	"round": {Name: "round", Class: ClassScalar, CubeArgs: 1, Description: "round to nearest integer"},
	"pow":   {Name: "pow", Class: ClassScalar, CubeArgs: 1, Params: 1, Description: "power: pow(e, exponent)"},
	"sin":   {Name: "sin", Class: ClassScalar, CubeArgs: 1, Description: "sine"},
	"cos":   {Name: "cos", Class: ClassScalar, CubeArgs: 1, Description: "cosine"},

	// Tuple-level vectorial variants with default padding: the result is
	// defined on the union of the operands' dimension tuples, missing
	// values defaulting to zero (Section 3's "others assuming a default
	// value for the missing tuples").
	"vsum0": {Name: "vsum0", Class: ClassVector, CubeArgs: 2, Description: "vectorial sum, missing tuples default to 0"},
	"vsub0": {Name: "vsub0", Class: ClassVector, CubeArgs: 2, Description: "vectorial difference, missing tuples default to 0"},

	// Tuple-level dimension transform.
	"shift": {Name: "shift", Class: ClassShift, CubeArgs: 1, Params: 1, Description: "time shift: shift(e, s)(t) = e(t-s)"},

	// Multi-tuple aggregations (used with group by).
	"sum":    {Name: "sum", Class: ClassAggregation, CubeArgs: 1, Description: "sum of the bag of measures"},
	"avg":    {Name: "avg", Class: ClassAggregation, CubeArgs: 1, Description: "arithmetic mean"},
	"min":    {Name: "min", Class: ClassAggregation, CubeArgs: 1, Description: "minimum"},
	"max":    {Name: "max", Class: ClassAggregation, CubeArgs: 1, Description: "maximum"},
	"count":  {Name: "count", Class: ClassAggregation, CubeArgs: 1, Description: "number of tuples"},
	"median": {Name: "median", Class: ClassAggregation, CubeArgs: 1, Description: "median"},
	"stddev": {Name: "stddev", Class: ClassAggregation, CubeArgs: 1, Description: "population standard deviation"},
	"prod":   {Name: "prod", Class: ClassAggregation, CubeArgs: 1, Description: "product"},

	// Multi-tuple black boxes over time series.
	"stl_t":    {Name: "stl_t", Class: ClassBlackBox, CubeArgs: 1, Description: "seasonal decomposition: trend component"},
	"stl_s":    {Name: "stl_s", Class: ClassBlackBox, CubeArgs: 1, Description: "seasonal decomposition: seasonal component"},
	"stl_i":    {Name: "stl_i", Class: ClassBlackBox, CubeArgs: 1, Description: "seasonal decomposition: irregular component"},
	"movavg":   {Name: "movavg", Class: ClassBlackBox, CubeArgs: 1, Params: 1, Description: "trailing moving average: movavg(e, window)"},
	"cumsum":   {Name: "cumsum", Class: ClassBlackBox, CubeArgs: 1, Description: "cumulative sum along time"},
	"lintrend": {Name: "lintrend", Class: ClassBlackBox, CubeArgs: 1, Description: "OLS fitted linear trend"},

	// Dimension functions (usable in group-by lists and on dimension terms).
	"quarter": {Name: "quarter", Class: ClassDimension, Description: "quarter of a daily or monthly period"},
	"month":   {Name: "month", Class: ClassDimension, Description: "month of a daily period"},
	"year":    {Name: "year", Class: ClassDimension, Description: "year of any period"},
}

// ErrUnknown is the error template for unregistered operators.
func errUnknown(kind, name string) error {
	return fmt.Errorf("ops: unknown %s operator %q", kind, name)
}
