// Package frame implements the matrix-oriented execution target standing
// in for R and Matlab (Section 5.2). Schema mappings are translated into a
// small data-frame program IR — merges on dimension columns, element-wise
// column arithmetic, group aggregation and whole-series statistical calls —
// which this package executes directly and which internal/rgen and
// internal/matlabgen print as R and Matlab source text.
//
// Executing the IR (rather than only printing foreign code) is what makes
// the R/Matlab translation testable: the same program that is rendered as
// `merge(PQR, RGDPPC, by=c("q","r"))` runs here and is compared against the
// chase solution.
package frame

import (
	"fmt"
	"slices"
	"sort"

	"exlengine/internal/model"
	"exlengine/internal/ops"
)

// Frame is a data frame: named columns over rows of dynamically typed
// values (R's data.frame, Matlab's matrix with column metadata).
type Frame struct {
	Cols []string
	Rows [][]model.Value
}

// NewFrame returns an empty frame with the given columns.
func NewFrame(cols ...string) *Frame {
	return &Frame{Cols: append([]string(nil), cols...)}
}

// ColIndex returns the position of the named column, or -1.
func (f *Frame) ColIndex(name string) int {
	for i, c := range f.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Clone deep-copies the frame.
func (f *Frame) Clone() *Frame {
	out := &Frame{Cols: append([]string(nil), f.Cols...)}
	out.Rows = make([][]model.Value, len(f.Rows))
	for i, r := range f.Rows {
		out.Rows[i] = append([]model.Value(nil), r...)
	}
	return out
}

// FromCube converts a cube into a frame whose columns are the dimension
// names followed by the measure name, with the rows in the cube's
// deterministic order.
func FromCube(c *model.Cube) *Frame {
	sch := c.Schema()
	cols := append([]string(nil), sch.DimNames()...)
	cols = append(cols, sch.Measure)
	// One backing array holds every row; each row is a full-capacity
	// window of it, so appending to a row cannot reach its neighbour.
	w := len(cols)
	backing := make([]model.Value, c.Len()*w)
	rows := make([][]model.Value, 0, c.Len())
	_ = c.Ordered(func(tu model.Tuple) error {
		lo := len(rows) * w
		row := backing[lo : lo+w : lo+w]
		copy(row, tu.Dims)
		row[w-1] = model.Num(tu.Measure)
		rows = append(rows, row)
		return nil
	})
	return &Frame{Cols: cols, Rows: rows}
}

// ToCube converts a frame back into a frozen cube under the given schema, as
// the revision of prev, the cube's previous version (nil when there is none):
// rows that are prev's dimension tuples, all of them in that order, become a
// measure column on prev's key set (model.NewBuilderOn). The frame must
// contain the schema's dimension and measure columns (by name, any order).
// Rows with invalid (NA) values are dropped, matching the partial-function
// semantics of cubes.
func (f *Frame) ToCube(prev *model.Cube, sch model.Schema) (*model.Cube, error) {
	idx := make([]int, 0, len(sch.Dims))
	for _, d := range sch.Dims {
		j := f.ColIndex(d.Name)
		if j < 0 {
			return nil, fmt.Errorf("frame: missing dimension column %s", d.Name)
		}
		idx = append(idx, j)
	}
	mj := f.ColIndex(sch.Measure)
	if mj < 0 {
		return nil, fmt.Errorf("frame: missing measure column %s", sch.Measure)
	}
	b := model.NewBuilderOn(prev, sch)
	dims := make([]model.Value, len(idx))
	for _, row := range f.Rows {
		for i, j := range idx {
			dims[i] = row[j]
		}
		if err := b.AddRow(dims, row[mj]); err != nil {
			return nil, fmt.Errorf("frame: %w", err)
		}
	}
	c, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("frame: %w", err)
	}
	return c, nil
}

// Sort orders the rows by all columns left to right (deterministic output
// for tests and printing).
func (f *Frame) Sort() {
	sort.Slice(f.Rows, func(i, j int) bool {
		for k := range f.Cols {
			if c := f.Rows[i][k].Compare(f.Rows[j][k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// Expr is a row-wise column expression (the element-wise arithmetic of
// Section 5.2: tmp$i <- tmp$p * tmp$g).
type Expr interface{ exprNode() }

// Col references a column of the current frame.
type Col struct{ Name string }

// Const is a numeric constant.
type Const struct{ V float64 }

// Apply applies a scalar operator from the ops registry to argument
// expressions, with trailing scalar parameters.
type Apply struct {
	Op     string
	Args   []Expr
	Params []float64
}

// PShift shifts a period (or integer) value by N steps.
type PShift struct {
	X Expr
	N int64
}

// DimApply applies a dimension function (quarter, month, year).
type DimApply struct {
	Fn string
	X  Expr
}

func (Col) exprNode()      {}
func (Const) exprNode()    {}
func (Apply) exprNode()    {}
func (PShift) exprNode()   {}
func (DimApply) exprNode() {}

// RowFunc evaluates a bound expression on one row. An invalid Value with nil
// error is NA (an undefined operator point).
type RowFunc func(row []model.Value) (model.Value, error)

// Bind resolves the expression against rows laid out as cols, once: every
// column to its position, every operator and dimension function to its
// function. An unknown column, operator or dimension function is an error
// here, before any row is read, and so is an operator given as many arguments
// as it does not take; a type error, such as arithmetic over a string, is an
// error at the row. NA propagates.
func Bind(e Expr, cols []string) (RowFunc, error) {
	switch e := e.(type) {
	case Col:
		j := slices.Index(cols, e.Name)
		if j < 0 {
			return nil, fmt.Errorf("frame: unknown column %s", e.Name)
		}
		return func(row []model.Value) (model.Value, error) { return row[j], nil }, nil
	case Const:
		v := model.Num(e.V)
		return func([]model.Value) (model.Value, error) { return v, nil }, nil
	case PShift:
		x, err := Bind(e.X, cols)
		if err != nil {
			return nil, err
		}
		return func(row []model.Value) (model.Value, error) {
			v, err := x(row)
			if err != nil || !v.IsValid() {
				return v, err
			}
			return ops.ShiftValue(v, e.N)
		}, nil
	case DimApply:
		fn, err := ops.Dimension(e.Fn)
		if err != nil {
			return nil, err
		}
		x, err := Bind(e.X, cols)
		if err != nil {
			return nil, err
		}
		return func(row []model.Value) (model.Value, error) {
			v, err := x(row)
			if err != nil || !v.IsValid() {
				return v, err
			}
			return fn.Apply(v)
		}, nil
	case Apply:
		op, err := ops.OpOf(e.Op)
		if err != nil {
			return nil, err
		}
		if n := len(e.Args) + len(e.Params); n != op.Arity() || len(e.Args) == 0 {
			return nil, fmt.Errorf("frame: %s takes %d argument(s), given %d and %d parameter(s)", e.Op, op.Arity(), len(e.Args), len(e.Params))
		}
		args := make([]RowFunc, len(e.Args))
		for i, a := range e.Args {
			if args[i], err = Bind(a, cols); err != nil {
				return nil, err
			}
		}
		return func(row []model.Value) (model.Value, error) {
			// The operands, then the parameter.
			var in [2]float64
			copy(in[len(args):], e.Params)
			for i, a := range args {
				v, err := a(row)
				if err != nil || !v.IsValid() {
					return v, err
				}
				x, ok := v.AsNumber()
				if !ok {
					return model.Value{}, fmt.Errorf("frame: %s over non-numeric %v", e.Op, v)
				}
				in[i] = x
			}
			out, ok := op.At(in[0], in[1])
			if !ok {
				return model.Value{}, nil // NA
			}
			return model.Num(out), nil
		}, nil
	default:
		return nil, fmt.Errorf("frame: unsupported expression %T", e)
	}
}
