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

	"exlengine/internal/model"
	"exlengine/internal/ops"
)

// Frame is a data frame: named columns over rows (R's data.frame, Matlab's
// matrix with column metadata), held as an ETL stream holds them: a Layout,
// and one batch of every row. A frame is never written to once it is bound:
// a step binds a new one, which shares what it did not change.
type Frame struct {
	*Layout
	rows *Batch
}

// FromCube returns the frame of a cube's version, whose columns are the
// dimension names followed by the measure name, with a row per tuple in the
// cube's deterministic order, referring to it.
func FromCube(c *model.Cube) *Frame {
	sch := c.Schema()
	names := append(sch.DimNames(), sch.Measure)
	l, _ := Source(c, names, names, nil) // every name is one of c's columns
	f := &Frame{Layout: l, rows: NewBatch(c.Len(), l)}
	_ = l.Scan(-1, model.Value{}, f.rows) // nothing shifts, and a batch takes every row
	return f
}

// ToCube builds the frame's rows into a frozen cube under the given schema,
// as the revision of prev, the cube's previous version (nil when there is
// none): rows that are prev's dimension tuples, all of them in that order,
// become a version on prev's key set (model.NewBuilderOn). The frame
// must contain the schema's dimension and measure columns (by name, any
// order). Rows with invalid (NA) values are dropped, matching the
// partial-function semantics of cubes.
func (f *Frame) ToCube(prev *model.Cube, sch model.Schema) (*model.Cube, error) {
	o, err := NewOutput(f.Layout, append(sch.DimNames(), sch.Measure), prev, sch)
	if err == nil {
		err = o.Add(f.rows)
	}
	var c *model.Cube
	if err == nil {
		c, err = o.Build()
	}
	if err != nil {
		return nil, fmt.Errorf("frame: %w", err)
	}
	return c, nil
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
