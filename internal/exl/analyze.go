package exl

import (
	"fmt"
	"math"
	"sort"

	"exlengine/internal/model"
	"exlengine/internal/ops"
)

// AKind classifies typed expression nodes.
type AKind uint8

// Typed expression node kinds.
const (
	AConst      AKind = iota // numeric constant
	ACube                    // cube literal
	ABinary                  // algebraic operator over two operands (at least one cube)
	AScalarFunc              // scalar function over one cube operand
	AShift                   // time shift
	AAgg                     // aggregation with group-by
	ABlackBox                // whole-series black box
	APadVector               // vectorial operator padding missing tuples with a default
)

// AExpr is a type-checked EXL expression. Every node that yields a cube
// carries the inferred result schema (dimension names, types and order).
type AExpr struct {
	Kind   AKind
	At     Position
	Schema model.Schema // result schema; meaningless for AConst

	Val  float64 // AConst
	Cube string  // ACube: referenced cube name

	Op   string // ABinary: add/sub/mul/div; AScalarFunc: ln, log, …; AAgg: sum, …; ABlackBox: stl_t, …
	X, Y *AExpr // ABinary operands; either side may be AConst, not both
	Arg  *AExpr // operand for AScalarFunc, AShift, AAgg, ABlackBox

	Params   []float64 // folded scalar parameters, in ops-registry order
	GroupBy  []AGroup  // AAgg
	ShiftBy  int64     // AShift
	ShiftDim int       // AShift: index of the shifted dimension in Arg's schema
}

// AGroup is a resolved group-by item.
type AGroup struct {
	DimIndex int    // index of the source dimension in the operand schema
	Func     string // dimension function name, or "" for a plain dimension
	Name     string // result dimension name
	Type     model.DimType
}

// AStmt is a type-checked statement.
type AStmt struct {
	At     Position
	Lhs    string
	Schema model.Schema // schema of the derived cube
	Expr   *AExpr
}

// Analyzed is the result of semantic analysis of a program: the full cube
// catalog (declared elementary + inferred derived), the
// elementary/derived partitioning, and the typed statements in source
// order. Acyclicity holds by construction: a statement may reference only
// elementary cubes and cubes derived by earlier statements.
type Analyzed struct {
	Program    *Program
	Schemas    map[string]model.Schema
	Elementary []string // sorted
	Derived    []string // statement order
	Stmts      []*AStmt
}

// IsElementary reports whether name is an elementary (base) cube.
func (a *Analyzed) IsElementary(name string) bool {
	for _, e := range a.Elementary {
		if e == name {
			return true
		}
	}
	return false
}

// StatementFor returns the typed statement defining the derived cube, or
// nil for elementary/unknown cubes.
func (a *Analyzed) StatementFor(name string) *AStmt {
	for _, s := range a.Stmts {
		if s.Lhs == name {
			return s
		}
	}
	return nil
}

// Analyze type-checks a parsed program. external supplies schemas of
// elementary cubes declared outside the source text (the engine's metadata
// catalog); in-source `cube` declarations are added to it. Every cube
// referenced by an expression must be elementary or derived by an earlier
// statement; each derived cube must be defined exactly once.
func Analyze(prog *Program, external map[string]model.Schema) (*Analyzed, error) {
	a := &Analyzed{Program: prog, Schemas: make(map[string]model.Schema)}
	for name, s := range external {
		s.Name = name
		a.Schemas[name] = s
		a.Elementary = append(a.Elementary, name)
	}
	for _, d := range prog.Decls {
		if _, dup := a.Schemas[d.Name]; dup {
			return nil, errorf(d.Pos, "cube %s declared more than once", d.Name)
		}
		sch, err := declSchema(d)
		if err != nil {
			return nil, err
		}
		a.Schemas[d.Name] = sch
		a.Elementary = append(a.Elementary, d.Name)
	}
	sort.Strings(a.Elementary)

	for _, s := range prog.Stmts {
		if _, dup := a.Schemas[s.Lhs]; dup {
			return nil, errorf(s.Pos, "cube %s must not appear as lhs more than once", s.Lhs)
		}
		ae, err := a.analyzeExpr(s.Rhs)
		if err != nil {
			return nil, err
		}
		if ae.Kind == AConst {
			return nil, errorf(s.Pos, "statement %s defines a constant, not a cube", s.Lhs)
		}
		sch := ae.Schema.Rename(s.Lhs)
		// The derived measure keeps the name of the leftmost operand's
		// measure (the paper's GDP keeps RGDP's g), defaulting to "value".
		if mn := leftmostMeasure(ae, a.Schemas); mn != "" {
			sch.Measure = mn
		}
		a.Schemas[s.Lhs] = sch
		a.Derived = append(a.Derived, s.Lhs)
		a.Stmts = append(a.Stmts, &AStmt{At: s.Pos, Lhs: s.Lhs, Schema: sch, Expr: ae})
	}
	return a, nil
}

// leftmostMeasure returns the measure name of the leftmost cube literal in
// the expression, or "" if there is none.
func leftmostMeasure(e *AExpr, schemas map[string]model.Schema) string {
	switch e.Kind {
	case ACube:
		return schemas[e.Cube].Measure
	case ABinary, APadVector:
		if m := leftmostMeasure(e.X, schemas); m != "" {
			return m
		}
		return leftmostMeasure(e.Y, schemas)
	case AScalarFunc, AShift, AAgg, ABlackBox:
		return leftmostMeasure(e.Arg, schemas)
	default:
		return ""
	}
}

func declSchema(d *CubeDecl) (model.Schema, error) {
	dims := make([]model.Dim, 0, len(d.Dims))
	seen := make(map[string]bool)
	for _, dd := range d.Dims {
		if seen[dd.Name] {
			return model.Schema{}, errorf(dd.Pos, "duplicate dimension %s in cube %s", dd.Name, d.Name)
		}
		seen[dd.Name] = true
		t, err := model.ParseDimType(dd.Type)
		if err != nil {
			return model.Schema{}, errorf(dd.Pos, "dimension %s: %v", dd.Name, err)
		}
		dims = append(dims, model.Dim{Name: dd.Name, Type: t})
	}
	return model.NewSchema(d.Name, dims, d.Measure), nil
}

func (a *Analyzed) analyzeExpr(e Expr) (*AExpr, error) {
	switch e := e.(type) {
	case *NumberLit:
		return &AExpr{Kind: AConst, At: e.At, Val: e.Value}, nil
	case *Ident:
		sch, ok := a.Schemas[e.Name]
		if !ok {
			return nil, errorf(e.At, "unknown cube %s (not elementary, not derived by an earlier statement)", e.Name)
		}
		return &AExpr{Kind: ACube, At: e.At, Cube: e.Name, Schema: sch}, nil
	case *UnaryExpr:
		x, err := a.analyzeExpr(e.X)
		if err != nil {
			return nil, err
		}
		if x.Kind == AConst {
			return fold(e.At, "neg", x.Val, x.Val)
		}
		return &AExpr{Kind: AScalarFunc, At: e.At, Op: "neg", Arg: x, Schema: x.Schema}, nil
	case *BinaryExpr:
		return a.analyzeBinary(e)
	case *Call:
		return a.analyzeCall(e)
	default:
		return nil, errorf(e.Pos(), "unsupported expression form %T", e)
	}
}

// fold computes the scalar operator op at constant operands: op(x, y), or
// op(x) for a unary one.
func fold(at Position, op string, x, y float64) (*AExpr, error) {
	f, err := ops.OpOf(op)
	if err != nil {
		return nil, errorf(at, "%v", err)
	}
	v, ok := f.At(x, y)
	if !ok {
		return nil, errorf(at, "constant expression is undefined: %s undefined on input", op)
	}
	return &AExpr{Kind: AConst, At: at, Val: v}, nil
}

var binOps = map[string]string{"+": "add", "-": "sub", "*": "mul", "/": "div"}

func (a *Analyzed) analyzeBinary(e *BinaryExpr) (*AExpr, error) {
	x, err := a.analyzeExpr(e.X)
	if err != nil {
		return nil, err
	}
	y, err := a.analyzeExpr(e.Y)
	if err != nil {
		return nil, err
	}
	op := binOps[e.Op]
	if x.Kind == AConst && y.Kind == AConst {
		return fold(e.At, op, x.Val, y.Val)
	}
	if op == "div" && y.Kind == AConst && y.Val == 0 {
		return nil, errorf(e.At, "division by the constant zero is everywhere undefined")
	}
	var sch model.Schema
	switch {
	case x.Kind == AConst:
		sch = y.Schema
	case y.Kind == AConst:
		sch = x.Schema
	default:
		// Vectorial: operands join on dimension names. Equal dimension
		// sets give the paper's basic vectorial operators; when one
		// operand's dimensions are a subset of the other's, the smaller
		// cube broadcasts over the missing dimensions (the paper's
		// "versions that operate on cubes with different dimensions"),
		// which is what ratios-to-totals like ASSETS/SYS need.
		s, err := broadcastSchema(e.At, x.Schema, y.Schema)
		if err != nil {
			return nil, err
		}
		sch = s
	}
	sch = model.NewSchema("", sch.Dims, "")
	return &AExpr{Kind: ABinary, At: e.At, Op: op, X: x, Y: y, Schema: sch}, nil
}

// broadcastSchema checks vectorial compatibility and returns the result
// schema: the operand with the superset of dimensions. Dimension names
// shared by both operands must agree in type.
func broadcastSchema(at Position, x, y model.Schema) (model.Schema, error) {
	contains := func(big, small model.Schema) bool {
		for _, d := range small.Dims {
			j := big.DimIndex(d.Name)
			if j < 0 || !d.Type.Matches(big.Dims[j].Type) {
				return false
			}
		}
		return true
	}
	// Shared names must agree in type regardless of direction, so a pure
	// type conflict reports as such rather than as a shape error.
	for _, d := range x.Dims {
		if j := y.DimIndex(d.Name); j >= 0 && !d.Type.Matches(y.Dims[j].Type) {
			return model.Schema{}, errorf(at, "vectorial operator: dimension %s has type %s vs %s", d.Name, d.Type, y.Dims[j].Type)
		}
	}
	switch {
	case len(x.Dims) >= len(y.Dims) && contains(x, y):
		return x, nil
	case contains(y, x):
		return y, nil
	default:
		return model.Schema{}, errorf(at, "vectorial operator needs operands with the same dimensions (or one a subset of the other): %s vs %s", x, y)
	}
}

func (a *Analyzed) analyzeCall(e *Call) (*AExpr, error) {
	info, ok := ops.Lookup(e.Name)
	if !ok {
		return nil, errorf(e.At, "unknown operator %s", e.Name)
	}
	switch info.Class {
	case ops.ClassScalar:
		return a.analyzeScalarCall(e, info)
	case ops.ClassVector:
		return a.analyzePadVector(e)
	case ops.ClassShift:
		return a.analyzeShift(e)
	case ops.ClassAggregation:
		return a.analyzeAgg(e)
	case ops.ClassBlackBox:
		return a.analyzeBlackBox(e, info)
	case ops.ClassDimension:
		return nil, errorf(e.At, "dimension function %s is only allowed inside group-by lists", e.Name)
	default:
		return nil, errorf(e.At, "operator %s cannot be used here", e.Name)
	}
}

// scalarCubeArg gives, per scalar function, the position of the cube
// operand among the EXL call arguments; remaining arguments are scalar
// parameters. The paper's log takes the base first: log(2, el*3).
func scalarCubeArg(name string, nargs int) int {
	if name == "log" && nargs == 2 {
		return 1
	}
	return 0
}

func (a *Analyzed) analyzeScalarCall(e *Call, info ops.Info) (*AExpr, error) {
	want := 1 + info.Params
	if len(e.Args) != want {
		return nil, errorf(e.At, "%s expects %d argument(s), got %d", e.Name, want, len(e.Args))
	}
	if len(e.GroupBy) > 0 {
		return nil, errorf(e.At, "%s does not take a group-by clause", e.Name)
	}
	cubePos := scalarCubeArg(e.Name, len(e.Args))
	var arg *AExpr
	var params []float64
	allConst := true
	var constArgs []float64
	for i, raw := range e.Args {
		ae, err := a.analyzeExpr(raw)
		if err != nil {
			return nil, err
		}
		if i == cubePos {
			arg = ae
			if ae.Kind == AConst {
				constArgs = append([]float64{ae.Val}, constArgs...)
			} else {
				allConst = false
			}
			continue
		}
		if ae.Kind != AConst {
			return nil, errorf(raw.Pos(), "%s: parameter %d must be a constant", e.Name, i+1)
		}
		params = append(params, ae.Val)
		constArgs = append(constArgs, ae.Val)
	}
	if allConst {
		return fold(e.At, e.Name, constArgs[0], constArgs[len(constArgs)-1])
	}
	sch := model.NewSchema("", arg.Schema.Dims, "")
	return &AExpr{Kind: AScalarFunc, At: e.At, Op: e.Name, Arg: arg, Params: params, Schema: sch}, nil
}

// analyzePadVector handles the padded vectorial variants vsum0/vsub0:
// both operands must be cube expressions with identical dimension sets
// (broadcasting would make the padding ambiguous); the result is defined
// on the union of their dimension tuples, missing values defaulting to 0.
func (a *Analyzed) analyzePadVector(e *Call) (*AExpr, error) {
	if len(e.Args) != 2 || len(e.GroupBy) > 0 {
		return nil, errorf(e.At, "%s expects two cube operands", e.Name)
	}
	x, err := a.analyzeExpr(e.Args[0])
	if err != nil {
		return nil, err
	}
	y, err := a.analyzeExpr(e.Args[1])
	if err != nil {
		return nil, err
	}
	if x.Kind == AConst || y.Kind == AConst {
		return nil, errorf(e.At, "%s operands must be cube expressions", e.Name)
	}
	if len(x.Schema.Dims) != len(y.Schema.Dims) {
		return nil, errorf(e.At, "%s needs operands with identical dimensions: %s vs %s", e.Name, x.Schema, y.Schema)
	}
	for _, d := range x.Schema.Dims {
		j := y.Schema.DimIndex(d.Name)
		if j < 0 || !d.Type.Matches(y.Schema.Dims[j].Type) {
			return nil, errorf(e.At, "%s needs operands with identical dimensions: %s vs %s", e.Name, x.Schema, y.Schema)
		}
	}
	sch := model.NewSchema("", x.Schema.Dims, "")
	return &AExpr{Kind: APadVector, At: e.At, Op: e.Name, X: x, Y: y, Schema: sch}, nil
}

func (a *Analyzed) analyzeShift(e *Call) (*AExpr, error) {
	if len(e.Args) != 2 || len(e.GroupBy) > 0 {
		return nil, errorf(e.At, "shift expects (expression, steps)")
	}
	arg, err := a.analyzeExpr(e.Args[0])
	if err != nil {
		return nil, err
	}
	if arg.Kind == AConst {
		return nil, errorf(e.Args[0].Pos(), "shift operand must be a cube expression")
	}
	s, err := a.analyzeExpr(e.Args[1])
	if err != nil {
		return nil, err
	}
	if s.Kind != AConst || s.Val != math.Trunc(s.Val) {
		return nil, errorf(e.Args[1].Pos(), "shift steps must be an integer constant")
	}
	dim, err := shiftDim(arg.Schema)
	if err != nil {
		return nil, errorf(e.At, "%v", err)
	}
	sch := model.NewSchema("", arg.Schema.Dims, "")
	return &AExpr{Kind: AShift, At: e.At, Op: "shift", Arg: arg, ShiftBy: int64(s.Val), ShiftDim: dim, Schema: sch}, nil
}

// shiftDim picks the dimension the shift applies to: the unique time
// dimension, or, failing that, the unique integer dimension (the paper
// allows shifts "on the values of a numeric dimension").
func shiftDim(s model.Schema) (int, error) {
	td := s.TimeDims()
	if len(td) == 1 {
		return td[0], nil
	}
	if len(td) > 1 {
		return 0, fmt.Errorf("shift is ambiguous: operand has %d time dimensions", len(td))
	}
	idx := -1
	for i, d := range s.Dims {
		if d.Type.Kind == model.DimInt {
			if idx >= 0 {
				return 0, fmt.Errorf("shift is ambiguous: operand has several numeric dimensions")
			}
			idx = i
		}
	}
	if idx < 0 {
		return 0, fmt.Errorf("shift needs a time or numeric dimension")
	}
	return idx, nil
}

func (a *Analyzed) analyzeAgg(e *Call) (*AExpr, error) {
	if len(e.Args) != 1 {
		return nil, errorf(e.At, "%s expects one cube operand (plus an optional group-by clause)", e.Name)
	}
	arg, err := a.analyzeExpr(e.Args[0])
	if err != nil {
		return nil, err
	}
	if arg.Kind == AConst {
		return nil, errorf(e.Args[0].Pos(), "%s operand must be a cube expression", e.Name)
	}
	groups := make([]AGroup, 0, len(e.GroupBy))
	seen := make(map[string]bool)
	dims := make([]model.Dim, 0, len(e.GroupBy))
	for _, item := range e.GroupBy {
		g, err := resolveGroupItem(item, arg.Schema)
		if err != nil {
			return nil, err
		}
		if seen[g.Name] {
			return nil, errorf(item.At, "duplicate result dimension %s in group-by (use 'as' to rename)", g.Name)
		}
		seen[g.Name] = true
		groups = append(groups, g)
		dims = append(dims, model.Dim{Name: g.Name, Type: g.Type})
	}
	sch := model.NewSchema("", dims, "")
	return &AExpr{Kind: AAgg, At: e.At, Op: e.Name, Arg: arg, GroupBy: groups, Schema: sch}, nil
}

func resolveGroupItem(item GroupItem, operand model.Schema) (AGroup, error) {
	switch ex := item.Expr.(type) {
	case *Ident:
		idx := operand.DimIndex(ex.Name)
		if idx < 0 {
			return AGroup{}, errorf(ex.At, "group-by dimension %s not found in operand %s", ex.Name, operand)
		}
		name := item.Alias
		if name == "" {
			name = ex.Name
		}
		return AGroup{DimIndex: idx, Name: name, Type: operand.Dims[idx].Type}, nil
	case *Call:
		if len(ex.Args) != 1 {
			return AGroup{}, errorf(ex.At, "group-by function %s takes one dimension", ex.Name)
		}
		id, ok := ex.Args[0].(*Ident)
		if !ok {
			return AGroup{}, errorf(ex.At, "group-by function argument must be a dimension name")
		}
		idx := operand.DimIndex(id.Name)
		if idx < 0 {
			return AGroup{}, errorf(id.At, "group-by dimension %s not found in operand %s", id.Name, operand)
		}
		df, err := ops.Dimension(ex.Name)
		if err != nil {
			return AGroup{}, errorf(ex.At, "%v", err)
		}
		rt, err := df.ResultType(operand.Dims[idx].Type)
		if err != nil {
			return AGroup{}, errorf(ex.At, "%s(%s): %v", ex.Name, id.Name, err)
		}
		name := item.Alias
		if name == "" {
			name = id.Name
		}
		return AGroup{DimIndex: idx, Func: ex.Name, Name: name, Type: rt}, nil
	default:
		return AGroup{}, errorf(item.At, "group-by item must be a dimension or a function of one")
	}
}

func (a *Analyzed) analyzeBlackBox(e *Call, info ops.Info) (*AExpr, error) {
	want := 1 + info.Params
	if len(e.Args) != want {
		return nil, errorf(e.At, "%s expects %d argument(s), got %d", e.Name, want, len(e.Args))
	}
	if len(e.GroupBy) > 0 {
		return nil, errorf(e.At, "%s does not take a group-by clause", e.Name)
	}
	arg, err := a.analyzeExpr(e.Args[0])
	if err != nil {
		return nil, err
	}
	if arg.Kind == AConst {
		return nil, errorf(e.Args[0].Pos(), "%s operand must be a cube expression", e.Name)
	}
	if !arg.Schema.IsTimeSeries() {
		return nil, errorf(e.At, "%s operates on time series (one time dimension), operand has dimensions %v", e.Name, arg.Schema.DimNames())
	}
	var params []float64
	for _, raw := range e.Args[1:] {
		ae, err := a.analyzeExpr(raw)
		if err != nil {
			return nil, err
		}
		if ae.Kind != AConst {
			return nil, errorf(raw.Pos(), "%s: parameters must be constants", e.Name)
		}
		params = append(params, ae.Val)
	}
	sch := model.NewSchema("", arg.Schema.Dims, "")
	return &AExpr{Kind: ABlackBox, At: e.At, Op: e.Name, Arg: arg, Params: params, Schema: sch}, nil
}
