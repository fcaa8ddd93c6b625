// Package matlabgen prints frame programs as Matlab source text, following
// the paper's Section 5.2 Matlab examples: join() to compose matrices on
// key columns, element-wise .* arithmetic, groupsummary for aggregations,
// and library calls (the paper's isolateTrend) for black-box operators.
// Tables (matrices with named columns) are assumed, matching the paper's
// column-position commentary.
package matlabgen

import (
	"fmt"
	"strconv"
	"strings"

	"exlengine/internal/frame"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
)

// Translate renders a whole mapping as a Matlab script.
func Translate(m *mapping.Mapping) (string, error) {
	script, err := frame.Translate(m)
	if err != nil {
		return "", err
	}
	return Print(script), nil
}

// Print renders a frame script as Matlab source.
func Print(s *frame.Script) string {
	var b strings.Builder
	for i, p := range s.Programs {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%% tgd %s -> %s\n", p.TgdID, p.Target)
		b.WriteString(PrintProgram(p))
	}
	return b.String()
}

// PrintProgram renders one tgd's program as Matlab source.
func PrintProgram(p *frame.Program) string {
	var b strings.Builder
	for _, s := range p.Steps {
		b.WriteString(printStep(s))
	}
	return b.String()
}

func printStep(s frame.Step) string {
	switch s := s.(type) {
	case frame.Copy:
		return fmt.Sprintf("%s = %s;\n", s.Out, s.In)
	case frame.MapCol:
		return fmt.Sprintf("%s.%s = %s;\n", s.Var, s.Col, printExpr(s.E, s.Var))
	case frame.Filter:
		return fmt.Sprintf("%s = %s(%s.%s == %s, :);\n", s.Var, s.Var, s.Var, s.Col, mlLiteral(s.V))
	case frame.SelectCols:
		var b strings.Builder
		fmt.Fprintf(&b, "%s = %s(:, {%s});\n", s.Out, s.In, quoteList(s.Cols))
		if s.As != nil && !sameStrings(s.Cols, s.As) {
			fmt.Fprintf(&b, "%s.Properties.VariableNames = {%s};\n", s.Out, quoteList(s.As))
		}
		return b.String()
	case frame.Merge:
		if len(s.By) == 0 {
			return fmt.Sprintf("%s = crossjoin(%s, %s);\n", s.Out, s.X, s.Y)
		}
		return fmt.Sprintf("%s = join(%s, %s, 'Keys', {%s});\n", s.Out, s.X, s.Y, quoteList(s.By))
	case frame.GroupAgg:
		call, method := mlAgg(s.Agg, s.In+"."+s.ValCol)
		if len(s.By) == 0 {
			return fmt.Sprintf("%s = table(%s, 'VariableNames', {'%s'});\n", s.Out, call, s.OutCol)
		}
		return fmt.Sprintf("%s = groupsummary(%s, {%s}, %s, '%s');\n", s.Out, s.In, quoteList(s.By), method, s.ValCol)
	case frame.PadMerge:
		var b strings.Builder
		fmt.Fprintf(&b, "%s = outerjoin(%s, %s, 'Keys', {%s}, 'MergeKeys', true);\n", s.Out, s.X, s.Y, quoteList(s.Keys))
		fmt.Fprintf(&b, "%s = fillmissing(%s, 'constant', %s);\n", s.Out, s.Out, formatNum(s.Default))
		sym := "+"
		if s.Op == "sub" {
			sym = "-"
		}
		fmt.Fprintf(&b, "%s.%s = %s.%s %s %s.%s;\n", s.Out, s.OutCol, s.Out, s.XVal, sym, s.Out, s.YVal)
		return b.String()
	case frame.SeriesOp:
		return printSeriesOp(s)
	default:
		return fmt.Sprintf("%% unsupported step %T\n", s)
	}
}

// printSeriesOp follows the paper's Matlab example for tgd (4):
//
//	GDPC = isolateTrend(GDP)
func printSeriesOp(s frame.SeriesOp) string {
	switch s.Op {
	case "stl_t":
		return fmt.Sprintf("%s = isolateTrend(%s);\n", s.Out, s.In)
	case "stl_s":
		return fmt.Sprintf("%s = isolateSeasonal(%s);\n", s.Out, s.In)
	case "stl_i":
		return fmt.Sprintf("%s = isolateRemainder(%s);\n", s.Out, s.In)
	case "movavg":
		w := int(s.Params[0])
		return fmt.Sprintf("%s = %s; %s.%s = movmean(%s.%s, [%d 0]);\n",
			s.Out, s.In, s.Out, s.ValCol, s.In, s.ValCol, w-1)
	case "cumsum":
		return fmt.Sprintf("%s = %s; %s.%s = cumsum(%s.%s);\n",
			s.Out, s.In, s.Out, s.ValCol, s.In, s.ValCol)
	case "lintrend":
		return fmt.Sprintf("%s = %s; p = polyfit(1:height(%s), %s.%s', 1); %s.%s = polyval(p, 1:height(%s))';\n",
			s.Out, s.In, s.In, s.In, s.ValCol, s.Out, s.ValCol, s.In)
	default:
		return fmt.Sprintf("%s = %s(%s); %% user-defined series operator\n", s.Out, s.Op, s.In)
	}
}

// mlAgg returns the Matlab expression that folds the column x as the engines
// do, and the groupsummary method that folds a group so: a built-in method's
// name where one agrees with the engines, a function handle where none does —
// std is the sample deviation unless told otherwise, and nnz skips the zeros
// the engines count.
func mlAgg(agg, x string) (call, method string) {
	switch agg {
	case "sum", "min", "max", "median":
		return agg + "(" + x + ")", "'" + agg + "'"
	case "avg":
		return "mean(" + x + ")", "'mean'"
	case "count":
		return "numel(" + x + ")", "@numel"
	case "stddev":
		return "std(" + x + ", 1)", "@(x) std(x, 1)"
	default: // prod
		return agg + "(" + x + ")", "@" + agg
	}
}

func printExpr(e frame.Expr, f string) string {
	switch e := e.(type) {
	case frame.Col:
		return fmt.Sprintf("%s.%s", f, e.Name)
	case frame.Const:
		return formatNum(e.V)
	case frame.PShift:
		if e.N >= 0 {
			return fmt.Sprintf("(%s + %d)", printExpr(e.X, f), e.N)
		}
		return fmt.Sprintf("(%s - %d)", printExpr(e.X, f), -e.N)
	case frame.DimApply:
		return fmt.Sprintf("%s(%s)", e.Fn, printExpr(e.X, f))
	case frame.Apply:
		args := make([]string, 0, len(e.Args))
		for _, a := range e.Args {
			args = append(args, printExpr(a, f))
		}
		switch e.Op {
		case "add":
			return fmt.Sprintf("(%s + %s)", args[0], args[1])
		case "sub":
			return fmt.Sprintf("(%s - %s)", args[0], args[1])
		case "mul":
			return fmt.Sprintf("(%s .* %s)", args[0], args[1])
		case "div":
			return fmt.Sprintf("(%s ./ %s)", args[0], args[1])
		case "neg":
			return fmt.Sprintf("(-%s)", args[0])
		case "ln":
			return fmt.Sprintf("log(%s)", args[0])
		case "log":
			return fmt.Sprintf("(log(%s) / log(%s))", args[0], formatNum(e.Params[0]))
		case "pow":
			return fmt.Sprintf("(%s .^ %s)", args[0], formatNum(e.Params[0]))
		default:
			for _, p := range e.Params {
				args = append(args, formatNum(p))
			}
			return fmt.Sprintf("%s(%s)", e.Op, strings.Join(args, ", "))
		}
	default:
		return "[]"
	}
}

func quoteList(xs []string) string {
	qs := make([]string, len(xs))
	for i, x := range xs {
		qs[i] = "'" + x + "'"
	}
	return strings.Join(qs, ", ")
}

func mlLiteral(v model.Value) string {
	switch v.Kind() {
	case model.KindString, model.KindPeriod:
		return "'" + v.String() + "'"
	default:
		return v.String()
	}
}

func formatNum(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
