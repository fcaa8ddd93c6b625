// Package rgen prints frame programs (the translation of schema mappings
// for matrix-oriented targets) as R source text, following the paper's
// Section 5.2 examples: merge() on dimension columns, element-wise column
// arithmetic on data frames, aggregate() for group-bys, and stl() with
// component extraction for seasonal decomposition.
//
// The printed text is for export to an R runtime; its semantics is the
// frame IR's, which internal/frame executes and tests against the chase.
package rgen

import (
	"fmt"
	"strconv"
	"strings"

	"exlengine/internal/frame"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
)

// Translate renders a whole mapping as an R script.
func Translate(m *mapping.Mapping) (string, error) {
	script, err := frame.Translate(m)
	if err != nil {
		return "", err
	}
	return Print(script), nil
}

// Print renders a frame script as R source.
func Print(s *frame.Script) string {
	var b strings.Builder
	for i, p := range s.Programs {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "# tgd %s -> %s\n", p.TgdID, p.Target)
		b.WriteString(PrintProgram(p))
	}
	return b.String()
}

// PrintProgram renders one tgd's program as R source.
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
		return fmt.Sprintf("%s <- %s\n", s.Out, s.In)
	case frame.MapCol:
		return fmt.Sprintf("%s$%s <- %s\n", s.Var, s.Col, printExpr(s.E, s.Var))
	case frame.Filter:
		return fmt.Sprintf("%s <- %s[%s$%s == %s, ]\n", s.Var, s.Var, s.Var, s.Col, rLiteral(s.V))
	case frame.SelectCols:
		var b strings.Builder
		fmt.Fprintf(&b, "%s <- %s[, c(%s)]\n", s.Out, s.In, quoteList(s.Cols))
		if s.As != nil && !sameStrings(s.Cols, s.As) {
			fmt.Fprintf(&b, "colnames(%s) <- c(%s)\n", s.Out, quoteList(s.As))
		}
		return b.String()
	case frame.Merge:
		if len(s.By) == 0 {
			return fmt.Sprintf("%s <- merge(%s, %s, by = NULL)\n", s.Out, s.X, s.Y)
		}
		return fmt.Sprintf("%s <- merge(%s, %s, by = c(%s))\n", s.Out, s.X, s.Y, quoteList(s.By))
	case frame.GroupAgg:
		fun := rAggFun(s.Agg)
		if len(s.By) == 0 {
			return fmt.Sprintf("%s <- data.frame(%s = %s(%s$%s))\n", s.Out, s.OutCol, fun, s.In, s.ValCol)
		}
		var by []string
		for _, c := range s.By {
			by = append(by, fmt.Sprintf("%s = %s$%s", c, s.In, c))
		}
		return fmt.Sprintf("%s <- aggregate(list(%s = %s$%s), by = list(%s), FUN = %s)\n",
			s.Out, s.OutCol, s.In, s.ValCol, strings.Join(by, ", "), fun)
	case frame.PadMerge:
		var b strings.Builder
		fmt.Fprintf(&b, "%s <- merge(%s, %s, by = c(%s), all = TRUE)\n", s.Out, s.X, s.Y, quoteList(s.Keys))
		fmt.Fprintf(&b, "%s$%s[is.na(%s$%s)] <- %s\n", s.Out, s.XVal, s.Out, s.XVal, formatNum(s.Default))
		fmt.Fprintf(&b, "%s$%s[is.na(%s$%s)] <- %s\n", s.Out, s.YVal, s.Out, s.YVal, formatNum(s.Default))
		sym := "+"
		if s.Op == "sub" {
			sym = "-"
		}
		fmt.Fprintf(&b, "%s$%s <- %s$%s %s %s$%s\n", s.Out, s.OutCol, s.Out, s.XVal, sym, s.Out, s.YVal)
		return b.String()
	case frame.SeriesOp:
		return printSeriesOp(s)
	default:
		return fmt.Sprintf("# unsupported step %T\n", s)
	}
}

// printSeriesOp follows the paper's stl example:
//
//	GDPC <- stl(GDP, "periodic")
//	GDPT <- GDPC$time.series[, "trend"]
func printSeriesOp(s frame.SeriesOp) string {
	var b strings.Builder
	switch s.Op {
	case "stl_t", "stl_s", "stl_i":
		comp := map[string]string{"stl_t": "trend", "stl_s": "seasonal", "stl_i": "remainder"}[s.Op]
		fmt.Fprintf(&b, "%s_c <- stl(ts(%s$%s, frequency = frequency(%s$%s)), \"periodic\")\n",
			s.Out, s.In, s.ValCol, s.In, s.TimeCol)
		fmt.Fprintf(&b, "%s <- data.frame(%s = %s$%s, %s = %s_c$time.series[, %q])\n",
			s.Out, s.TimeCol, s.In, s.TimeCol, s.ValCol, s.Out, comp)
	case "movavg":
		w := int(s.Params[0])
		fmt.Fprintf(&b, "%s <- data.frame(%s = %s$%s, %s = stats::filter(%s$%s, rep(1/%d, %d), sides = 1))\n",
			s.Out, s.TimeCol, s.In, s.TimeCol, s.ValCol, s.In, s.ValCol, w, w)
	case "cumsum":
		fmt.Fprintf(&b, "%s <- data.frame(%s = %s$%s, %s = cumsum(%s$%s))\n",
			s.Out, s.TimeCol, s.In, s.TimeCol, s.ValCol, s.In, s.ValCol)
	case "lintrend":
		fmt.Fprintf(&b, "%s <- data.frame(%s = %s$%s, %s = fitted(lm(%s$%s ~ seq_along(%s$%s))))\n",
			s.Out, s.TimeCol, s.In, s.TimeCol, s.ValCol, s.In, s.ValCol, s.In, s.ValCol)
	default:
		fmt.Fprintf(&b, "%s <- %s(%s)  # user-defined series operator\n", s.Out, s.Op, s.In)
	}
	return b.String()
}

// rAggFun returns the R function that folds a bag as the engines do, callable
// as it stands: R's sd is the sample deviation, the engines' stddev the
// population one.
func rAggFun(agg string) string {
	switch agg {
	case "sum":
		return "sum"
	case "avg":
		return "mean"
	case "min":
		return "min"
	case "max":
		return "max"
	case "count":
		return "length"
	case "median":
		return "median"
	case "stddev":
		return "(function(x) sqrt(mean((x - mean(x))^2)))"
	case "prod":
		return "prod"
	default:
		return agg
	}
}

func printExpr(e frame.Expr, f string) string {
	switch e := e.(type) {
	case frame.Col:
		return fmt.Sprintf("%s$%s", f, e.Name)
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
			return fmt.Sprintf("(%s * %s)", args[0], args[1])
		case "div":
			return fmt.Sprintf("(%s / %s)", args[0], args[1])
		case "neg":
			return fmt.Sprintf("(-%s)", args[0])
		case "ln":
			return fmt.Sprintf("log(%s)", args[0])
		case "log":
			return fmt.Sprintf("log(%s, base = %s)", args[0], formatNum(e.Params[0]))
		case "pow":
			return fmt.Sprintf("(%s ^ %s)", args[0], formatNum(e.Params[0]))
		default:
			for _, p := range e.Params {
				args = append(args, formatNum(p))
			}
			return fmt.Sprintf("%s(%s)", e.Op, strings.Join(args, ", "))
		}
	default:
		return "NULL"
	}
}

func quoteList(xs []string) string {
	qs := make([]string, len(xs))
	for i, x := range xs {
		qs[i] = strconv.Quote(x)
	}
	return strings.Join(qs, ", ")
}

func rLiteral(v model.Value) string {
	switch v.Kind() {
	case model.KindString, model.KindPeriod:
		return strconv.Quote(v.String())
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
