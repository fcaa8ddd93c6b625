package rgen

import (
	"strings"
	"testing"

	"exlengine/internal/exl"
	"exlengine/internal/mapping"
	"exlengine/internal/workload"
)

func compile(t *testing.T, src string) *mapping.Mapping {
	t.Helper()
	prog, err := exl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := exl.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Generate(a)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTranslateGDP(t *testing.T) {
	m := compile(t, workload.GDPProgram)
	r, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	// The vectorial product becomes a merge on the join dimensions plus
	// element-wise arithmetic, as in the paper's Section 5.2.
	for _, frag := range []string{
		`merge(`, `by = c("q", "r")`, // tgd (2) join
		`stl(ts(`, `$time.series[, "trend"]`, // tgd (4) per the paper
		`aggregate(`, `FUN = sum`, `FUN = mean`, // tgds (1) and (3)
		"-> PCHNG",
	} {
		if !strings.Contains(r, frag) {
			t.Errorf("R output missing %q:\n%s", frag, r)
		}
	}
}

func TestRExpressions(t *testing.T) {
	m := compile(t, `
cube A(t: year) measure v
B := log(2, A) + ln(A) - pow(A, 3) / (0 - A)
`)
	r, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"log(", "base = 2", "^ 3"} {
		if !strings.Contains(r, frag) {
			t.Errorf("R output missing %q:\n%s", frag, r)
		}
	}
}

func TestRSeriesOps(t *testing.T) {
	m := compile(t, `
cube A(t: quarter) measure v
MA := movavg(A, 4)
CS := cumsum(A)
LT := lintrend(A)
`)
	r, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"stats::filter(", "rep(1/4, 4)", "cumsum(", "fitted(lm("} {
		if !strings.Contains(r, frag) {
			t.Errorf("R output missing %q:\n%s", frag, r)
		}
	}
}

func TestRShiftAndFilterLiterals(t *testing.T) {
	m := compile(t, `
cube A(t: quarter) measure v
B := shift(A, 1)
`)
	r, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r, "+ 1") {
		t.Errorf("R output missing shift arithmetic:\n%s", r)
	}
}

// TestRFolds: every fold prints, grouped and global, an R function that
// computes what the engines do — stddev the population deviation, not sd.
func TestRFolds(t *testing.T) {
	for _, tc := range []struct{ agg, fun string }{
		{"sum", "sum"}, {"avg", "mean"}, {"min", "min"}, {"max", "max"},
		{"count", "length"}, {"median", "median"}, {"prod", "prod"},
		{"stddev", "(function(x) sqrt(mean((x - mean(x))^2)))"},
	} {
		m := compile(t, "cube A(t: year, r: string) measure v\nG := "+tc.agg+"(A, group by t)\nT := "+tc.agg+"(A)")
		r, err := Translate(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, frag := range []string{"FUN = " + tc.fun + ")\n", "data.frame(v_t2 = " + tc.fun + "(a1_t2$v_t2))"} {
			if !strings.Contains(r, frag) {
				t.Errorf("%s: R output missing %q:\n%s", tc.agg, frag, r)
			}
		}
	}
}

func TestRGlobalAggregate(t *testing.T) {
	m := compile(t, "cube A(t: year, r: string) measure v\nTOT := sum(A)")
	r, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r, "data.frame(") || !strings.Contains(r, "sum(") {
		t.Errorf("R global aggregate:\n%s", r)
	}
}
