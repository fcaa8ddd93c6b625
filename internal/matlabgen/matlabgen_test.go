package matlabgen

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
	ml, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"join(", "'Keys', {'q', 'r'}", // tgd (2) as the paper's Matlab join
		".*",            // element-wise product
		"isolateTrend(", // tgd (4) as in the paper
		"groupsummary(", // aggregations
		"% tgd",         // comments
	} {
		if !strings.Contains(ml, frag) {
			t.Errorf("Matlab output missing %q:\n%s", frag, ml)
		}
	}
}

func TestMatlabSeriesOps(t *testing.T) {
	m := compile(t, `
cube A(t: quarter) measure v
MA := movavg(A, 4)
CS := cumsum(A)
LT := lintrend(A)
SS := stl_s(A)
SI := stl_i(A)
`)
	ml, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"movmean(", "cumsum(", "polyfit(", "isolateSeasonal(", "isolateRemainder("} {
		if !strings.Contains(ml, frag) {
			t.Errorf("Matlab output missing %q:\n%s", frag, ml)
		}
	}
}

func TestMatlabExpressions(t *testing.T) {
	m := compile(t, `
cube A(t: year) measure v
B := log(2, A) / pow(A, 2)
`)
	ml, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"./", "log(", ".^ 2"} {
		if !strings.Contains(ml, frag) {
			t.Errorf("Matlab output missing %q:\n%s", frag, ml)
		}
	}
}

// TestMatlabFolds: every fold prints, grouped and global, Matlab that
// computes what the engines do — std over n, and a count of every row where
// nnz would skip the zeros.
func TestMatlabFolds(t *testing.T) {
	for _, tc := range []struct{ agg, method, call string }{
		{"sum", "'sum'", "sum(a1_t2.v_t2)"},
		{"avg", "'mean'", "mean(a1_t2.v_t2)"},
		{"min", "'min'", "min(a1_t2.v_t2)"},
		{"max", "'max'", "max(a1_t2.v_t2)"},
		{"count", "@numel", "numel(a1_t2.v_t2)"},
		{"median", "'median'", "median(a1_t2.v_t2)"},
		{"stddev", "@(x) std(x, 1)", "std(a1_t2.v_t2, 1)"},
		{"prod", "@prod", "prod(a1_t2.v_t2)"},
	} {
		m := compile(t, "cube A(t: year, r: string) measure v\nG := "+tc.agg+"(A, group by t)\nT := "+tc.agg+"(A)")
		ml, err := Translate(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, frag := range []string{"{'d1_t1'}, " + tc.method + ", 'v_t1');", "table(" + tc.call + ", 'VariableNames'"} {
			if !strings.Contains(ml, frag) {
				t.Errorf("%s: Matlab output missing %q:\n%s", tc.agg, frag, ml)
			}
		}
	}
}

func TestMatlabGlobalAggregate(t *testing.T) {
	m := compile(t, "cube A(t: year, r: string) measure v\nTOT := max(A)")
	ml, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ml, "table(max(") {
		t.Errorf("Matlab global aggregate:\n%s", ml)
	}
}
