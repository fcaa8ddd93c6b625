package exlengine

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestFacadeQuickstart exercises the public API end to end: register a program, put a two-dimensional cube, run, and read
// an aggregation and a shifted ratio back. The README quickstart is the
// body of ExampleEngine, which go test compiles and runs.
func TestFacadeQuickstart(t *testing.T) {
	eng := New()
	src := `
cube SALES(m: month, shop: string) measure s

TOTAL := sum(SALES, group by m)
MA    := movavg(TOTAL, 3)
GROWTH := (TOTAL - shift(TOTAL, 1)) * 100 / shift(TOTAL, 1)
`
	if err := eng.RegisterProgram("sales", src); err != nil {
		t.Fatal(err)
	}

	sales := NewCube(NewSchema("SALES",
		[]Dim{{Name: "m", Type: TMonth}, {Name: "shop", Type: TString}}, "s"))
	for i := 0; i < 12; i++ {
		m := Per(NewMonthly(2024, time.January).Shift(int64(i)))
		if err := sales.Put([]Value{m, Str("rome")}, 100+float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := sales.Put([]Value{m, Str("milan")}, 200+float64(2*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.PutCube(sales, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}

	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Plan) != 3 {
		t.Errorf("plan = %v", rep.Plan)
	}

	total, ok := eng.Cube("TOTAL")
	if !ok || total.Len() != 12 {
		t.Fatalf("TOTAL = %v, %v", total, ok)
	}
	jan := []Value{Per(NewMonthly(2024, time.January))}
	if got, _ := total.Get(jan); got != 300 {
		t.Errorf("TOTAL(jan) = %v", got)
	}
	growth, _ := eng.Cube("GROWTH")
	if growth.Len() != 11 {
		t.Errorf("GROWTH len = %d", growth.Len())
	}
	feb := []Value{Per(NewMonthly(2024, time.February))}
	want := (303.0 - 300.0) * 100 / 300.0
	if got, _ := growth.Get(feb); !almost(got, want) {
		t.Errorf("GROWTH(feb) = %v, want %v", got, want)
	}
}

func almost(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9*(1+b)
}

func TestFacadeCompile(t *testing.T) {
	m, err := Compile("cube A(t: year) measure v\nB := A * 2\nC := (B - shift(B,1)) / shift(B,1)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tgds) != 2 {
		t.Errorf("tgds:\n%s", m)
	}
	if !strings.Contains(m.String(), "t-1") {
		t.Errorf("fused shift missing:\n%s", m)
	}
	n, err := Compile("cube A(t: year) measure v\nC := (A - shift(A,1)) / shift(A,1)", nil, WithoutFusion())
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Tgds) <= 1 {
		t.Errorf("normalized should have aux tgds:\n%s", n)
	}
	if _, err := Compile("garbage :=", nil); err == nil {
		t.Error("bad program must fail")
	}
	if _, err := Compile("garbage :=", nil, WithoutFusion()); err == nil {
		t.Error("bad program must fail")
	}
}

func TestFacadeValidate(t *testing.T) {
	if err := Validate("cube A(t: year)\nB := A * 2", nil); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
	if err := Validate("B := NOPE * 2", nil); err == nil {
		t.Error("invalid program accepted")
	}
	if err := Validate("B := ", nil); err == nil {
		t.Error("syntax error accepted")
	}
}

func TestFacadeExternalSchemas(t *testing.T) {
	ext := map[string]Schema{
		"X": NewSchema("X", []Dim{{Name: "q", Type: TQuarter}}, "v"),
	}
	m, err := Compile("Y := ln(X)", ext)
	if err != nil {
		t.Fatal(err)
	}
	if m.Schemas["Y"].Dims[0].Name != "q" {
		t.Errorf("schema propagation: %v", m.Schemas["Y"])
	}
}

func TestCompileOptions(t *testing.T) {
	const src = "cube A(t: year) measure v\nC := (A - shift(A,1)) / shift(A,1)"

	// CompileTraced records the compile pipeline's span tree. This must be
	// the first fused compile of src in the process, or the cache serves it
	// without the parse/analyze/generate children.
	tr := NewTracer()
	fused, err := Compile(src, nil, CompileTraced(tr))
	if err != nil {
		t.Fatal(err)
	}

	// WithoutFusion decomposes the statement into single-operator tgds
	// over auxiliary cubes, so the normalized mapping has strictly more
	// tgds than the fused one.
	viaOpt, err := Compile(src, nil, WithoutFusion())
	if err != nil {
		t.Fatal(err)
	}
	if len(viaOpt.Tgds) <= len(fused.Tgds) {
		t.Errorf("WithoutFusion: %d tgds, fused: %d — want strictly more when normalized",
			len(viaOpt.Tgds), len(fused.Tgds))
	}
	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name != "compile" {
		t.Fatalf("roots = %v, want one compile span", roots)
	}
	for _, phase := range []string{"parse", "analyze", "generate"} {
		if roots[0].Find(phase) == nil {
			t.Errorf("compile trace missing %s child", phase)
		}
	}

	// The exported writers render the same tracer.
	var tree, jsonl strings.Builder
	if err := WriteTraceTree(&tree, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tree.String(), "compile") {
		t.Errorf("tree output: %q", tree.String())
	}
	if err := WriteTraceJSONL(&jsonl, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `"name":"compile"`) {
		t.Errorf("jsonl output: %q", jsonl.String())
	}

	// A failing compile still ends its spans.
	tr.Reset()
	if _, err := Compile("garbage :=", nil, CompileTraced(tr)); err == nil {
		t.Error("bad program must fail")
	}
	if len(tr.Roots()) == 0 || tr.Roots()[0].Err == "" {
		t.Error("failed compile span records no error")
	}
}

// TestFacadeExports pins the facade's export list: a name joins it only
// when a caller outside the module needs it, and leaves it when none does.
func TestFacadeExports(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "exlengine.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				got = append(got, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						got = append(got, sp.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if n.IsExported() {
							got = append(got, n.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(got)
	want := []string{
		"ArtifactETL", "ArtifactMatlab", "ArtifactR", "ArtifactSQL", "ArtifactTgds",
		"Attempt", "Attr", "Bool", "Compile", "CompileOption", "CompileTraced",
		"Cube", "Dim", "DimType", "Egd", "EgdViolation", "Engine",
		"ErrMemoryBudget", "ErrQueueFull", "ErrShuttingDown", "ErrorClass",
		"Fatal", "FragmentReport", "Frequency", "Int", "IsOverload", "Mapping",
		"MaxConcurrentRuns", "MemoryBudget", "Metrics", "New", "NewAnnual", "NewCube",
		"NewDaily", "NewMetrics", "NewMonthly", "NewQuarterly", "NewSchema", "NewTracer",
		"Num", "Option", "Overload", "ParsePeriod", "Per", "Period", "Report",
		"RunAt", "RunChanged", "RunOn", "RunOption", "Schema", "Span", "Str", "SubgraphInfo",
		"TDay", "TInt", "TMonth", "TQuarter", "TString", "TYear",
		"Target", "TargetChase", "TargetETL", "TargetFrame", "TargetSQL",
		"Tgd", "Tracer", "Tuple", "Validate", "Value",
		"WithFragmentTimeout", "WithMetrics", "WithTracer",
		"WithoutDegradation", "WithoutFusion", "WriteTraceJSONL", "WriteTraceTree",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exlengine.go exports\n%v\nwant\n%v", got, want)
	}
}
