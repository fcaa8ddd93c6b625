package model

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func gdpSchema() Schema {
	return NewSchema("GDP", []Dim{{Name: "q", Type: TQuarter}}, "g")
}

func rgdpSchema() Schema {
	return NewSchema("RGDP", []Dim{{Name: "q", Type: TQuarter}, {Name: "r", Type: TString}}, "g")
}

func TestCubePutGet(t *testing.T) {
	c := NewCube(rgdpSchema())
	dims := []Value{Per(NewQuarterly(2001, 1)), Str("north")}
	if err := c.Put(dims, 12.5); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(dims)
	if !ok || got != 12.5 {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if _, ok := c.Get([]Value{Per(NewQuarterly(2001, 2)), Str("north")}); ok {
		t.Error("Get of absent tuple must fail")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCubePutEgd(t *testing.T) {
	c := NewCube(gdpSchema())
	dims := []Value{Per(NewQuarterly(2001, 1))}
	if err := c.Put(dims, 10); err != nil {
		t.Fatal(err)
	}
	// Same value again: fine (idempotent chase step).
	if err := c.Put(dims, 10); err != nil {
		t.Fatal(err)
	}
	// Different value: egd violation.
	err := c.Put(dims, 11)
	if !errors.Is(err, ErrFunctional) {
		t.Fatalf("want ErrFunctional, got %v", err)
	}
	// Replace overrides.
	if err := c.Replace(dims, 11); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get(dims); got != 11 {
		t.Errorf("after Replace: %v", got)
	}
}

func TestCubeArityCheck(t *testing.T) {
	c := NewCube(rgdpSchema())
	if err := c.Put([]Value{Str("north")}, 1); err == nil {
		t.Error("wrong arity Put must fail")
	}
	if err := c.Replace([]Value{Str("north")}, 1); err == nil {
		t.Error("wrong arity Replace must fail")
	}
}

func TestCubePutCopiesDims(t *testing.T) {
	c := NewCube(gdpSchema())
	dims := []Value{Per(NewQuarterly(2001, 1))}
	if err := c.Put(dims, 1); err != nil {
		t.Fatal(err)
	}
	dims[0] = Per(NewQuarterly(2099, 1)) // mutate caller slice
	ts := c.Tuples()
	if p, _ := ts[0].Dims[0].AsPeriod(); p.Year() != 2001 {
		t.Error("cube must copy dimension slices")
	}
}

func TestTuplesSorted(t *testing.T) {
	c := NewCube(rgdpSchema())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		q := NewQuarterly(2000+rng.Intn(5), rng.Intn(4)+1)
		r := []string{"north", "south", "centre"}[rng.Intn(3)]
		_ = c.Replace([]Value{Per(q), Str(r)}, float64(i))
	}
	ts := c.Tuples()
	for i := 1; i < len(ts); i++ {
		if compareDims(ts[i-1].Dims, ts[i].Dims) >= 0 {
			t.Fatalf("tuples not strictly sorted at %d", i)
		}
	}
}

func TestCubeEqualAndDiff(t *testing.T) {
	a := NewCube(gdpSchema())
	b := NewCube(gdpSchema().Rename("GDP_T"))
	q1 := []Value{Per(NewQuarterly(2001, 1))}
	q2 := []Value{Per(NewQuarterly(2001, 2))}
	_ = a.Put(q1, 1)
	_ = a.Put(q2, 2)
	_ = b.Put(q1, 1)
	_ = b.Put(q2, 2+1e-12)
	if !a.Equal(b, Eps) {
		t.Error("cubes should be equal within tolerance; renaming is irrelevant")
	}
	_ = b.Replace(q2, 3)
	if a.Equal(b, Eps) {
		t.Error("cubes with different measures should differ")
	}
	if d := a.Diff(b, Eps, 10); len(d) != 1 {
		t.Errorf("Diff = %v", d)
	}
	_ = b.Put([]Value{Per(NewQuarterly(2001, 3))}, 9)
	if d := a.Diff(b, Eps, 10); len(d) != 2 {
		t.Errorf("Diff with extra tuple = %v", d)
	}
	c := NewCube(rgdpSchema())
	if a.Equal(c, Eps) {
		t.Error("different dimensionality must not be equal")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewCube(gdpSchema())
	_ = a.Put([]Value{Per(NewQuarterly(2001, 1))}, 1)
	b := a.Clone()
	_ = b.Replace([]Value{Per(NewQuarterly(2001, 1))}, 99)
	if got, _ := a.Get([]Value{Per(NewQuarterly(2001, 1))}); got != 1 {
		t.Error("Clone must not share storage")
	}
}

func TestSortedSeries(t *testing.T) {
	c := NewCube(gdpSchema())
	for q := 4; q >= 1; q-- {
		_ = c.Put([]Value{Per(NewQuarterly(2001, q))}, float64(q))
	}
	periods, vals, err := c.SortedSeries()
	if err != nil {
		t.Fatal(err)
	}
	for i := range periods {
		if vals[i] != float64(i+1) {
			t.Fatalf("series not chronological: %v %v", periods, vals)
		}
	}
	if _, _, err := NewCube(rgdpSchema()).SortedSeries(); err == nil {
		t.Error("2-dim cube is not a series")
	}
	s := NewCube(NewSchema("X", []Dim{{Name: "r", Type: TString}}, ""))
	if _, _, err := s.SortedSeries(); err == nil {
		t.Error("non-time 1-dim cube is not a series")
	}
}

func TestCubeForEach(t *testing.T) {
	c := NewCube(gdpSchema())
	for q := 1; q <= 4; q++ {
		_ = c.Put([]Value{Per(NewQuarterly(2001, q))}, float64(q))
	}
	sum := 0.0
	if err := c.ForEach(func(tp Tuple) error { sum += tp.Measure; return nil }); err != nil {
		t.Fatal(err)
	}
	if sum != 10 {
		t.Errorf("sum = %v", sum)
	}
	stop := errors.New("stop")
	if err := c.ForEach(func(Tuple) error { return stop }); !errors.Is(err, stop) {
		t.Error("ForEach must propagate errors")
	}
}

func TestCubePutGetQuick(t *testing.T) {
	// Property: after Replace(dims, m), Get(dims) returns m, for arbitrary
	// string/int dimension values.
	sch := NewSchema("Q", []Dim{{Name: "a", Type: TString}, {Name: "b", Type: TInt}}, "")
	c := NewCube(sch)
	f := func(a string, b int64, m float64) bool {
		dims := []Value{Str(a), Int(b)}
		if err := c.Replace(dims, m); err != nil {
			return false
		}
		got, ok := c.Get(dims)
		return ok && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := NewSchema("PDR", []Dim{{Name: "d", Type: TDay}, {Name: "r", Type: TString}}, "p")
	if s.String() != "PDR(d: day, r: string)" {
		t.Errorf("String = %q", s.String())
	}
	if s.DimIndex("r") != 1 || s.DimIndex("zz") != -1 {
		t.Error("DimIndex")
	}
	if got := s.DimNames(); len(got) != 2 || got[0] != "d" {
		t.Errorf("DimNames = %v", got)
	}
	if td := s.TimeDims(); len(td) != 1 || td[0] != 0 {
		t.Errorf("TimeDims = %v", td)
	}
	if s.IsTimeSeries() {
		t.Error("2-dim cube is not a time series")
	}
	if !NewSchema("GDP", []Dim{{Name: "q", Type: TQuarter}}, "").IsTimeSeries() {
		t.Error("GDP(q) is a time series")
	}
	if !s.SameDims(s.Rename("X")) {
		t.Error("rename preserves dims")
	}
	def := NewSchema("X", nil, "")
	if def.Measure != "value" {
		t.Error("default measure")
	}
}

func TestDimTypeMatches(t *testing.T) {
	if !TAnyPeriod.Matches(TDay) || !TDay.Matches(TAnyPeriod) {
		t.Error("any-period must match day")
	}
	if TDay.Matches(TQuarter) {
		t.Error("day must not match quarter")
	}
	if TString.Matches(TInt) {
		t.Error("string must not match int")
	}
	if got, err := ParseDimType("quarter"); err != nil || got != TQuarter {
		t.Errorf("ParseDimType quarter = %v, %v", got, err)
	}
	if got, err := ParseDimType("text"); err != nil || got != TString {
		t.Errorf("ParseDimType text = %v, %v", got, err)
	}
	if _, err := ParseDimType("blob"); err == nil {
		t.Error("unknown type must fail")
	}
}

func BenchmarkCubePut(b *testing.B) {
	sch := rgdpSchema()
	regions := []Value{Str("north"), Str("south"), Str("centre"), Str("islands")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCube(sch)
		for q := 0; q < 40; q++ {
			for _, r := range regions {
				_ = c.Put([]Value{Per(Period{Freq: Quarterly, Ord: int64(q)}), r}, float64(q))
			}
		}
	}
	_ = time.Now
}

func TestFreezeRejectsMutation(t *testing.T) {
	c := NewCube(rgdpSchema())
	dims := []Value{Per(Period{Freq: Quarterly, Ord: 1}), Str("north")}
	if err := c.Put(dims, 1); err != nil {
		t.Fatal(err)
	}
	if c.Frozen() {
		t.Fatal("new cube is frozen")
	}
	if got := c.Freeze(); got != c {
		t.Error("Freeze must return its receiver")
	}
	if !c.Frozen() {
		t.Fatal("Freeze did not mark the cube")
	}
	if err := c.Put(dims, 2); !errors.Is(err, ErrFrozen) {
		t.Errorf("Put on frozen cube: err = %v, want ErrFrozen", err)
	}
	if err := c.Replace(dims, 2); !errors.Is(err, ErrFrozen) {
		t.Errorf("Replace on frozen cube: err = %v, want ErrFrozen", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Delete on frozen cube must panic")
			}
		}()
		c.Delete(dims)
	}()
	// Reads still work, and the frozen tuple is intact.
	if v, ok := c.Get(dims); !ok || v != 1 {
		t.Errorf("Get after rejected mutations = %v, %v", v, ok)
	}
	if cl := c.Clone(); cl.Frozen() {
		t.Error("Clone inherits frozen flag")
	}
}
