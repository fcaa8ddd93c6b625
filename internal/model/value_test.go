package model

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// TestValueSize: two Values to a cache line. Every column, row and Dims
// slice in the repository is sized by this; MemEstimate reads it.
func TestValueSize(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", size)
	}
}

// TestValueIdentity pins what == on Values means for the payloads where it
// is not Equal: it is bitwise.
func TestValueIdentity(t *testing.T) {
	nan, other := math.NaN(), math.Float64frombits(math.Float64bits(math.NaN())^1)
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name        string
		a, b        Value
		same, equal bool
	}{
		{"one NaN payload", Num(nan), Num(nan), true, false},
		{"two NaN payloads", Num(nan), Num(other), false, false},
		{"the two zeros", Num(0), Num(negZero), false, true},
		{"3 and 3.0", Int(3), Num(3), false, true},
		{"a period and its ordinal", Per(NewAnnual(2000)), Int(2000), false, false},
		{"a quarter and the year of that ordinal", Per(Period{Quarterly, 8000}), Per(Period{Annual, 8000}), false, false},
		{"equal strings apart in memory", Str(strings.Repeat("ab", 2)), Str("abab"), true, true},
		{"true and 1", Bool(true), Int(1), false, false},
	} {
		if got := c.a == c.b; got != c.same {
			t.Errorf("%s: == is %v, want %v", c.name, got, c.same)
		}
		if got := c.a.Equal(c.b); got != c.equal {
			t.Errorf("%s: Equal is %v, want %v", c.name, got, c.equal)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if f, ok := Num(2.5).AsNumber(); !ok || f != 2.5 {
		t.Error("Num accessor")
	}
	if i, ok := Int(7).AsInt(); !ok || i != 7 {
		t.Error("Int accessor")
	}
	if f, ok := Int(7).AsNumber(); !ok || f != 7 {
		t.Error("Int as number")
	}
	if i, ok := Num(7).AsInt(); !ok || i != 7 {
		t.Error("integral Num as int")
	}
	if _, ok := Num(7.5).AsInt(); ok {
		t.Error("fractional Num must not convert to int")
	}
	if s, ok := Str("x").AsString(); !ok || s != "x" {
		t.Error("Str accessor")
	}
	p := NewQuarterly(2001, 3)
	if got, ok := Per(p).AsPeriod(); !ok || got != p {
		t.Error("Per accessor")
	}
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Error("Bool accessor")
	}
	if _, ok := Str("x").AsNumber(); ok {
		t.Error("string as number must fail")
	}
	var zero Value
	if zero.IsValid() {
		t.Error("zero Value must be invalid")
	}
}

func TestValueEqualAcrossNumericKinds(t *testing.T) {
	if !Int(3).Equal(Num(3)) || !Num(3).Equal(Int(3)) {
		t.Error("3 and 3.0 must be equal")
	}
	if Int(3).Equal(Num(3.5)) {
		t.Error("3 and 3.5 must differ")
	}
	if Str("3").Equal(Int(3)) {
		t.Error("string \"3\" must not equal int 3")
	}
}

func TestEncodeKeyInjective(t *testing.T) {
	// Distinct tuples encode differently; numerically equal int/float
	// collide on purpose.
	a := EncodeKey([]Value{Str("ab"), Str("c")})
	b := EncodeKey([]Value{Str("a"), Str("bc")})
	if a == b {
		t.Error("string boundary collision")
	}
	if EncodeKey([]Value{Int(3)}) != EncodeKey([]Value{Num(3)}) {
		t.Error("3 and 3.0 must share a key")
	}
	if EncodeKey([]Value{Per(NewAnnual(3))}) == EncodeKey([]Value{Int(3)}) {
		t.Error("period 3 and int 3 must not share a key")
	}
	if EncodeKey([]Value{Per(NewAnnual(3))}) == EncodeKey([]Value{Per(NewQuarterly(0, 4))}) {
		t.Error("periods of different frequency must not share a key")
	}
}

func TestEncodeKeyQuick(t *testing.T) {
	f := func(a, b string, x, y int64) bool {
		ka := EncodeKey([]Value{Str(a), Int(x)})
		kb := EncodeKey([]Value{Str(b), Int(y)})
		return (ka == kb) == (a == b && x == y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendOrderedKeyMatchesCompare(t *testing.T) {
	vals := []Value{
		{}, // invalid (NULL): must sort after everything
		Num(math.Inf(-1)), Num(-3.5), Num(-0.0), Num(0), Int(0), Num(2.5),
		Int(3), Num(3), Num(1e18), Num(math.Inf(1)),
		Str(""), Str("a"), Str("ab"), Str("a\x00b"), Str("b"),
		Per(NewDaily(2001, time.January, 1)), Per(NewMonthly(2001, time.March)),
		Per(NewQuarterly(2001, 2)), Per(NewAnnual(1999)), Per(NewAnnual(2001)),
		Bool(false), Bool(true),
	}
	key := func(v Value) string { return string(AppendOrderedKey(nil, v)) }
	cmpRef := func(a, b Value) int {
		switch {
		case !a.IsValid() && !b.IsValid():
			return 0
		case !a.IsValid():
			return 1
		case !b.IsValid():
			return -1
		default:
			return a.Compare(b)
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			got := strings.Compare(key(a), key(b))
			want := cmpRef(a, b)
			if got != want {
				t.Errorf("ordered key Compare(%v, %v) = %d, want %d", a, b, got, want)
			}
		}
	}
	f := func(x, y float64, s, u string) bool {
		return strings.Compare(key(Num(x)), key(Num(y))) == Num(x).Compare(Num(y)) &&
			strings.Compare(key(Str(s)), key(Str(u))) == Str(s).Compare(Str(u))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	vals := []Value{Num(1), Int(2), Num(2.5), Str("a"), Str("b"),
		Per(NewDaily(2001, time.January, 1)), Per(NewAnnual(2001)), Bool(false), Bool(true)}
	for i, a := range vals {
		if a.Compare(a) != 0 {
			t.Errorf("Compare(self) != 0 for %v", a)
		}
		for j, b := range vals {
			if i == j {
				continue
			}
			if a.Compare(b) != -b.Compare(a) {
				t.Errorf("antisymmetry violated for %v vs %v", a, b)
			}
		}
	}
	if Num(1).Compare(Int(2)) != -1 || Int(2).Compare(Num(1)) != 1 {
		t.Error("cross-kind numeric comparison wrong")
	}
}

func TestValueString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Num(2.5), "2.5"},
		{Num(3), "3"},
		{Int(-7), "-7"},
		{Str("roma"), "roma"},
		{Per(NewQuarterly(2020, 2)), "2020-Q2"},
		{Bool(true), "true"},
		{Bool(false), "false"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String(%v) = %q, want %q", tt.v.Kind(), got, tt.want)
		}
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue("42", TInt)
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.AsInt(); i != 42 {
		t.Errorf("ParseValue int = %v", v)
	}
	v, err = ParseValue("2001-Q3", TQuarter)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := v.AsPeriod(); p != NewQuarterly(2001, 3) {
		t.Errorf("ParseValue period = %v", v)
	}
	if _, err := ParseValue("2001-Q3", TDay); err == nil {
		t.Error("frequency mismatch must fail")
	}
	if _, err := ParseValue("abc", TInt); err == nil {
		t.Error("bad int must fail")
	}
	v, err = ParseValue("north", TString)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := v.AsString(); s != "north" {
		t.Errorf("ParseValue string = %v", v)
	}
}
