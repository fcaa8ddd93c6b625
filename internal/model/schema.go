package model

import (
	"fmt"
	"slices"
	"strings"
)

// DimKind classifies a dimension's domain.
type DimKind uint8

// Dimension domains supported by the Matrix model as implemented here.
const (
	DimInvalid DimKind = iota
	DimString
	DimInt
	DimPeriod
)

// String returns the EXL type name of the kind ("string", "int"; period
// kinds are named by frequency, see DimType.String).
func (k DimKind) String() string {
	if k > DimPeriod {
		k = DimInvalid
	}
	return [...]string{"invalid", "string", "int", "period"}[k]
}

// DimType is the full type of a dimension: its kind, plus the frequency for
// time dimensions. A DimType with Kind DimPeriod and FreqInvalid matches
// periods of any frequency (used by generic operators).
type DimType struct {
	Kind DimKind
	Freq Frequency
}

// Convenience dimension types.
var (
	TString    = DimType{Kind: DimString}
	TInt       = DimType{Kind: DimInt}
	TDay       = DimType{Kind: DimPeriod, Freq: Daily}
	TMonth     = DimType{Kind: DimPeriod, Freq: Monthly}
	TQuarter   = DimType{Kind: DimPeriod, Freq: Quarterly}
	TYear      = DimType{Kind: DimPeriod, Freq: Annual}
	TAnyPeriod = DimType{Kind: DimPeriod}
)

// IsTime reports whether the dimension is a time dimension.
func (t DimType) IsTime() bool { return t.Kind == DimPeriod }

// String returns the EXL declaration name of the type.
func (t DimType) String() string {
	if t.Kind == DimPeriod && t.Freq != FreqInvalid {
		return t.Freq.String()
	}
	return t.Kind.String()
}

// ParseDimType parses an EXL declaration type name ("string", "int", "day",
// "month", "quarter", "year").
func ParseDimType(s string) (DimType, error) {
	switch strings.ToLower(s) {
	case "string", "text":
		return TString, nil
	case "int", "integer":
		return TInt, nil
	}
	f, err := ParseFrequency(s)
	if err != nil {
		return DimType{}, fmt.Errorf("model: unknown dimension type %q", s)
	}
	return DimType{Kind: DimPeriod, Freq: f}, nil
}

// Matches reports whether a value of type o can flow into a slot of type t.
// An unspecified period frequency matches any period.
func (t DimType) Matches(o DimType) bool {
	return t.Kind == o.Kind && (t.Kind != DimPeriod || t.Freq == FreqInvalid || o.Freq == FreqInvalid || t.Freq == o.Freq)
}

// Dim is a named, typed dimension of a cube.
type Dim struct {
	Name string
	Type DimType
}

// Schema describes a cube: its identifier, ordered dimensions and the
// measure name. As in the paper, every cube has exactly one numeric
// measure.
type Schema struct {
	Name    string
	Dims    []Dim
	Measure string
}

// NewSchema builds a schema; if measure is empty it defaults to "value".
func NewSchema(name string, dims []Dim, measure string) Schema {
	if measure == "" {
		measure = "value"
	}
	return Schema{Name: name, Dims: dims, Measure: measure}
}

// DimIndex returns the position of the named dimension, or -1.
func (s Schema) DimIndex(name string) int {
	for i, d := range s.Dims {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// DimNames returns the dimension names in order.
func (s Schema) DimNames() []string {
	out := make([]string, len(s.Dims))
	for i, d := range s.Dims {
		out[i] = d.Name
	}
	return out
}

// TimeDims returns the indexes of the time dimensions.
func (s Schema) TimeDims() []int {
	var out []int
	for i, d := range s.Dims {
		if d.Type.IsTime() {
			out = append(out, i)
		}
	}
	return out
}

// IsTimeSeries reports whether the cube is a time series: exactly one
// dimension, and it is a time dimension.
func (s Schema) IsTimeSeries() bool {
	return len(s.Dims) == 1 && s.Dims[0].Type.IsTime()
}

// SameDims reports whether two schemas have the same dimensions (names and
// types, in order). This is the compatibility condition for vectorial
// operators.
func (s Schema) SameDims(o Schema) bool {
	if len(s.Dims) != len(o.Dims) {
		return false
	}
	for i := range s.Dims {
		if s.Dims[i].Name != o.Dims[i].Name || !s.Dims[i].Type.Matches(o.Dims[i].Type) {
			return false
		}
	}
	return true
}

// Equal reports whether two schemas are the same in every part: cube name,
// measure name, and dimension names and types as declared.
func (s Schema) Equal(o Schema) bool {
	return s.Name == o.Name && s.Measure == o.Measure && slices.Equal(s.Dims, o.Dims)
}

// String renders the schema as an EXL cube declaration,
// e.g. "PDR(d: day, r: string)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, d := range s.Dims {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", d.Name, d.Type)
	}
	b.WriteByte(')')
	return b.String()
}

// Rename returns a copy of the schema under a new cube name.
func (s Schema) Rename(name string) Schema {
	out := Schema{Name: name, Dims: make([]Dim, len(s.Dims)), Measure: s.Measure}
	copy(out.Dims, s.Dims)
	return out
}
