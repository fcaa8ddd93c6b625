package model

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// Value kinds. Measures are always numbers; dimensions may be strings,
// integers or periods. Booleans appear only as intermediate results of
// comparisons inside the target engines.
const (
	KindInvalid Kind = iota
	KindNumber
	KindInt
	KindString
	KindPeriod
	KindBool
)

// String returns the lowercase kind name.
func (k Kind) String() string {
	if k > KindBool {
		k = KindInvalid
	}
	return [...]string{"invalid", "number", "int", "string", "period", "bool"}[k]
}

// Value is a dynamically typed scalar: a dimension coordinate or a measure.
// The zero Value is invalid.
//
// It is 32 bytes — two to a cache line, and one pointer for the collector
// to trace: a number is held as its float bits, an int as its two's
// complement, a bool as 0 or 1 and a period as its ordinal (beside freq),
// all in bits; str is the payload of a string and empty otherwise. Every
// constructor leaves the fields its kind does not use zero, so == on two
// Values is a bitwise comparison of their payloads: it implies Equal except
// for a NaN (== to itself where its bits agree, never Equal), and Equal
// implies it except across the numeric kinds (3 and 3.0) and the two zeros.
type Value struct {
	str  string
	bits uint64
	kind Kind
	freq Frequency
}

// Num returns a numeric (float) value.
func Num(f float64) Value { return Value{kind: KindNumber, bits: math.Float64bits(f)} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, bits: uint64(i)} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, str: s} }

// Per returns a period value.
func Per(p Period) Value { return Value{kind: KindPeriod, freq: p.Freq, bits: uint64(p.Ord)} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.bits = 1
	}
	return v
}

func (v Value) num() float64 { return math.Float64frombits(v.bits) }
func (v Value) int() int64   { return int64(v.bits) }
func (v Value) per() Period  { return Period{Freq: v.freq, Ord: int64(v.bits)} }

// Kind reports the value's runtime type.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value has been initialized.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsNumber returns the value as a float64. Integers convert losslessly;
// other kinds report ok=false.
func (v Value) AsNumber() (float64, bool) {
	switch v.kind {
	case KindNumber:
		return v.num(), true
	case KindInt:
		return float64(v.int()), true
	default:
		return 0, false
	}
}

// AsInt returns the value as an int64. Numbers convert only when integral.
func (v Value) AsInt() (int64, bool) {
	switch f := v.num(); {
	case v.kind == KindInt:
		return v.int(), true
	case v.kind == KindNumber && f == float64(int64(f)):
		return int64(f), true
	}
	return 0, false
}

// AsString returns the string payload of a string value.
func (v Value) AsString() (string, bool) {
	if v.kind != KindString {
		return "", false
	}
	return v.str, true
}

// AsPeriod returns the period payload of a period value.
func (v Value) AsPeriod() (Period, bool) {
	if v.kind != KindPeriod {
		return Period{}, false
	}
	return v.per(), true
}

// AsBool returns the boolean payload of a bool value.
func (v Value) AsBool() (bool, bool) {
	if v.kind != KindBool {
		return false, false
	}
	return v.bits != 0, true
}

// String formats the value for display and for CSV export.
func (v Value) String() string {
	switch v.kind {
	case KindNumber:
		return strconv.FormatFloat(v.num(), 'g', -1, 64)
	case KindInt:
		return strconv.FormatInt(v.int(), 10)
	case KindString:
		return v.str
	case KindPeriod:
		return v.per().String()
	case KindBool:
		return strconv.FormatBool(v.bits != 0)
	default:
		return "<invalid>"
	}
}

// Equal reports exact equality of kind and payload. Integers and numbers
// compare equal when they denote the same number, so that dimension values
// computed in different engines (one typed, one numeric) still join.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		a, okA := v.AsNumber()
		b, okB := o.AsNumber()
		return okA && okB && a == b
	}
	switch v.kind {
	case KindNumber:
		return v.num() == o.num()
	case KindInt, KindBool:
		return v.bits == o.bits
	case KindString:
		return v.str == o.str
	case KindPeriod:
		return v.freq == o.freq && v.bits == o.bits
	default:
		return true
	}
}

// Compare defines a total order across values: by kind first (numbers and
// ints compare numerically against each other), then by payload. It is used
// to give cubes a deterministic iteration order.
func (v Value) Compare(o Value) int {
	va, okA := v.AsNumber()
	vb, okB := o.AsNumber()
	if okA && okB {
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		default:
			return 0
		}
	}
	switch {
	case v.kind != o.kind:
		return cmp.Compare(v.kind, o.kind)
	case v.kind == KindString:
		return strings.Compare(v.str, o.str)
	case v.kind == KindPeriod:
		return v.per().Compare(o.per())
	}
	return cmp.Compare(v.bits, o.bits) // a bool's; 0 for two invalid values
}

// EncodeKey builds the canonical string key of a dimension tuple: its
// AppendKey encoding. Two tuples encode to the same key exactly when all
// their values are Equal, and the byte order of the keys of equal-width
// tuples is the cube order (see AppendKey).
func EncodeKey(dims []Value) string {
	return string(AppendKey(make([]byte, 0, 16*len(dims)), dims))
}

// AppendKey appends the tuple's key to b and returns the extended buffer:
// the AppendOrderedKey encodings of its values, concatenated. Every
// encoded value is self-delimiting, so keys are injective, the keys of
// equal-width tuples are prefix-free, and plain byte comparison orders
// them dimension by dimension. The one encoding serves as the cube's
// row key, as every hash-join, grouping and dedup key, and as the
// sort key of the cube order. Hash-heavy paths use it with a reused
// buffer and map[string(...)] lookups to avoid allocating a string per
// probed row.
func AppendKey(b []byte, dims []Value) []byte {
	for _, v := range dims {
		b = AppendOrderedKey(b, v)
	}
	return b
}

// AppendOrderedKey appends an order-preserving binary encoding of the
// value to b: for any two valid values x and y, bytes.Compare of their
// encodings equals x.Compare(y) (up to ties — values that Compare equal,
// such as 3 and 3.0, encode identically, which is also when Equal holds).
// Invalid values encode as a single 0xFF byte and sort after every valid
// value — the engines' NULLS LAST rule, not Compare's kind order.
// Numeric payloads are raw fixed-width bits rather than formatted text,
// which keeps strconv off the hash-join and grouping hot paths.
//
// NaN is the one valid value Compare does not order (it compares equal
// to every number); the key order places it by its bits: a NaN with the
// sign bit clear (math.NaN) sorts after +Inf, one with the sign bit set
// before -Inf. Cube order is this byte order, so it is total even there.
func AppendOrderedKey(b []byte, v Value) []byte {
	switch v.kind {
	case KindNumber, KindInt:
		// One tag for both numeric kinds: Compare orders them jointly by
		// numeric value and Equal compares them numerically (ints via the
		// same float64 conversion), so 3 and 3.0 must collide.
		f := v.num()
		if v.kind == KindInt {
			f = float64(v.int())
		}
		if f == 0 {
			f = 0 // collapse -0.0 and +0.0, which Equal treats as equal
		}
		u := math.Float64bits(f)
		if u&(1<<63) != 0 {
			u = ^u
		} else {
			u |= 1 << 63
		}
		b = append(b, 0x01)
		b = binary.BigEndian.AppendUint64(b, u)
	case KindString:
		// 0x00 bytes escape to (0x00,0x01) and the terminator is
		// (0x00,0x00), so a string that is a prefix of another sorts first
		// and embedded NULs cannot collide with the terminator.
		b = append(b, 0x02)
		s := v.str
		if strings.IndexByte(s, 0x00) < 0 {
			b = append(b, s...)
		} else {
			for i := 0; i < len(s); i++ {
				if s[i] == 0x00 {
					b = append(b, 0x00, 0x01)
				} else {
					b = append(b, s[i])
				}
			}
		}
		b = append(b, 0x00, 0x00)
	case KindPeriod:
		b = append(b, 0x03, byte(v.freq))
		b = binary.BigEndian.AppendUint64(b, v.bits^(1<<63))
	case KindBool:
		b = append(b, 0x04, byte(v.bits))
	default:
		b = append(b, 0xFF)
	}
	return b
}

// ParseValue parses a textual representation into a Value of the given
// dimension type. It is used by the CSV loader.
func ParseValue(s string, t DimType) (Value, error) {
	switch t.Kind {
	case DimString:
		return Str(s), nil
	case DimInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("model: invalid int %q: %v", s, err)
		}
		return Int(i), nil
	case DimPeriod:
		p, err := ParsePeriod(s)
		if err != nil {
			return Value{}, err
		}
		if t.Freq != FreqInvalid && p.Freq != t.Freq {
			return Value{}, fmt.Errorf("model: period %q has frequency %s, want %s", s, p.Freq, t.Freq)
		}
		return Per(p), nil
	default:
		return Value{}, fmt.Errorf("model: cannot parse value for dimension kind %v", t.Kind)
	}
}
