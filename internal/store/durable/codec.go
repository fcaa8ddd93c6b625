package durable

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"exlengine/internal/model"
)

// WAL record opcodes. A record is one committed store mutation.
const (
	opPut     byte = 1 // one cube version
	opPutAll  byte = 2 // an atomic batch of cube versions
	opDeclare byte = 3 // a schema declaration (does not bump the generation)
)

// record is the decoded form of one WAL payload.
type record struct {
	op     byte
	asOf   time.Time
	cubes  map[string]*model.Cube // opPut / opPutAll
	schema model.Schema           // opDeclare
}

// bumpsGeneration reports whether replaying the record advances the
// store's write generation (Declare does not).
func (r *record) bumpsGeneration() bool { return r.op == opPut || r.op == opPutAll }

// --- primitive encoders -------------------------------------------------

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// decoder reads the primitives back, tracking a sticky error so decode
// code stays linear. Corruption that slips past the CRC (or a version
// mismatch) surfaces as a decode error, which recovery treats exactly
// like a bad checksum: truncate at the record.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("durable: truncated uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("durable: truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("durable: truncated byte at offset %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)-d.off) < n {
		d.fail("durable: truncated string of length %d at offset %d", n, d.off)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b)-d.off < 8 {
		d.fail("durable: truncated float at offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// --- values -------------------------------------------------------------

func appendValue(b []byte, v model.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case model.KindNumber:
		f, _ := v.AsNumber()
		b = appendFloat(b, f)
	case model.KindInt:
		i, _ := v.AsInt()
		b = appendVarint(b, i)
	case model.KindString:
		s, _ := v.AsString()
		b = appendString(b, s)
	case model.KindPeriod:
		p, _ := v.AsPeriod()
		b = append(b, byte(p.Freq))
		b = appendVarint(b, p.Ord)
	case model.KindBool:
		bv, _ := v.AsBool()
		if bv {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func (d *decoder) value() model.Value {
	switch k := model.Kind(d.byte()); k {
	case model.KindNumber:
		return model.Num(d.float())
	case model.KindInt:
		return model.Int(d.varint())
	case model.KindString:
		return model.Str(d.string())
	case model.KindPeriod:
		f := model.Frequency(d.byte())
		return model.Per(model.Period{Freq: f, Ord: d.varint()})
	case model.KindBool:
		return model.Bool(d.byte() != 0)
	default:
		d.fail("durable: unknown value kind %d", k)
		return model.Value{}
	}
}

// --- schemas and cubes --------------------------------------------------

func appendSchema(b []byte, sch model.Schema) []byte {
	b = appendString(b, sch.Name)
	b = appendString(b, sch.Measure)
	b = appendUvarint(b, uint64(len(sch.Dims)))
	for _, dim := range sch.Dims {
		b = appendString(b, dim.Name)
		b = append(b, byte(dim.Type.Kind), byte(dim.Type.Freq))
	}
	return b
}

func (d *decoder) schema() model.Schema {
	sch := model.Schema{Name: d.string(), Measure: d.string()}
	n := d.uvarint()
	if d.err != nil {
		return sch
	}
	if n > uint64(len(d.b)) { // each dim takes at least one byte
		d.fail("durable: schema %s claims %d dimensions", sch.Name, n)
		return sch
	}
	sch.Dims = make([]model.Dim, n)
	for i := range sch.Dims {
		sch.Dims[i] = model.Dim{
			Name: d.string(),
			Type: model.DimType{Kind: model.DimKind(d.byte()), Freq: model.Frequency(d.byte())},
		}
	}
	return sch
}

// appendCube serializes the schema plus every tuple in deterministic
// (sorted) order, so identical cubes always encode to identical bytes.
func appendCube(b []byte, c *model.Cube) []byte {
	b = appendSchema(b, c.Schema())
	b = appendUvarint(b, uint64(c.Len()))
	_ = c.Ordered(func(tu model.Tuple) error {
		for _, v := range tu.Dims {
			b = appendValue(b, v)
		}
		b = appendFloat(b, tu.Measure)
		return nil
	})
	return b
}

func (d *decoder) cube() *model.Cube {
	sch := d.schema()
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) { // each tuple takes at least one byte
		d.fail("durable: cube %s claims %d tuples", sch.Name, n)
		return nil
	}
	c := model.NewCube(sch)
	dims := make([]model.Value, len(sch.Dims))
	for i := uint64(0); i < n && d.err == nil; i++ {
		for j := range dims {
			dims[j] = d.value()
		}
		m := d.float()
		if d.err != nil {
			return nil
		}
		if err := c.Replace(dims, m); err != nil {
			d.fail("durable: cube %s tuple: %v", sch.Name, err)
			return nil
		}
	}
	return c
}

// --- records ------------------------------------------------------------

func encodePut(c *model.Cube, asOf time.Time) []byte {
	b := []byte{opPut}
	b = appendVarint(b, asOf.UnixNano())
	return appendCube(b, c)
}

func encodePutAll(cubes map[string]*model.Cube, asOf time.Time) []byte {
	b := []byte{opPutAll}
	b = appendVarint(b, asOf.UnixNano())
	names := make([]string, 0, len(cubes))
	for n := range cubes {
		names = append(names, n)
	}
	sort.Strings(names)
	b = appendUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = appendCube(b, cubes[n])
	}
	return b
}

func encodeDeclare(sch model.Schema) []byte {
	return appendSchema([]byte{opDeclare}, sch)
}

func decodeRecord(payload []byte) (*record, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("durable: empty record")
	}
	d := &decoder{b: payload, off: 1}
	r := &record{op: payload[0]}
	switch r.op {
	case opPut:
		r.asOf = time.Unix(0, d.varint())
		c := d.cube()
		if d.err != nil {
			return nil, d.err
		}
		r.cubes = map[string]*model.Cube{c.Schema().Name: c}
	case opPutAll:
		r.asOf = time.Unix(0, d.varint())
		n := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		if n > uint64(len(payload)) {
			return nil, fmt.Errorf("durable: batch claims %d cubes", n)
		}
		r.cubes = make(map[string]*model.Cube, n)
		for i := uint64(0); i < n; i++ {
			c := d.cube()
			if d.err != nil {
				return nil, d.err
			}
			r.cubes[c.Schema().Name] = c
		}
	case opDeclare:
		r.schema = d.schema()
		if d.err != nil {
			return nil, d.err
		}
	default:
		return nil, fmt.Errorf("durable: unknown record opcode %d", r.op)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("durable: %d trailing bytes after record", len(payload)-d.off)
	}
	return r, nil
}
