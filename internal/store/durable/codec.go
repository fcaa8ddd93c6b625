package durable

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"exlengine/internal/model"
	"exlengine/internal/store"
)

// WAL record opcodes. A record is one committed store mutation.
const (
	opPut       byte = 1 // one cube version, in full (written before delta records existed)
	opPutAll    byte = 2 // an atomic batch of cube versions, in full (likewise)
	opDeclare   byte = 3 // a schema declaration (does not bump the generation)
	opCommit    byte = 4 // an atomic batch of cube versions, each in full or as a delta (written before provenance)
	opCommitGen byte = 5 // opCommit with its generation, and each version's provenance
)

// Layouts of one cube version, oldest first. A record's opcode and a
// segment's magic say which one its versions are in.
const (
	layoutUntagged = 1 // the full form without a form byte (opPut, opPutAll, EXLSEG01)
	layoutTagged   = 2 // a form byte, then the full or the delta form (opCommit, EXLSEG02)
	layoutStamped  = 3 // layoutTagged, then the provenance (opCommitGen, EXLSEG03)
)

// Forms of one cube version in the tagged layouts.
const (
	formFull  byte = 0 // schema and every tuple
	formDelta byte = 1 // the tuples that differ from the version it supersedes
)

// record is the decoded form of one WAL payload; encodeRecord is the
// inverse of decodeRecord.
type record struct {
	op     byte
	asOf   time.Time
	gen    uint64       // opCommitGen: the generation the commit was stamped with
	cubes  []cubeRec    // commit records, sorted by cube name
	schema model.Schema // opDeclare
}

// recordLayout is the layout of the cube versions in a commit record, by
// opcode.
var recordLayout = [...]int{opPut: layoutUntagged, opPutAll: layoutUntagged, opCommit: layoutTagged, opCommitGen: layoutStamped}

// cubeRec is one cube version as the log and the segments hold it: the
// whole cube, or the delta that leads to it from the version it
// supersedes — the cube's latest version when the record was committed,
// the preceding history entry in a segment.
//
// The delta form carries a replay guard, the tuple count of that base and
// of the version the delta leads to, plus the schema, which both share.
// A delta is only ever applied to a cube that matches all three.
type cubeRec struct {
	cube *model.Cube // formFull; nil in the delta form
	prov *store.Provenance

	// formDelta. A decoded delta has neither Base nor Current: applyTo
	// supplies them.
	delta              *model.CubeDelta
	schema             model.Schema
	baseLen, resultLen int
}

func fullRec(c *model.Cube) cubeRec { return cubeRec{cube: c} }

func deltaRec(d *model.CubeDelta) cubeRec {
	return cubeRec{delta: d, schema: d.Current.Schema(), baseLen: d.Base.Len(), resultLen: d.Current.Len()}
}

func (r cubeRec) name() string {
	if r.cube != nil {
		return r.cube.Schema().Name
	}
	return r.schema.Name
}

// applyTo resolves the record against base, the version it supersedes
// (nil when there is none): the full form is the cube itself, the delta
// form is applied to base (model.Cube.Apply). It returns the frozen version
// and, for the delta form, the delta from base to it. A delta whose guard
// does not match base, or that adds a tuple base has, or changes or deletes
// one it has not (or has with another measure than the one recorded as
// deleted), was not made from base: it is an error, and nothing is applied.
func (r cubeRec) applyTo(base *model.Cube) (*model.Cube, *model.CubeDelta, error) {
	if r.cube != nil {
		return r.cube.Snapshot(), nil, nil
	}
	name := r.schema.Name
	if base == nil {
		return nil, nil, fmt.Errorf("durable: delta of %s has no version to apply to", name)
	}
	if base.Len() != r.baseLen || !base.Schema().Equal(r.schema) {
		return nil, nil, fmt.Errorf("durable: delta of %s was made from %d tuples of %s, the version it meets has %d of %s",
			name, r.baseLen, r.schema, base.Len(), base.Schema())
	}
	for _, t := range r.delta.Deleted {
		// A tuple base lacks altogether is left for Apply to name.
		if old, had := base.Get(t.Dims); had && math.Float64bits(old) != math.Float64bits(t.Measure) {
			return nil, nil, fmt.Errorf("durable: delta of %s deletes %v -> %v, which its base has as %v", name, t.Dims, t.Measure, old)
		}
	}
	cur, err := base.Apply(r.delta.Added, r.delta.Changed, r.delta.Deleted)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	if cur.Len() != r.resultLen {
		return nil, nil, fmt.Errorf("durable: delta of %s leads to %d tuples, not the %d recorded", name, cur.Len(), r.resultLen)
	}
	return cur, &model.CubeDelta{Name: name, Base: base, Current: cur,
		Added: r.delta.Added, Changed: r.delta.Changed, Deleted: r.delta.Deleted}, nil
}

// replayable reports whether a delta record made from d would pass applyTo
// when it meets d.Base again: the sizes add up, and every tuple d lists is
// in its two cubes where and as d says. It is what the store checks of a
// delta it did not compute itself before logging it, so that it never
// writes a record recovery would refuse; it costs a probe per listed tuple.
// (That d lists every tuple in which the cubes differ it cannot show.)
func replayable(d *model.CubeDelta) bool {
	same := func(c *model.Cube, t model.Tuple) bool {
		m, ok := c.Get(t.Dims)
		return ok && math.Float64bits(m) == math.Float64bits(t.Measure)
	}
	has := func(c *model.Cube, t model.Tuple) bool {
		_, ok := c.Get(t.Dims)
		return ok
	}
	for _, t := range d.Added {
		if has(d.Base, t) || !same(d.Current, t) {
			return false
		}
	}
	for _, t := range d.Changed {
		if !has(d.Base, t) || !same(d.Current, t) {
			return false
		}
	}
	for _, t := range d.Deleted {
		if !same(d.Base, t) || has(d.Current, t) {
			return false
		}
	}
	return d.Base.Len()+len(d.Added)-len(d.Deleted) == d.Current.Len()
}

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
	if n <= 0 || !minimalVarint(d.b[d.off:d.off+n]) {
		d.fail("durable: truncated or padded uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// minimalVarint reports whether a varint spends no more bytes than its
// value needs, as the encoder never does: a last byte of zero behind
// another is padding. With this, boolean bytes of 0 or 1 and cubes in cube
// order, no two byte strings decode to the same value.
func minimalVarint(enc []byte) bool { return len(enc) == 1 || enc[len(enc)-1] != 0 }

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 || !minimalVarint(d.b[d.off:d.off+n]) {
		d.fail("durable: truncated or padded varint at offset %d", d.off)
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
		b := d.byte()
		if b > 1 {
			d.fail("durable: boolean byte %d", b)
		}
		return model.Bool(b != 0)
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
		b = appendTuple(b, tu)
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
	b := model.NewBuilder(sch)
	dims := make([]model.Value, len(sch.Dims))
	for i := uint64(0); i < n && d.err == nil; i++ {
		for j := range dims {
			dims[j] = d.value()
		}
		m := d.float()
		if d.err != nil {
			return nil
		}
		if err := b.Add(dims, m); err != nil {
			d.fail("durable: cube %s tuple: %v", sch.Name, err)
			return nil
		}
		// The cube order is part of the format: it makes the bytes a
		// function of the cube, and a repeated tuple impossible.
		if !b.InOrder() {
			d.fail("durable: cube %s tuple %d is out of order", sch.Name, i)
			return nil
		}
	}
	c, _ := b.Build() // in order, so no tuple came twice: there is no egd to fail
	return c
}

// --- cube versions: full or delta -----------------------------------------

func appendTuple(b []byte, tu model.Tuple) []byte {
	for _, v := range tu.Dims {
		b = appendValue(b, v)
	}
	return appendFloat(b, tu.Measure)
}

func appendTuples(b []byte, ts []model.Tuple) []byte {
	b = appendUvarint(b, uint64(len(ts)))
	for _, tu := range ts {
		b = appendTuple(b, tu)
	}
	return b
}

// tuples reads a list appendTuples wrote for tuples of ndims dimensions.
func (d *decoder) tuples(ndims int) []model.Tuple {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off)/8 { // each tuple takes at least its measure
		d.fail("durable: list claims %d tuples in %d bytes", n, len(d.b)-d.off)
		return nil
	}
	ts := make([]model.Tuple, n)
	for i := 0; i < len(ts) && d.err == nil; i++ {
		ts[i].Dims = make([]model.Value, ndims)
		for j := range ts[i].Dims {
			ts[i].Dims[j] = d.value()
		}
		ts[i].Measure = d.float()
	}
	return ts
}

// appendCubeRec writes one cube version in the given layout.
func appendCubeRec(b []byte, r cubeRec, layout int) []byte {
	switch {
	case r.cube == nil:
		b = appendSchema(append(b, formDelta), r.schema)
		b = appendUvarint(b, uint64(r.baseLen))
		b = appendUvarint(b, uint64(r.resultLen))
		b = appendTuples(b, r.delta.Added)
		b = appendTuples(b, r.delta.Changed)
		b = appendTuples(b, r.delta.Deleted)
	case layout == layoutUntagged:
		return appendCube(b, r.cube)
	default:
		b = appendCube(append(b, formFull), r.cube)
	}
	if layout == layoutStamped {
		b = appendProv(b, r.prov)
	}
	return b
}

func (d *decoder) cubeRec(layout int) cubeRec {
	r := d.cubeForm(layout != layoutUntagged)
	if layout == layoutStamped {
		r.prov = d.prov()
	}
	return r
}

// appendProv writes a version's provenance: 0 for none, else 1 + the
// number of operands, the statement fingerprint, then each operand's name
// and generation in name order.
func appendProv(b []byte, p *store.Provenance) []byte {
	if p == nil {
		return appendUvarint(b, 0)
	}
	b = appendUvarint(b, uint64(len(p.Inputs))+1)
	b = appendUvarint(b, p.Stmt)
	names := make([]string, 0, len(p.Inputs))
	for n := range p.Inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b = appendUvarint(appendString(b, n), p.Inputs[n])
	}
	return b
}

func (d *decoder) prov() *store.Provenance {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n-1 > uint64(len(d.b)-d.off)/2 { // each operand takes at least two bytes
		d.fail("durable: provenance claims %d operands", n-1)
		return nil
	}
	p := &store.Provenance{Stmt: d.uvarint(), Inputs: make(map[string]uint64, n-1)}
	last := ""
	for i := uint64(1); i < n && d.err == nil; i++ {
		name := d.string()
		if i > 1 && name <= last {
			d.fail("durable: provenance operands out of order: %s after %s", name, last)
		}
		p.Inputs[name], last = d.uvarint(), name
	}
	return p
}

// cubeForm reads a cube version in the full or the delta form; untagged,
// it is the full form without a form byte.
func (d *decoder) cubeForm(tagged bool) cubeRec {
	form := formFull
	if tagged {
		form = d.byte()
	}
	switch form {
	case formFull:
		return fullRec(d.cube())
	case formDelta:
		r := cubeRec{schema: d.schema(), delta: &model.CubeDelta{}}
		baseLen, resultLen := d.uvarint(), d.uvarint()
		nd := len(r.schema.Dims)
		r.delta.Name = r.schema.Name
		r.delta.Added = d.tuples(nd)
		r.delta.Changed = d.tuples(nd)
		r.delta.Deleted = d.tuples(nd)
		if d.err != nil {
			return r
		}
		if baseLen > math.MaxInt || resultLen > math.MaxInt ||
			baseLen+uint64(len(r.delta.Added)) != resultLen+uint64(len(r.delta.Deleted)) {
			d.fail("durable: delta of %s: %d tuples +%d -%d cannot make %d",
				r.schema.Name, baseLen, len(r.delta.Added), len(r.delta.Deleted), resultLen)
		}
		r.baseLen, r.resultLen = int(baseLen), int(resultLen)
		return r
	default:
		d.fail("durable: unknown cube form %d", form)
		return cubeRec{}
	}
}

// --- records ------------------------------------------------------------

// commitRecord builds the record of the commit at generation gen from its
// cubes, in any order.
func commitRecord(asOf time.Time, gen uint64, cubes []cubeRec) *record {
	sort.Slice(cubes, func(i, j int) bool { return cubes[i].name() < cubes[j].name() })
	return &record{op: opCommitGen, asOf: asOf, gen: gen, cubes: cubes}
}

// encodeRecord serializes a record. opPut, opPutAll and opCommit are what
// stores wrote before opCommitGen existed: one cube, or a counted batch, in
// the full form without a form byte, then in either form without a
// provenance. They are still encoded so that a test can build such a log,
// and so that every decodable record encodes back to its bytes.
func encodeRecord(r *record) []byte {
	b := []byte{r.op}
	if r.op == opDeclare {
		return appendSchema(b, r.schema)
	}
	b = appendVarint(b, r.asOf.UnixNano())
	if r.op == opCommitGen {
		b = appendUvarint(b, r.gen)
	}
	if r.op != opPut {
		b = appendUvarint(b, uint64(len(r.cubes)))
	}
	for _, c := range r.cubes {
		b = appendCubeRec(b, c, recordLayout[r.op])
	}
	return b
}

func decodeRecord(payload []byte) (*record, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("durable: empty record")
	}
	d := &decoder{b: payload, off: 1}
	r := &record{op: payload[0]}
	switch r.op {
	case opPut, opPutAll, opCommit, opCommitGen:
		r.asOf = time.Unix(0, d.varint())
		if r.op == opCommitGen {
			r.gen = d.uvarint()
		}
		n := uint64(1)
		if r.op != opPut {
			n = d.uvarint()
		}
		if d.err != nil {
			return nil, d.err
		}
		if n > uint64(len(payload)) {
			return nil, fmt.Errorf("durable: batch claims %d cubes", n)
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			c := d.cubeRec(recordLayout[r.op])
			if d.err == nil && i > 0 && r.cubes[i-1].name() >= c.name() {
				d.fail("durable: batch cubes out of order: %s before %s", r.cubes[i-1].name(), c.name())
			}
			r.cubes = append(r.cubes, c)
		}
	case opDeclare:
		r.schema = d.schema()
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
