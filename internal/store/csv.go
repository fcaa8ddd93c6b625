package store

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"exlengine/internal/model"
)

// WriteCSV exports a cube: a header of dimension names plus the measure,
// then one row per tuple in deterministic order.
//
// Non-finite measures (NaN, ±Inf) are rejected: a cube is a partial
// function into the reals, undefined points are represented by absent
// tuples rather than sentinel floats, and a NaN that slipped into a cube
// would otherwise round-trip through text ("NaN" parses back) and poison
// later comparisons, where NaN != NaN hides the corruption.
//
// The whole cube is validated before the first byte is written: callers
// stream WriteCSV straight into HTTP response bodies, and a mid-stream
// rejection there would arrive after a 200 status and half a body — a
// torn response the client cannot distinguish from success. Validation
// failure must happen while the caller can still choose an error path.
//
// A row costs no allocation: the measure is formatted into one scratch, and
// a dimension value == to the one above it is written as that one was — the
// mirror of ReadCSVOn's memo.
func WriteCSV(w io.Writer, c *model.Cube) error {
	sch := c.Schema()
	err := c.Ordered(func(tu model.Tuple) error {
		if math.IsNaN(tu.Measure) || math.IsInf(tu.Measure, 0) {
			return fmt.Errorf("store: cube %s has non-finite measure %v at %v; undefined points must be absent tuples, not NaN/Inf",
				sch.Name, tu.Measure, tu.Dims)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The text of a field is what encoding/csv writes for a record of it
	// alone: whether and how it quotes a field does not depend on the others.
	var field bytes.Buffer
	cw, one := csv.NewWriter(&field), make([]string, 1)
	appendField := func(b []byte, s string) []byte {
		field.Reset()
		one[0] = s
		_ = cw.Write(one) // into a bytes.Buffer
		cw.Flush()
		return append(b, field.Bytes()[:field.Len()-1]...)
	}
	var row []byte
	for _, name := range sch.DimNames() {
		row = append(appendField(row, name), ',')
	}
	row = append(appendField(row, sch.Measure), '\n')
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(row); err != nil {
		return err
	}
	above := make([]model.Value, len(sch.Dims))
	texts := make([][]byte, len(sch.Dims)) // above, as written
	first := true
	err = c.Ordered(func(tu model.Tuple) error {
		row = row[:0]
		for i, v := range tu.Dims {
			if first || v != above[i] {
				above[i], texts[i] = v, appendField(texts[i][:0], v.String())
			}
			row = append(append(row, texts[i]...), ',')
		}
		first = false
		// A finite number in 'g' holds nothing that would have it quoted.
		row = append(strconv.AppendFloat(row, tu.Measure, 'g', -1, 64), '\n')
		_, err := bw.Write(row)
		return err
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV imports a cube under the given schema, frozen: ReadCSVOn without a
// predecessor.
func ReadCSV(r io.Reader, sch model.Schema) (*model.Cube, error) { return ReadCSVOn(nil, r, sch) }

// ReadCSVOn imports a cube under the given schema, frozen, as the revision of
// prev, the cube's latest version (nil when there is none). The header must
// name the schema's dimensions (in order) followed by the measure. Rows in cube
// order, as WriteCSV writes them, are neither hashed nor sorted, and rows that
// are prev's dimension tuples, all of them in that order, are decoded into a
// version on prev's key set (model.NewBuilderOn): a statistical revision that
// restates few measures is stored as a patch over prev's column, 12 bytes a
// restated tuple, and read at little more.
//
// While the rows follow prev, each dimension field is compared with prev's
// tuple of the same row: a string's bytes with the value, a period's or an
// int's with its canonical text (what WriteCSV writes, formatted once for each
// value a column changes to). Where they all agree, the measure goes onto the
// column and nothing else is done. A row that differs is read as any row is: a
// dimension field is parsed only where its bytes differ from the same column
// of the row above, a string dimension's values are interned, up to
// maxInterned a column, and Add compares the row's key with prev's, so a value
// spelled another way still follows.
//
// The format is encoding/csv's. A line without a quote is split where it lies;
// a record that holds one is read by encoding/csv itself; the next quote is
// searched for once per buffer, not once per line. A measure is parsed eight
// digits at a time where strconv.ParseFloat would give the same bits
// (parseMeasure), and by strconv otherwise; NaN and ±Inf are refused.
//
// The line an error names counts records, the header being line 1: an empty
// line is none, and a quoted field that spans lines is part of one.
func ReadCSVOn(prev *model.Cube, r io.Reader, sch model.Schema) (*model.Cube, error) {
	d := &csvDecoder{r: r, buf: make([]byte, csvBufSize), quote: -1}
	header, err := d.record(0)
	if err != nil {
		return nil, fmt.Errorf("store: reading CSV header: %w", err)
	}
	want := append(append([]string(nil), sch.DimNames()...), sch.Measure)
	if len(header) != len(want) {
		return nil, fmt.Errorf("store: CSV header %s does not match schema %s", header, sch)
	}
	for i, h := range header {
		if string(h) != want[i] {
			return nil, fmt.Errorf("store: CSV column %d is %q, want %q", i, h, want[i])
		}
	}
	b := model.NewBuilderOn(prev, sch)
	// What the row above held in each dimension column, as text and parsed.
	above := make([]struct {
		text     []byte
		val      model.Value
		interned map[string]model.Value
	}, len(sch.Dims))
	canon := make([]canonical, len(sch.Dims))
	dims := make([]model.Value, len(sch.Dims)) // reused line after line: Add copies what it keeps
	for line := 2; ; line++ {
		rec, err := d.record(len(want))
		if err == io.EOF {
			c, err := b.Build()
			var egd *model.EgdError
			if errors.As(err, &egd) {
				return nil, fmt.Errorf("store: CSV line %d: %w", egd.Arrival+2, err)
			}
			if err != nil {
				return nil, fmt.Errorf("store: CSV: %w", err)
			}
			return c, nil
		}
		if err == errCSVLineTooLong {
			return nil, fmt.Errorf("store: CSV line %d too long: %w", line, err)
		}
		if err != nil {
			return nil, fmt.Errorf("store: reading CSV: %w", err)
		}
		if next, ok := b.Following(); ok && holds(rec, next, sch.Dims, canon) {
			mv, err := recordMeasure(rec, line)
			if err != nil {
				return nil, err
			}
			b.AddFollowing(mv)
			continue
		}
		for i, dim := range sch.Dims {
			a, field := &above[i], rec[i]
			if a.val.IsValid() && bytes.Equal(field, a.text) {
				dims[i] = a.val
				continue
			}
			v, ok := a.interned[string(field)]
			if !ok {
				if v, err = model.ParseValue(string(field), dim.Type); err != nil {
					return nil, fmt.Errorf("store: CSV line %d, column %s: %w", line, dim.Name, err)
				}
				if s, isStr := v.AsString(); isStr && len(a.interned) < maxInterned {
					if a.interned == nil {
						a.interned = make(map[string]model.Value)
					}
					a.interned[s] = v
				}
			}
			a.text, a.val, dims[i] = append(a.text[:0], field...), v, v
		}
		mv, err := recordMeasure(rec, line)
		if err != nil {
			return nil, err
		}
		if err := b.Add(dims, mv); err != nil {
			return nil, fmt.Errorf("store: CSV line %d: %w", line, err)
		}
	}
}

// recordMeasure parses the measure, the record's last field.
func recordMeasure(rec [][]byte, line int) (float64, error) {
	field := rec[len(rec)-1]
	mv, err := parseMeasure(field)
	if err != nil {
		return 0, fmt.Errorf("store: CSV line %d: bad measure %q", line, field)
	}
	// Mirror WriteCSV: "NaN"/"Inf" parse as floats but are not legal
	// measures, so reject them at the boundary instead of letting them
	// contaminate the cube.
	if math.IsNaN(mv) || math.IsInf(mv, 0) {
		return 0, fmt.Errorf("store: CSV line %d: non-finite measure %q; undefined points must be absent rows, not NaN/Inf", line, field)
	}
	return mv, nil
}

// holds reports whether the record's dimension fields are the tuple's values
// by their text alone: a string field is compared with the value, any other
// with the canonical text of the value (canon holds each column's last).
func holds(rec [][]byte, tuple []model.Value, dims []model.Dim, canon []canonical) bool {
	for i, v := range tuple {
		t := dims[i].Type
		if s, ok := v.AsString(); ok && t.Kind == model.DimString {
			if string(rec[i]) != s {
				return false
			}
			continue
		}
		c := &canon[i]
		if v != c.val {
			c.val = v
			c.text, c.ok = appendCanonical(c.text[:0], v, t)
		}
		if !c.ok || !bytes.Equal(rec[i], c.text) {
			return false
		}
	}
	return true
}

// canonical is a value and the text WriteCSV writes for it, if ParseValue
// reads that text back as the value (ok).
type canonical struct {
	val  model.Value
	text []byte
	ok   bool
}

// appendCanonical appends the text WriteCSV writes for v, a value of a column
// of type t, and reports whether ParseValue reads that text back as v: an int
// does, and a period of t's frequency in the years 0 to 9999.
func appendCanonical(b []byte, v model.Value, t model.DimType) ([]byte, bool) {
	if i, ok := v.AsInt(); ok && v.Kind() == model.KindInt && t.Kind == model.DimInt {
		return strconv.AppendInt(b, i, 10), true
	}
	p, ok := v.AsPeriod()
	if !ok || t.Kind != model.DimPeriod || p.Freq == model.FreqInvalid || p.Freq > model.Annual ||
		t.Freq != model.FreqInvalid && p.Freq != t.Freq {
		return b, false
	}
	y := p.Year()
	if y < 0 || y > 9999 {
		return b, false
	}
	if p.Freq == model.Daily { // whose year wraps around for an ordinal far enough out
		d := p.Date()
		return d.AppendFormat(b, "2006-01-02"), model.NewDaily(d.Date()) == p
	}
	b = append(b, byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10))
	switch p.Freq {
	case model.Monthly:
		m, _ := p.Month()
		b = append(b, '-', byte('0'+m/10), byte('0'+m%10))
	case model.Quarterly:
		q, _ := p.Quarter()
		b = append(b, '-', 'Q', byte('0'+q))
	}
	return b, true
}

const (
	// csvBufSize is the decoder's buffer while no line is longer.
	csvBufSize = 32 << 10
	// maxCSVLine bounds a line without a quote, and with it the buffer.
	maxCSVLine = 1 << 20
	// maxInterned bounds the distinct strings ReadCSVOn keeps per column to
	// share among the tuples that hold them; further ones are a string each.
	maxInterned = 1024
)

var errCSVLineTooLong = fmt.Errorf("more than %d bytes and no quote", maxCSVLine)

// csvDecoder splits CSV input into records. It is also the io.Reader through
// which encoding/csv reads the records that hold a quote.
type csvDecoder struct {
	r        io.Reader
	err      error  // r's, once it has returned one
	buf      []byte // buf[pos:end] is read and not yet decoded
	pos, end int
	// quote is where the next quote lies in buf[pos:end], or end where there
	// is none; it is not known while it is below pos (it was passed, or the
	// buffer refilled).
	quote int
	// lines counts the physical lines decoded, which is what an
	// encoding/csv.ParseError names; quotedLines those of them cr has read.
	lines, quotedLines int
	cr                 *csv.Reader
	fields             [][]byte
	text               []byte // a quoted record's fields, back to back
}

// record returns the next record's fields, which are the decoder's until the
// next call, or io.EOF. A record of other than n > 0 fields is the
// csv.ErrFieldCount encoding/csv answers with under FieldsPerRecord = n.
func (d *csvDecoder) record(n int) ([][]byte, error) {
	for {
		line, quoted, err := d.line()
		if err != nil {
			return nil, err
		}
		if quoted {
			return d.quoted(n)
		}
		if len(line) == 0 {
			continue // encoding/csv skips an empty line
		}
		fields := d.fields[:0]
		for {
			i := bytes.IndexByte(line, ',')
			if i < 0 {
				break
			}
			fields, line = append(fields, line[:i]), line[i+1:]
		}
		fields = append(fields, line)
		d.fields = fields
		if n > 0 && len(fields) != n {
			return nil, &csv.ParseError{StartLine: d.lines, Line: d.lines, Column: 1, Err: csv.ErrFieldCount}
		}
		return fields, nil
	}
}

// line returns the next line without its ending (LF, CRLF or the end of the
// input, where one CR is dropped as encoding/csv drops it) and moves past it —
// unless the line holds a quote, which it reports, leaving the line where it
// is. At the end of the input the error is io.EOF.
func (d *csvDecoder) line() (line []byte, quoted bool, err error) {
	scanned := 0 // how much of buf[pos:end] is known to hold no line feed
	for {
		rest := d.buf[d.pos:d.end]
		lf := bytes.IndexByte(rest[scanned:], '\n')
		if lf < 0 && d.err == nil && len(rest) <= maxCSVLine {
			scanned = len(rest)
			d.fill()
			continue
		}
		n, next := scanned+lf, scanned+lf+1 // the line is rest[:n], the one after it starts at next
		if lf < 0 {                         // no ending: the last line, or the start of one too long
			if n, next = len(rest), len(rest); n == 0 {
				return nil, false, d.err
			}
		}
		if d.quote < d.pos {
			if d.quote = bytes.IndexByte(rest, '"'); d.quote < 0 {
				d.quote = len(rest)
			}
			d.quote += d.pos
		}
		if d.quote < d.pos+n {
			return nil, true, nil
		}
		d.lines++
		if lf < 0 && d.err == nil {
			return nil, false, errCSVLineTooLong
		}
		if lf < 0 && d.err != io.EOF {
			return nil, false, d.err
		}
		d.pos += next
		if n > 0 && rest[n-1] == '\r' {
			n--
		}
		return rest[:n], false, nil
	}
}

// fill reads more input behind buf[pos:end], which it moves to the front of
// the buffer, or of one twice as large where it fills the buffer. It leaves
// in d.err the reader's error, and reads nothing more after one.
func (d *csvDecoder) fill() {
	if d.err != nil {
		return
	}
	switch n := d.end - d.pos; {
	case n == len(d.buf):
		d.buf = append(d.buf[d.pos:], make([]byte, len(d.buf))...)
	case d.pos > 0:
		copy(d.buf, d.buf[d.pos:d.end])
	}
	d.pos, d.end, d.quote = 0, d.end-d.pos, -1
	for empty := 0; d.err == nil; empty++ {
		var n int
		if n, d.err = d.r.Read(d.buf[d.end:]); n > 0 {
			d.end += n
			return
		}
		if d.err == nil && empty == 100 {
			d.err = io.ErrNoProgress
		}
	}
}

// Read is how encoding/csv reads a record that holds a quote: at most one line
// to a call, so that it never holds a byte of the record after the one it
// returns, which is the decoder's to split again.
func (d *csvDecoder) Read(p []byte) (int, error) {
	if d.pos == d.end {
		if d.fill(); d.pos == d.end {
			return 0, d.err
		}
	}
	chunk := d.buf[d.pos:min(d.end, d.pos+len(p))]
	if i := bytes.IndexByte(chunk, '\n'); i >= 0 {
		chunk = chunk[:i+1]
		d.lines++
		d.quotedLines++
	}
	d.pos += copy(p, chunk)
	return len(chunk), nil
}

// quoted reads the record at buf[pos:], which holds a quote, as encoding/csv
// does — through Read, above — and names the lines of its errors as
// encoding/csv would have, had it read every line before.
func (d *csvDecoder) quoted(n int) ([][]byte, error) {
	if d.cr == nil {
		d.cr = csv.NewReader(d)
		d.cr.ReuseRecord = true
	}
	d.cr.FieldsPerRecord = n
	unseen := d.lines - d.quotedLines
	rec, err := d.cr.Read()
	if err != nil {
		var syntax *csv.ParseError
		if errors.As(err, &syntax) {
			syntax.StartLine += unseen
			syntax.Line += unseen
		}
		return nil, err
	}
	d.text, d.fields = d.text[:0], d.fields[:0]
	for _, s := range rec {
		d.text = append(d.text, s...)
	}
	at := 0
	for _, s := range rec {
		d.fields = append(d.fields, d.text[at:at+len(s)])
		at += len(s)
	}
	return d.fields, nil
}
