package store

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"exlengine/internal/model"
)

// readCSVOracle is ReadCSV as it was before it had a decoder of its own, kept
// as what the decoder is compared with: encoding/csv reads every record, every
// field is parsed, every tuple goes to a Builder that follows nothing. Beside
// the cube it returns the row keys in arrival order. Where Build finds the
// egd violated, the line named is the one a loop of Put stops at.
func readCSVOracle(t *testing.T, r io.Reader, sch model.Schema) (*model.Cube, []string, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("store: reading CSV header: %w", err)
	}
	want := append(append([]string(nil), sch.DimNames()...), sch.Measure)
	if len(header) != len(want) {
		return nil, nil, fmt.Errorf("store: CSV header %v does not match schema %s", header, sch)
	}
	for i, h := range header {
		if h != want[i] {
			return nil, nil, fmt.Errorf("store: CSV column %d is %q, want %q", i, h, want[i])
		}
	}
	b, puts, putFailed := model.NewBuilder(sch), model.NewCube(sch), 0
	var keys []string
	dims := make([]model.Value, len(sch.Dims))
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			c, err := b.Build()
			if (putFailed > 0) != errors.Is(err, model.ErrFunctional) {
				t.Fatalf("a loop of Put fails at line %d, Build with %v", putFailed, err)
			}
			if putFailed > 0 {
				return nil, nil, fmt.Errorf("store: CSV line %d: %w", putFailed, err)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("store: CSV: %w", err)
			}
			return c, keys, nil
		}
		if err != nil {
			return nil, nil, fmt.Errorf("store: reading CSV: %w", err)
		}
		line++
		for i, d := range sch.Dims {
			v, err := model.ParseValue(rec[i], d.Type)
			if err != nil {
				return nil, nil, fmt.Errorf("store: CSV line %d, column %s: %w", line, d.Name, err)
			}
			dims[i] = v
		}
		mv, err := strconv.ParseFloat(rec[len(rec)-1], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("store: CSV line %d: bad measure %q", line, rec[len(rec)-1])
		}
		if math.IsNaN(mv) || math.IsInf(mv, 0) {
			return nil, nil, fmt.Errorf("store: CSV line %d: non-finite measure %q; undefined points must be absent rows, not NaN/Inf", line, rec[len(rec)-1])
		}
		if err := b.Add(dims, mv); err != nil {
			return nil, nil, fmt.Errorf("store: CSV line %d: %w", line, err)
		}
		if putFailed == 0 && puts.Put(dims, mv) != nil {
			putFailed = line
		}
		keys = append(keys, model.EncodeKey(dims))
	}
}

// fuzzPredecessor returns the version the body is read as a revision of, a
// frozen cube made from read, what the body holds (nil where it does not
// read): nothing; read's dimension tuples under other measures; the first half
// of them; all of them and more; all of them but for one in the middle, whose
// key is another; the same under another schema.
func fuzzPredecessor(pick uint8, sch model.Schema, read *model.Cube) *model.Cube {
	if read == nil {
		read = model.NewCube(sch).Freeze()
	}
	ts := read.Tuples()
	prev := model.NewCube(sch)
	put := func(dims []model.Value, m float64) {
		if err := prev.Replace(dims, m); err != nil {
			panic(err)
		}
	}
	q := model.Per(model.NewQuarterly(2000, 1))
	switch pick % 6 {
	case 0:
		return nil
	case 2:
		ts = ts[:len(ts)/2]
	case 3:
		put([]model.Value{q, model.Str("a"), model.Int(math.MinInt64)}, 1)
		put([]model.Value{q, model.Str("zzzz"), model.Int(math.MaxInt64)}, 2)
	case 4:
		if len(ts) > 0 {
			mid := ts[len(ts)/2].Dims
			ts = append(ts[:len(ts)/2:len(ts)/2], ts[len(ts)/2+1:]...)
			s, _ := mid[1].AsString()
			put([]model.Value{mid[0], model.Str(s + "\x00"), mid[2]}, 3)
		}
	case 5:
		prev = model.NewCube(sch.Rename("D"))
	}
	for _, tu := range ts {
		put(tu.Dims, -tu.Measure-1)
	}
	return prev.Freeze()
}

// FuzzReadCSV: whatever the bytes and whichever predecessor pick chooses
// (fuzzPredecessor), reading them as a cube does not panic, allocates in
// proportion to the input, and does what the oracle does (readCSVOracle): the
// same tuples bit for bit, or the same error to the letter — a CSV syntax error
// with encoding/csv's line and column, a functionality violation with the line
// a loop of Put stops at, or a line number. The cube stands on the
// predecessor's key set if, and only if, the rows were the predecessor's
// dimension tuples in its order, and the predecessor is left as it was. A cube
// that reads back writes as a body that reads back the same, bit for bit, and
// writes as the same body — unless a string in it holds CR LF, which
// encoding/csv reads as LF: then the body reads back as the oracle reads it.
func FuzzReadCSV(f *testing.F) {
	sch := model.NewSchema("C", []model.Dim{{Name: "t", Type: model.TQuarter}, {Name: "r", Type: model.TString}, {Name: "k", Type: model.TInt}}, "v")
	for pick := uint8(0); pick < 6; pick++ {
		f.Add([]byte("t,r,k,v\n2000-Q1,a,1,1.5\n2000-Q2,a,1,2\n2000-Q2,b,1,3\n"), pick)
		f.Add([]byte("t,r,k,v\n2000-Q2,b,2,1\n2000-Q1,a,1,2\n"), pick)                  // out of cube order
		f.Add([]byte("t,r,k,v\n2000-Q1,a,1,1\n2000-Q1,a,1,1\n"), pick)                  // a row twice
		f.Add([]byte("t,r,k,v\n2000-Q1,a,1,1\n2000-Q1,a,1,2\n2000-Q0,a,1,2\n"), pick)   // a conflict on line 3, found before line 4 is wrong
		f.Add([]byte("t,r,k,v\n2000-Q1,a,1,1\n2000-Q1,b,1,1\n2000-Q1,a,+1,2\n"), pick)  // a conflict: +1 is 1
		f.Add([]byte("t,r,k,v\n2000-Q1,a,3,1\n2000-Q1,a,3.0,2\n"), pick)                // 3.0 is no int
		f.Add([]byte("t,r,k,v\n2000-Q1,a,01,1\n2000-Q1,a,2,1\n"), pick)                 // 01 is 1
		f.Add([]byte("t,r,k,v\r\n2000-Q1,a,1,1\r\n\r\n2000-Q1,b,1,2\r\n"), pick)        // CRLF endings, an empty line
		f.Add([]byte("t,r,k,v\n\n2000-Q1,a,1,1\n2000-Q1,b,1\n"), pick)                  // a short row on line 4 of the input
		f.Add([]byte("t,r,k,v\n2000-Q1,\"a,b\",1,1\n2000-Q1,b,1,2\n2000-Q1,c\n"), pick) // a quoted comma, then lines without a quote
		f.Add([]byte("t,r,k,v\n2000-Q1,\"a\nb\",-7,1e300\n2000-Q1,a\n"), pick)          // a quoted newline, a short row
		f.Add([]byte("t,r,k,v\n2000-Q1,\"\",1,1\n2000-Q1,\"\"\"\",1,1\n"), pick)        // "" and a quoted quote
		f.Add([]byte("t,r,k,v\n2000-Q1,a,1,1\n2000-Q1,b\"c,1,1\n"), pick)               // a bare quote
		f.Add([]byte("t,r,k,v\n2000-Q1,\"a,1,1\n2000-Q1,b,1,1\n"), pick)                // a quote left open
		f.Add([]byte("\"t\",r,k,v\n2000-Q1,a,1,1\n2000-Q1,b,1,2"), pick)                // a quoted header, a last line without its ending
		f.Add([]byte("t,r,k,v\n2000-Q1,a,1,1\r"), pick)                                 // a CR before the end
		f.Add([]byte("t,r,k,v\n2000-Q1,a,1,NaN\n"), pick)                               // not a measure
		f.Add([]byte("t,r,k,v\n2000-Q5,a,1,1\n"), pick)                                 // not a quarter
		f.Add([]byte("t,r,v\n"), pick)
		f.Add([]byte{}, pick)
	}
	powersOfTen() // made once a process, for the first measure: no input's cost
	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		want, keys, wantErr := readCSVOracle(t, bytes.NewReader(data), sch)
		prev := fuzzPredecessor(pick, sch, want)
		var prevTuples []model.Tuple
		var prevKeys []string
		if prev != nil {
			prevTuples = prev.Tuples()
			for _, tu := range prevTuples {
				prevKeys = append(prevKeys, model.EncodeKey(tu.Dims))
			}
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := ReadCSVOn(prev, bytes.NewReader(data), sch)
		runtime.ReadMemStats(&after)
		if spent, budget := after.TotalAlloc-before.TotalAlloc, uint64(512*len(data)+64<<10); spent > budget {
			t.Fatalf("reading %d bytes allocated %d, budget %d", len(data), spent, budget)
		}
		if prev != nil {
			for i, tu := range prev.Tuples() {
				if &tu.Dims[0] != &prevTuples[i].Dims[0] || math.Float64bits(tu.Measure) != math.Float64bits(prevTuples[i].Measure) {
					t.Fatalf("the predecessor's tuple %d is now %v", i, tu)
				}
			}
		}
		if err != nil || wantErr != nil {
			var syntax, wantSyntax *csv.ParseError
			if c != nil || err == nil || wantErr == nil || err.Error() != wantErr.Error() ||
				errors.As(err, &syntax) != errors.As(wantErr, &wantSyntax) || syntax != nil && *syntax != *wantSyntax ||
				errors.Is(err, model.ErrFunctional) != errors.Is(wantErr, model.ErrFunctional) {
				t.Fatalf("ReadCSVOn returned %v with %v\nthe oracle's error: %v", c, err, wantErr)
			}
			if !strings.HasPrefix(err.Error(), "store: ") ||
				syntax == nil && !errors.Is(err, model.ErrFunctional) && !strings.Contains(err.Error(), "CSV") {
				t.Fatalf("ReadCSVOn returned %v", err)
			}
			return
		}
		if !c.Frozen() || c.Len() != want.Len() || !c.Equal(want, 0) || !want.Equal(c, 0) {
			t.Fatalf("ReadCSVOn read %d tuples, the oracle %d: %v", c.Len(), want.Len(), c.Diff(want, 0, 3))
		}
		if follows := prev != nil && prev.Schema().Equal(sch) && slices.Equal(keys, prevKeys); prev != nil && c.SharesKeySet(prev) != follows {
			t.Fatalf("on the predecessor's key set: %v, rows are its dimension tuples in its order: %v", c.SharesKeySet(prev), follows)
		}

		var body bytes.Buffer
		if err := WriteCSV(&body, c); err != nil {
			t.Fatalf("a cube that was read does not write: %v", err)
		}
		if old := writeCSVOracle(t, c); !bytes.Equal(body.Bytes(), old) {
			t.Fatalf("WriteCSV wrote\n%s\nencoding/csv writes\n%s", body.Bytes(), old)
		}
		// encoding/csv reads a quoted CR LF as LF, whoever wrote it: a body
		// that holds one reads back as the oracle reads it, not as c.
		readBack, writeBack, wantErr := c, body.Bytes(), error(nil)
		if bytes.Contains(body.Bytes(), []byte("\r\n")) {
			if readBack, _, wantErr = readCSVOracle(t, bytes.NewReader(body.Bytes()), sch); wantErr == nil {
				writeBack = writeCSVOracle(t, readBack)
			}
		}
		back, err := ReadCSV(bytes.NewReader(body.Bytes()), sch)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("written and read again: %v, the oracle's error: %v\n%s", err, wantErr, body.Bytes())
			}
			return
		}
		if err != nil || !back.Equal(readBack, 0) || !readBack.Equal(back, 0) || back.Len() != readBack.Len() {
			t.Fatalf("written and read again: %v\n%s", err, body.Bytes())
		}
		var again bytes.Buffer
		if err := WriteCSV(&again, back); err != nil || !bytes.Equal(again.Bytes(), writeBack) {
			t.Fatalf("what was read back does not write as it should: %v\n%s\nwant\n%s", err, again.Bytes(), writeBack)
		}
	})
}

// writeCSVOracle is the body WriteCSV wrote while encoding/csv wrote all of it,
// a record of strings to a row.
func writeCSVOracle(t *testing.T, c *model.Cube) []byte {
	var body bytes.Buffer
	cw := csv.NewWriter(&body)
	sch := c.Schema()
	header := append(append([]string(nil), sch.DimNames()...), sch.Measure)
	if err := cw.Write(header); err != nil {
		t.Fatal(err)
	}
	_ = c.Ordered(func(tu model.Tuple) error {
		rec := make([]string, 0, len(header))
		for _, d := range tu.Dims {
			rec = append(rec, d.String())
		}
		return cw.Write(append(rec, strconv.FormatFloat(tu.Measure, 'g', -1, 64)))
	})
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return body.Bytes()
}

// TestReadCSVOfWrittenBodyNeedsNoSort: WriteCSV writes in cube order, so what
// it wrote is read without hashing or sorting a tuple: shuffling the lines
// costs the sort's scratch on top.
func TestReadCSVOfWrittenBodyNeedsNoSort(t *testing.T) {
	const n = 20000
	c := pdrCube(n)
	var body bytes.Buffer
	if err := WriteCSV(&body, c); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(body.String(), "\n")
	lines = lines[:len(lines)-1]
	lines[1], lines[len(lines)-1] = lines[len(lines)-1], lines[1]
	swapped := strings.Join(lines, "")
	read := func(s string) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReadCSV(strings.NewReader(s), c.Schema())
		runtime.ReadMemStats(&after)
		if err != nil || !got.Equal(c, 0) {
			t.Fatalf("read back: %v", err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	inOrder, sorted := read(body.String()), read(swapped)
	// The sort's scratch: arrival numbers (16 B), the keys back to back
	// (18 B) and a reference each (12 B).
	if sorted < inOrder+40*n {
		t.Errorf("reading %d tuples allocates %d B in cube order and %d B out of it: the first is to spare the sort", n, inOrder, sorted)
	}
}
