package store

import (
	"bytes"
	"encoding/csv"
	"errors"
	"runtime"
	"strings"
	"testing"

	"exlengine/internal/model"
)

// FuzzReadCSV: whatever the bytes, reading them as a cube does not panic,
// allocates in proportion to the input, and returns a frozen cube or an error
// that says what is wrong with the input — a CSV syntax error, a functionality
// violation, or a line number. A cube that reads back writes as a body that
// reads back the same, bit for bit.
func FuzzReadCSV(f *testing.F) {
	sch := model.NewSchema("C", []model.Dim{{Name: "t", Type: model.TQuarter}, {Name: "r", Type: model.TString}, {Name: "k", Type: model.TInt}}, "v")
	f.Add([]byte("t,r,k,v\n2000-Q1,a,1,1.5\n2000-Q2,a,1,2\n"))
	f.Add([]byte("t,r,k,v\n2000-Q2,b,2,1\n2000-Q1,a,1,2\n"))         // out of cube order
	f.Add([]byte("t,r,k,v\n2000-Q1,a,1,1\n2000-Q1,a,1,1\n"))         // a row twice
	f.Add([]byte("t,r,k,v\n2000-Q1,a,1,1\n2000-Q1,a,1.0,2\n"))       // a conflict
	f.Add([]byte("t,r,k,v\n2000-Q1,a,1,NaN\n"))                      // not a measure
	f.Add([]byte("t,r,k,v\n2000-Q5,a,1,1\n"))                        // not a quarter
	f.Add([]byte("t,r,k,v\n2000-Q1,\"a\nb\",-7,1e300\n2000-Q1,a\n")) // a quoted newline, a short row
	f.Add([]byte("t,r,v\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := ReadCSV(bytes.NewReader(data), sch)
		runtime.ReadMemStats(&after)
		if spent, budget := after.TotalAlloc-before.TotalAlloc, uint64(512*len(data)+64<<10); spent > budget {
			t.Fatalf("reading %d bytes allocated %d, budget %d", len(data), spent, budget)
		}
		if err != nil {
			var syntax *csv.ParseError
			if c != nil || !strings.HasPrefix(err.Error(), "store: ") ||
				!errors.As(err, &syntax) && !errors.Is(err, model.ErrFunctional) && !strings.Contains(err.Error(), "CSV") {
				t.Fatalf("ReadCSV returned %v with %v", c, err)
			}
			return
		}
		if !c.Frozen() {
			t.Fatal("ReadCSV returned a cube that is not frozen")
		}
		var body bytes.Buffer
		if err := WriteCSV(&body, c); err != nil {
			t.Fatalf("a cube that was read does not write: %v", err)
		}
		back, err := ReadCSV(bytes.NewReader(body.Bytes()), sch)
		if err != nil || !back.Equal(c, 0) || !c.Equal(back, 0) || back.Len() != c.Len() {
			t.Fatalf("written and read again: %v\n%s", err, body.Bytes())
		}
		var again bytes.Buffer
		if err := WriteCSV(&again, back); err != nil || !bytes.Equal(again.Bytes(), body.Bytes()) {
			t.Fatalf("the body does not write back to itself: %v", err)
		}
	})
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
