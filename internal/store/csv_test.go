package store

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"exlengine/internal/model"
)

// TestWriteCSVGolden: the bodies WriteCSV writes, byte for byte — PDR, and a
// cube whose fields need quoting, each in encoding/csv's way.
func TestWriteCSVGolden(t *testing.T) {
	var body bytes.Buffer
	if err := WriteCSV(&body, pdrCube(41)); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(body.String(), "\n")
	if got, want := strings.Join(append(lines[:4:4], lines[40:]...), ""), "d,r,p\n2000-01-01,R00,0\n2000-01-01,R01,1\n2000-01-01,R02,2\n2000-01-02,R19,39\n2000-01-03,R00,40\n"; got != want {
		t.Errorf("PDR:\n%s\nwant\n%s", got, want)
	}

	c := model.NewCube(model.NewSchema("Q", []model.Dim{{Name: "a,b", Type: model.TString}, {Name: "k", Type: model.TInt}}, `the "measure"`))
	for i, s := range []string{"", " led by a space", "a,b", "line\nfeed", `say "so"`, "plain", "plain"} {
		if err := c.Put([]model.Value{model.Str(s), model.Int(int64(i / 6))}, 1e21/float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	body.Reset()
	if err := WriteCSV(&body, c); err != nil {
		t.Fatal(err)
	}
	want := "\"a,b\",k,\"the \"\"measure\"\"\"\n" +
		",0,1e+21\n" +
		"\" led by a space\",0,5e+20\n" +
		"\"a,b\",0,3.333333333333333e+20\n" +
		"\"line\nfeed\",0,2.5e+20\n" +
		"plain,0,1.6666666666666666e+20\n" +
		"plain,1,1.4285714285714286e+20\n" +
		"\"say \"\"so\"\"\",0,2e+20\n"
	if got := body.String(); got != want || got != string(writeCSVOracle(t, c)) {
		t.Errorf("a cube with fields to quote:\n%s\nwant\n%s", got, want)
	}
	back, err := ReadCSV(&body, c.Schema())
	if err != nil || !back.Equal(c, 0) {
		t.Errorf("read back: %v", err)
	}
}

// TestWriteCSVAllocatesNoRow: a body costs what it costs to set up, however
// many rows it has.
func TestWriteCSVAllocatesNoRow(t *testing.T) {
	write := func(c *model.Cube) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := WriteCSV(io.Discard, c); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A day is formatted once for its twenty regions; the rest is per body.
	small, large := pdrCube(2000).Freeze(), pdrCube(20000).Freeze()
	if a, b := write(small), write(large); b-a > 18000/20*2+10 {
		t.Errorf("2000 rows allocate %v times, 20000 rows %v times", a, b)
	}
}

// TestReadCSVNamesTheLineOfAConflict: a dimension tuple given two measures is
// an ErrFunctional that names the tuple and the line of the second.
func TestReadCSVNamesTheLineOfAConflict(t *testing.T) {
	sch := pdrCube(0).Schema()
	for body, want := range map[string]string{
		"d,r,p\n2000-01-01,R00,1\n2000-01-01,R00,2\n":                                     "store: CSV line 3: ",
		"d,r,p\n2000-01-02,R00,1\n2000-01-01,R00,1\n2000-01-03,R00,1\n2000-01-01,R00,2\n": "store: CSV line 5: ",
		// The first conflict in the file, not in cube order.
		"d,r,p\n2000-01-02,R00,1\n2000-01-01,R00,1\n2000-01-02,R00,3\n2000-01-01,R00,2\n": "store: CSV line 4: ",
	} {
		for _, prev := range []*model.Cube{nil, pdrCube(1).Freeze()} {
			_, err := ReadCSVOn(prev, strings.NewReader(body), sch)
			var egd *model.EgdError
			if !errors.Is(err, model.ErrFunctional) || !errors.As(err, &egd) || !strings.HasPrefix(err.Error(), want+model.ErrFunctional.Error()+": PDR[") {
				t.Errorf("%q: %v, want %s…", body, err, want)
			}
		}
	}
}

// TestReadCSVLineTooLong: a line of more than maxCSVLine bytes and no quote
// is an error that names it, found without holding more of it than that.
func TestReadCSVLineTooLong(t *testing.T) {
	sch := pdrCube(0).Schema()
	long := "d,r,p\n2000-01-01,R00,1\n2000-01-01," + strings.Repeat("x", 32*maxCSVLine)
	before := totalAlloc()
	_, err := ReadCSV(strings.NewReader(long), sch)
	if spent := totalAlloc() - before; spent > 8*maxCSVLine {
		t.Errorf("a line of %d bytes allocated %d", 32*maxCSVLine, spent)
	}
	if err == nil || !strings.HasPrefix(err.Error(), "store: CSV line 3 too long") {
		t.Errorf("a line of %d bytes: %v", 32*maxCSVLine, err)
	}
	// One as long as may be, and one that holds a quote, are read.
	r := strings.Repeat("x", maxCSVLine-len("2000-01-01,,1\n"))
	for _, body := range []string{"d,r,p\n2000-01-01," + r + ",1\n", "d,r,p\n2000-01-01,\"" + r + r + "\",1"} {
		if c, err := ReadCSV(strings.NewReader(body), sch); err != nil || c.Len() != 1 {
			t.Errorf("a line of %d bytes: %v", len(body)-6, err)
		}
	}
}
