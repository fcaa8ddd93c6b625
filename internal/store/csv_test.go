package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

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

// TestReadCSVStopsFollowing: a body that is its predecessor's dimension tuples
// but for one field, in any column of any kind, is read as the same cube as
// with no predecessor, off the predecessor's key set; one that spells a period
// or an int another way is the same cube, on it.
func TestReadCSVStopsFollowing(t *testing.T) {
	sch := model.NewSchema("K", []model.Dim{
		{Name: "d", Type: model.TDay}, {Name: "m", Type: model.DimType{Kind: model.DimPeriod, Freq: model.Monthly}},
		{Name: "q", Type: model.TQuarter}, {Name: "y", Type: model.DimType{Kind: model.DimPeriod, Freq: model.Annual}},
		{Name: "r", Type: model.TString}, {Name: "k", Type: model.TInt},
	}, "v")
	// Every column is a function of the row alone, so that a tuple with one
	// field changed is no other row's.
	const n = 40
	prev := model.NewCube(sch)
	for i := 0; i < n; i++ {
		err := prev.Put([]model.Value{
			model.Per(model.NewDaily(2000, time.January, 1+i)), model.Per(model.NewMonthly(2000, time.Month(1+i))),
			model.Per(model.NewQuarterly(2000+i/4, 1+i%4)), model.Per(model.NewAnnual(2000 + i)),
			model.Str(fmt.Sprintf("r%03d", i)), model.Int(int64(i)),
		}, float64(i))
		if err != nil {
			t.Fatal(err)
		}
	}
	prev.Freeze()
	var body bytes.Buffer
	if err := WriteCSV(&body, prev); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(body.String(), "\n")
	row := lines[1+n/2] // a row in the middle of the body
	fields := strings.Split(row, ",")
	edit := func(col int, to string) string {
		f := slices.Clone(fields)
		f[col] = to
		return strings.Join(lines[:1+n/2], "") + strings.Join(f, ",") + strings.Join(lines[2+n/2:], "")
	}
	for _, c := range []struct {
		name, body string
		follows    bool
	}{
		{"the same tuples", body.String(), true},
		{"another day", edit(0, "1999-12-31"), false},
		{"another month", edit(1, "1999-12"), false},
		{"another quarter", edit(2, "1999-Q4"), false},
		{"another year", edit(3, "1999"), false},
		{"another string", edit(4, fields[4]+"x"), false},
		{"another int", edit(5, "-1"), false},
		{"a quarter spelled another way", edit(2, strings.Replace(fields[2], "-Q", "-Q0", 1)), true},
		{"a year spelled another way", edit(3, "0"+fields[3]), true},
		{"an int spelled another way", edit(5, "+0"+fields[5]), true},
	} {
		want, err := ReadCSV(strings.NewReader(c.body), sch)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := ReadCSVOn(prev, strings.NewReader(c.body), sch)
		if err != nil || got.Len() != want.Len() || !got.Equal(want, 0) || !want.Equal(got, 0) {
			t.Fatalf("%s: read onto the predecessor, not what ReadCSV reads: %v", c.name, err)
		}
		if got.SharesKeySet(prev) != c.follows {
			t.Errorf("%s: on the predecessor's key set: %v, want %v", c.name, got.SharesKeySet(prev), c.follows)
		}
	}
}

// TestAppendCanonical: the text a field is compared with is what WriteCSV
// writes for the value, and ParseValue reads it back as the value; a value it
// cannot stand for — a period outside the years 0 to 9999 or of another
// frequency, a value of another kind — has none.
func TestAppendCanonical(t *testing.T) {
	in, out := []model.Value{model.Int(math.MinInt64), model.Int(-1), model.Int(0), model.Int(math.MaxInt64)}, []model.Value(nil)
	for _, y := range []int{-1, 0, 1, 1999, 2000, 9999, 10000} {
		for _, p := range []model.Period{model.NewDaily(y, time.January, 1), model.NewDaily(y, time.December, 31),
			model.NewMonthly(y, time.January), model.NewMonthly(y, time.December), model.NewQuarterly(y, 1), model.NewQuarterly(y, 4), model.NewAnnual(y)} {
			if y >= 0 && y <= 9999 {
				in = append(in, model.Per(p))
			} else {
				out = append(out, model.Per(p))
			}
		}
	}
	for _, o := range []int64{math.MinInt64, math.MinInt64 / 2, math.MaxInt64 / 86400 * 3, math.MaxInt64} {
		out = append(out, model.Per(model.Period{Freq: model.Daily, Ord: o}))
	}
	typeOf := func(v model.Value) model.DimType {
		if p, ok := v.AsPeriod(); ok {
			return model.DimType{Kind: model.DimPeriod, Freq: p.Freq}
		}
		return model.TInt
	}
	for _, v := range in {
		text, ok := appendCanonical(nil, v, typeOf(v))
		back, err := model.ParseValue(string(text), typeOf(v))
		if !ok || string(text) != v.String() || err != nil || back != v {
			t.Errorf("%v: %q, %v; read back as %v, %v", v, text, ok, back, err)
		}
	}
	for _, v := range out {
		if text, ok := appendCanonical(nil, v, typeOf(v)); ok {
			t.Errorf("%v has canonical text %q", v, text)
		}
	}
	for _, c := range []struct {
		v   model.Value
		typ model.DimType
	}{{model.Num(1), model.TInt}, {model.Str("1"), model.TInt}, {model.Int(2000), model.TQuarter}, {model.Per(model.NewAnnual(2000)), model.TQuarter}, {model.Per(model.NewAnnual(2000)), model.TInt}} {
		if text, ok := appendCanonical(nil, c.v, c.typ); ok {
			t.Errorf("%v as %v has canonical text %q", c.v, c.typ, text)
		}
	}
}
