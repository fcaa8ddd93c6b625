package store

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"exlengine/internal/model"
)

func annualCube(t *testing.T, vals map[int]float64) *model.Cube {
	t.Helper()
	sch := model.Schema{
		Name:    "A",
		Dims:    []model.Dim{{Name: "t", Type: model.TYear}},
		Measure: "m",
	}
	c := model.NewCube(sch)
	for y, v := range vals {
		if err := c.Put([]model.Value{model.Per(model.NewAnnual(y))}, v); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	return c
}

// TestWriteCSVRejectsNonFinite: exporting NaN or ±Inf measures must fail
// loudly rather than emitting text that silently round-trips.
func TestWriteCSVRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c := annualCube(t, map[int]float64{2000: 1, 2001: bad})
		var buf bytes.Buffer
		err := WriteCSV(&buf, c)
		if err == nil {
			t.Fatalf("WriteCSV with measure %v: want error, got nil (wrote %q)", bad, buf.String())
		}
		if !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("WriteCSV error %q does not mention non-finite", err)
		}
	}
}

// TestReadCSVRejectsNonFinite: "NaN" and "Inf" parse as floats, but they
// are not legal measures and must be rejected at import.
func TestReadCSVRejectsNonFinite(t *testing.T) {
	sch := model.Schema{
		Name:    "A",
		Dims:    []model.Dim{{Name: "t", Type: model.TYear}},
		Measure: "m",
	}
	for _, bad := range []string{"NaN", "Inf", "+Inf", "-Inf"} {
		src := "t,m\n2000," + bad + "\n"
		_, err := ReadCSV(strings.NewReader(src), sch)
		if err == nil {
			t.Fatalf("ReadCSV with measure %q: want error, got nil", bad)
		}
		if !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("ReadCSV error %q does not mention non-finite", err)
		}
	}
}

// TestCSVRoundTripFinite pins the happy path: finite measures (including
// negatives, zeros and values needing full float precision) survive an
// export/import cycle exactly.
func TestCSVRoundTripFinite(t *testing.T) {
	c := annualCube(t, map[int]float64{
		2000: 0,
		2001: -3.25,
		2002: 1.0 / 3.0,
		2003: 1e-300,
	})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, c); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf, c.Schema())
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !c.Equal(back, 0) {
		t.Fatalf("round trip changed the cube:\n%s", strings.Join(c.Diff(back, 0, 10), "\n"))
	}
}

// TestGetAsOfNotFound: a cube that was never stored, and an instant before
// a cube's first version, are not found; the first version is visible at
// exactly its own instant.
func TestGetAsOfNotFound(t *testing.T) {
	s := New()
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

	if _, ok := s.GetAsOf("A", t0); ok {
		t.Fatal("GetAsOf on never-stored cube reported a version")
	}
	if _, ok := s.Get("A"); ok {
		t.Fatal("Get on never-stored cube reported a version")
	}

	c := annualCube(t, map[int]float64{2000: 1})
	if err := s.Put(c, t0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, ok := s.GetAsOf("A", t0.Add(-time.Hour)); ok {
		t.Fatal("GetAsOf before first version should report false")
	}
	if got, ok := s.GetAsOf("A", t0); !ok || got == nil {
		t.Fatal("GetAsOf at first version reported none")
	}
}
