package difftest

import (
	"math"
	"testing"
)

// TestFuzzProgramsAgree is the in-tree smoke slice of the fuzzer: every
// engine must agree with the chase on a batch of random programs, exactly
// (tolerance 0). The exlfuzz CLI runs bigger sweeps; this keeps `go test
// ./...` honest.
func TestFuzzProgramsAgree(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		c := GenerateCase(seed, 6)
		res, err := Run(c, 0)
		if err != nil {
			t.Fatalf("seed %d: case does not run: %v\nprogram:\n%s", seed, err, c.Source())
		}
		if len(res.Divergences) == 0 {
			continue
		}
		min := Shrink(c, Diverges(0))
		t.Errorf("seed %d: %d divergence(s); first: %s\nminimized:\n%s",
			seed, len(res.Divergences), res.Divergences[0], FormatKnownCase("from TestFuzzProgramsAgree", min))
	}
}

// TestGeneratorDeterministic: a seed is a full reproduction recipe, so
// the same seed must yield the identical program and data.
func TestGeneratorDeterministic(t *testing.T) {
	a := GenerateCase(42, 8)
	b := GenerateCase(42, 8)
	if a.Source() != b.Source() {
		t.Fatalf("same seed produced different programs:\n%s\nvs\n%s", a.Source(), b.Source())
	}
	if a.DataCSV() != b.DataCSV() {
		t.Fatalf("same seed produced different data:\n%s\nvs\n%s", a.DataCSV(), b.DataCSV())
	}
	c := GenerateCase(43, 8)
	if a.Source() == c.Source() && a.DataCSV() == c.DataCSV() {
		t.Fatal("different seeds produced identical cases")
	}
}

// TestMeasuresAgree pins the NaN/Inf-aware comparator: non-finite values
// agree only with themselves, finite values within relative tolerance.
func TestMeasuresAgree(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		a, b  float64
		agree bool
	}{
		{1, 1 + 1e-9, true},
		{1, 1.1, false},
		{1e12, 1e12 * (1 + 1e-8), true},
		{nan, nan, true},
		{nan, 1, false},
		{1, nan, false},
		{inf, inf, true},
		{inf, -inf, false},
		{inf, 1, false},
		{0, 0, true},
	}
	for _, c := range cases {
		if got := MeasuresAgree(c.a, c.b, 1e-6); got != c.agree {
			t.Errorf("MeasuresAgree(%v, %v) = %v, want %v", c.a, c.b, got, c.agree)
		}
	}
	// Tolerance 0 is exact: the next float up differs.
	if one := 1.0; !MeasuresAgree(one, one, 0) || MeasuresAgree(one, math.Nextafter(one, 2), 0) {
		t.Error("at tolerance 0, a measure agrees with itself and with no other")
	}
}

// TestKnownDivergences re-runs every checked-in divergence: each must
// still reproduce (otherwise it has been fixed and the file must be
// deleted), and then the test skips with the tracking note — a skipped
// regression, visible in -v output, that can never silently rot.
func TestKnownDivergences(t *testing.T) {
	known, err := LoadKnownCases("testdata/known")
	if err != nil {
		t.Fatalf("loading known cases: %v", err)
	}
	for _, kc := range known {
		kc := kc
		t.Run(kc.Name, func(t *testing.T) {
			res, err := Run(kc.Case, DefaultTol)
			if err != nil {
				t.Fatalf("known case no longer runs: %v", err)
			}
			if len(res.Divergences) == 0 {
				t.Fatalf("known divergence no longer reproduces — it has been fixed; delete testdata/known/%s.case and add a regular regression test", kc.Name)
			}
			t.Skipf("known divergence (tracked, not yet fixed): %s — %s", kc.Note, res.Divergences[0])
		})
	}
}
