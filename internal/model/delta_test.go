package model

import (
	"reflect"
	"testing"
)

// seriesCube is a quarterly series of n tuples, tuple i valued i.
func seriesCube(t testing.TB, n int) *Cube {
	t.Helper()
	c := NewCube(gdpSchema())
	for i := 0; i < n; i++ {
		if err := c.Put([]Value{Per(NewQuarterly(2000+i/4, 1+i%4))}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func quarter(i int) []Value { return []Value{Per(NewQuarterly(2000+i/4, 1+i%4))} }

// TestDiffSmallGivesUpPastAQuarter pins where the bounded diff stops: a
// delta of at most a quarter of the new cube is returned, and is the exact
// one; one tuple more and there is none, whichever of the three lists the
// tuples fall in.
func TestDiffSmallGivesUpPastAQuarter(t *testing.T) {
	base := seriesCube(t, 40).Freeze()
	revise := func(change, drop, add int) *Cube {
		c := base.Clone()
		for i := 0; i < change; i++ {
			if err := c.Replace(quarter(i), -1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < drop; i++ {
			c.Delete(quarter(39 - i))
		}
		for i := 0; i < add; i++ {
			if err := c.Replace(quarter(100+i), 7); err != nil {
				t.Fatal(err)
			}
		}
		return c.Freeze()
	}
	cases := []struct {
		change, drop, add int
		small             bool
	}{
		{0, 0, 0, true},
		{10, 0, 0, true},   // 10 of 40
		{11, 0, 0, false},  // 11 of 40
		{4, 3, 2, true},    // 9 of 39
		{4, 4, 2, false},   // 10 of 38: 38/4 = 9
		{0, 0, 13, true},   // 13 of 53
		{0, 0, 14, false},  // 14 of 54
		{0, 9, 0, false},   // 9 of 31
		{0, 40, 0, false},  // everything of nothing
		{0, 30, 50, false}, // sizes apart by less than the changes
	}
	for _, tc := range cases {
		cur := revise(tc.change, tc.drop, tc.add)
		exact := DiffCubes("GDP", base, cur)
		if len(exact.Changed) != tc.change || len(exact.Deleted) != tc.drop || len(exact.Added) != tc.add {
			t.Fatalf("%+v: exact diff is ~%d -%d +%d", tc, len(exact.Changed), len(exact.Deleted), len(exact.Added))
		}
		if exact.Small() != tc.small {
			t.Errorf("%+v: Small() = %v", tc, exact.Small())
		}
		got := DiffSmall("GDP", base, cur)
		if (got != nil) != tc.small {
			t.Errorf("%+v: DiffSmall returned %v", tc, got)
			continue
		}
		if got != nil && !reflect.DeepEqual(got, exact) {
			t.Errorf("%+v: the bounded diff is not the exact one", tc)
		}
	}
}

// TestDiffCubesCountsDeletionsFromSizes pins the shortcut in the diff: the
// sizes of the cubes and the number of added tuples say how many tuples
// cur dropped, base is scanned only for that many, and they are the right
// ones beside additions that mask the change in size.
func TestDiffCubesCountsDeletionsFromSizes(t *testing.T) {
	base := seriesCube(t, 1000).Freeze()
	cur := base.Clone()
	_ = cur.Replace(quarter(3), -1)
	_ = cur.Replace(quarter(5000), 1)
	d := DiffCubes("GDP", base, cur)
	if len(d.Added) != 1 || len(d.Changed) != 1 || len(d.Deleted) != 0 {
		t.Fatalf("delta = +%d ~%d -%d", len(d.Added), len(d.Changed), len(d.Deleted))
	}
	cur.Delete(quarter(7))
	cur.Delete(quarter(8))
	_ = cur.Replace(quarter(5001), 1) // 1000 tuples again
	d = DiffCubes("GDP", base, cur)
	if len(d.Added) != 2 || len(d.Deleted) != 2 || d.Deleted[0].Measure != 7 || d.Deleted[1].Measure != 8 {
		t.Fatalf("Added = %v, Deleted = %v", d.Added, d.Deleted)
	}
}
