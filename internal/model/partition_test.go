package model

import (
	"fmt"
	"slices"
	"testing"
)

// grouping is a function of a dimension tuple: its group key, or none.
type grouping func(dims []Value) ([]Value, bool)

// byQuarterAndRegion is PQR's grouping of PDR(d, r): quarter(d), r.
func byQuarterAndRegion(dims []Value) ([]Value, bool) {
	p, _ := dims[0].AsPeriod()
	q, _ := p.Convert(Quarterly)
	return []Value{Per(q), dims[1]}, true
}

// partitionOf groups the version's rows by f under sig as an engine does: the
// key set's partition if it holds one, else one recorded row by row.
func partitionOf(c *Cube, sig string, f grouping) (p *Partition, reused bool) {
	v := c.View()
	if p := v.Partition(sig); p != nil {
		return p, true
	}
	a := v.NewPartition(sig)
	for i := 0; i < v.Len(); i++ {
		if key, ok := f(v.Tuple(i).Dims); ok {
			a.AssignRow(i, key)
		}
	}
	return a.Partition(), false
}

// checkPartition holds p to a map over the same keys in row order.
func checkPartition(t *testing.T, c *Cube, p *Partition, f grouping) {
	t.Helper()
	ids := map[string]uint32{}
	var first []int
	for i, tu := range c.Tuples() {
		want := NoGroup
		if key, ok := f(tu.Dims); ok {
			k := EncodeKey(key)
			if _, seen := ids[k]; !seen {
				ids[k] = uint32(len(ids))
				first = append(first, i)
			}
			want = ids[k]
		}
		if got := p.Ordinals(i, i+1)[0]; got != want {
			t.Fatalf("row %d %v is in group %d, want %d", i, tu.Dims, got, want)
		}
	}
	if p.Groups() != len(first) {
		t.Fatalf("%d groups, want %d", p.Groups(), len(first))
	}
	for g, row := range first {
		if p.First(g) != row {
			t.Fatalf("group %d starts at row %d, want %d", g, p.First(g), row)
		}
	}
}

func TestPartition(t *testing.T) {
	const n = 2000
	base := pdrCube(n).Freeze()
	everyThird := func(dims []Value) ([]Value, bool) { // R00, R03, … have no group
		var i int
		fmt.Sscanf(dims[1].str, "R%d", &i)
		return dims[1:], i%3 != 0
	}

	t.Run("ordinals, first rows, rows without a group", func(t *testing.T) {
		p, reused := partitionOf(base, "q,r", byQuarterAndRegion)
		if reused {
			t.Fatal("a key set nobody grouped holds a partition")
		}
		checkPartition(t, base, p, byQuarterAndRegion)
		if again, reused := partitionOf(base, "q,r", byQuarterAndRegion); !reused || again != p {
			t.Fatal("the second grouping under one signature did not find the first")
		}
		p, _ = partitionOf(base, "r/3", everyThird)
		checkPartition(t, base, p, everyThird)
		if p.Groups() != 13 {
			t.Fatalf("%d groups of regions, want 13", p.Groups())
		}
	})

	t.Run("equal assignments share one array", func(t *testing.T) {
		c := pdrCube(n).Freeze()
		p, _ := partitionOf(c, "sql:quarter(#0), #1", byQuarterAndRegion)
		before := c.MemEstimate()
		q, reused := partitionOf(c, "chase:quarter($0),$1", byQuarterAndRegion)
		if reused || q != p {
			t.Fatalf("a second signature with the same assignment: reused %v, same array %v", reused, q == p)
		}
		if c.MemEstimate() != before {
			t.Fatalf("the shared array is charged twice: %d then %d", before, c.MemEstimate())
		}
		if found := c.View().Partition("chase:quarter($0),$1"); found != p {
			t.Fatal("the second signature does not find the shared array")
		}
	})

	t.Run("the cap drops the oldest", func(t *testing.T) {
		c := pdrCube(n).Freeze()
		for k := 1; k <= maxPartitions+1; k++ {
			partitionOf(c, fmt.Sprint("mod", k), func(dims []Value) ([]Value, bool) {
				p, _ := dims[0].AsPeriod()
				return []Value{Int(p.Ord % int64(k))}, true
			})
		}
		if c.View().Partition("mod1") != nil {
			t.Error("the oldest partition outlived the cap")
		}
		for k := 2; k <= maxPartitions+1; k++ {
			if c.View().Partition(fmt.Sprint("mod", k)) == nil {
				t.Errorf("partition mod%d was dropped", k)
			}
		}
		if got, want := c.View().keys.parts.memEstimate(), int64(4*(maxPartitions*n+2+3+4+5)); got != want {
			t.Errorf("partitions are charged %d bytes, want %d", got, want)
		}
	})

	t.Run("follows the key set, not the version", func(t *testing.T) {
		p, _ := partitionOf(base, "q,r", byQuarterAndRegion)
		ts := base.Tuples()
		restated := []Tuple{{Dims: ts[7].Dims, Measure: -1}}

		mutable := base.Clone()
		_ = mutable.Replace(ts[7].Dims, -1)
		revised := base.Revise(mutable).Current
		applied, err := base.Apply(nil, restated, nil)
		if err != nil {
			t.Fatal(err)
		}
		derived, err := base.Derive(base.Schema().Rename("X"), func(_ int, tu Tuple) (float64, bool, error) { return -tu.Measure, true, nil })
		if err != nil {
			t.Fatal(err)
		}
		follower := NewBuilderOn(base, base.Schema())
		for _, tu := range ts {
			_ = follower.Add(tu.Dims, tu.Measure+1)
		}
		followed, err := follower.Build()
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*Cube{"Revise": revised, "Apply": applied, "Derive": derived, "a following Builder": followed} {
			if got := c.View().Partition("q,r"); got != p {
				t.Errorf("the version %s made does not see its key set's partition", name)
			}
		}

		fresh := []Value{Per(NewDaily(1999, 1, 1)), Str("R00")}
		inserted, err := base.Apply([]Tuple{{Dims: fresh, Measure: 1}}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		deleted, err := base.Apply(nil, nil, ts[:1])
		if err != nil {
			t.Fatal(err)
		}
		dropped, err := base.Derive(base.Schema(), func(i int, tu Tuple) (float64, bool, error) { return tu.Measure, i != 3, nil })
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*Cube{"an insert": inserted, "a delete": deleted, "a Derive that drops": dropped} {
			if c.View().Partition("q,r") != nil {
				t.Errorf("the version %s made sees another key set's partition", name)
			}
			got, _ := partitionOf(c, "q,r", byQuarterAndRegion)
			checkPartition(t, c, got, byQuarterAndRegion)
		}
	})
}

// TestAssigner: ordinals in first-seen order, with or without a recording.
func TestAssigner(t *testing.T) {
	a := NewAssigner()
	for i, want := range []uint32{0, 1, 0, 2, 1} {
		key := []Value{Str([]string{"x", "y", "x", "z", "y"}[i])}
		if got := a.AssignRow(i, key); got != want {
			t.Fatalf("arrival %d is in group %d, want %d", i, got, want)
		}
	}
	if g := a.Assign(nil); g != 3 {
		t.Fatalf("the empty key is group %d, want 3", g)
	}
}

// FuzzPartition: a cube of n tuples over (x, s), grouped by x/div and, if
// withS, s, with the rows whose x is drop modulo mod left out — recorded under
// two signatures. Both are the brute-force map's assignment, and one array.
func FuzzPartition(f *testing.F) {
	f.Add(uint8(10), uint8(2), true, uint8(0), uint8(0))
	f.Add(uint8(200), uint8(7), false, uint8(3), uint8(1))
	f.Add(uint8(0), uint8(1), true, uint8(0), uint8(0))
	f.Add(uint8(50), uint8(0), false, uint8(1), uint8(0)) // every row dropped
	f.Add(uint8(255), uint8(255), true, uint8(2), uint8(5))
	f.Fuzz(func(t *testing.T, n, div uint8, withS bool, mod, drop uint8) {
		c := NewCube(NewSchema("C", []Dim{{Name: "x", Type: TInt}, {Name: "s", Type: TString}}, "m"))
		for i := 0; i < int(n); i++ {
			_ = c.Replace([]Value{Int(int64(i) / 3), Str(string(rune('a' + i%3)))}, float64(i))
		}
		c.Freeze()
		group := func(dims []Value) ([]Value, bool) {
			x, _ := dims[0].AsInt()
			if mod > 0 && x%int64(mod) == int64(drop) {
				return nil, false
			}
			key := []Value{Int(x / (int64(div) + 1))}
			if withS {
				key = append(key, dims[1])
			}
			return key, true
		}
		p, reused := partitionOf(c, "one", group)
		if reused {
			t.Fatal("a fresh key set holds a partition")
		}
		checkPartition(t, c, p, group)
		if q, reused := partitionOf(c, "two", group); reused || q != p {
			t.Fatalf("the same assignment under a second signature: reused %v, one array %v", reused, q == p)
		}
		if got := c.View().keys.parts.memEstimate(); got != 4*int64(int(n)+p.Groups()) {
			t.Fatalf("charged %d bytes for %d rows in %d groups", got, n, p.Groups())
		}
		if !slices.Equal(c.View().Partition("two").rows, p.rows) {
			t.Fatal("the second signature finds another assignment")
		}
	})
}
