package model

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// alignSchema is the schema of the cubes the alignment tests build: a number
// dimension, whose Int 3 and Num 3.0 are one key, and a string dimension.
func alignSchema(name string) Schema {
	return NewSchema(name, []Dim{{Name: "x", Type: TInt}, {Name: "s", Type: TString}}, "m")
}

// alignStrings are the string dimension's values: prefixes of each other,
// NUL bytes inside and at the end.
var alignStrings = [...]string{"", "a", "a\x00", "a\x00b", "\x00", "b", "ab", "a\x00\x01"}

// alignValue is the number dimension's value k (0 to 3) of kind 0 (Int), 1
// (Num) or 2 (Num, zero negative).
func alignValue(kind, k byte) Value {
	switch kind % 3 {
	case 0:
		return Int(int64(k))
	case 1:
		return Num(float64(k))
	}
	if k == 0 {
		return Num(math.Copysign(0, -1))
	}
	return Num(float64(k) + 0.5)
}

// checkAlign holds p.Align(q) to q.Row at every row of p — the key equality a
// hash join probes with — and holds a second call to the rows the first
// returned.
func checkAlign(t *testing.T, p, q *View) {
	t.Helper()
	rows := p.Align(q)
	if len(rows) != p.Len() {
		t.Fatalf("%d rows aligned, want %d", len(rows), p.Len())
	}
	for i := range p.Len() {
		want := -1
		if j, ok := q.Row(p.Dims(i)); ok {
			want = j
		}
		if int(rows[i]) != want {
			t.Fatalf("row %d %v aligns with %d, want %d", i, p.Dims(i), rows[i], want)
		}
	}
	if again := p.Align(q); len(rows) > 0 && &again[0] != &rows[0] {
		t.Fatal("a second Align computed the rows again")
	}
}

// FuzzAlign builds two key sets from a script of tuples, each on one side or
// on both — where on both, the second side may give the number its other kind
// (Int 3 against Num 3.0) or zero its other sign — and holds the alignment of
// each with the other to View.Row, and its second reading to the cached rows.
func FuzzAlign(f *testing.F) {
	f.Add([]byte{2, 0, 0, 2, 1, 1, 0, 2, 2, 1, 3, 3})
	f.Add([]byte{2, 3, 1, 6, 3, 2, 6, 4, 3, 2, 5, 4}) // Int against Num, at one key
	f.Add([]byte{6, 2, 0, 2, 2, 1, 8, 2, 4})          // -0 against 0
	f.Add([]byte{0, 0, 2, 1, 0, 3, 2, 0, 7, 2, 4, 4}) // NUL bytes: "a\x00" and "a\x00\x01" apart
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, script []byte) {
		p, q := NewCube(alignSchema("P")), NewCube(alignSchema("Q"))
		for ; len(script) >= 3; script = script[3:] {
			side, kind, at := script[0], script[1], script[2]
			dims := []Value{alignValue(kind, at&3), Str(alignStrings[at>>2&7])}
			if side%3 != 1 {
				_ = p.Replace(dims, float64(at))
			}
			if side%3 != 0 {
				if side&4 != 0 {
					dims[0] = alignValue(kind+1+side>>3, at&3)
				}
				_ = q.Replace(dims, float64(at))
			}
		}
		pv, qv := p.Freeze().View(), q.Freeze().View()
		checkAlign(t, pv, qv)
		checkAlign(t, qv, pv)
		checkAlign(t, pv, pv)
		if got := pv.keys.aligns.memEstimate(); got != 4*int64(2*pv.Len()) {
			t.Fatalf("charged %d bytes for two alignments of %d rows", got, pv.Len())
		}
	})
}

// TestNoInvalidDimensionIsStored: a tuple with an invalid (NULL, NA)
// dimension value is an error for Put, Replace, a Builder's Add and Apply, and
// no tuple for AddRow, so no key set holds one: a hash join never matches such
// a value, and Align, which pairs equal keys, would.
func TestNoInvalidDimensionIsStored(t *testing.T) {
	bad := []Value{{}, Str("a")}
	c := NewCube(alignSchema("C"))
	if err := c.Put(bad, 1); err == nil {
		t.Error("Put stored an invalid dimension value")
	}
	if err := c.Replace(bad, 1); err == nil {
		t.Error("Replace stored an invalid dimension value")
	}
	b := NewBuilder(alignSchema("C"))
	if err := b.Add(bad, 1); err == nil {
		t.Error("a Builder's Add took an invalid dimension value")
	}
	if err := b.AddRow(bad, Num(1)); err != nil {
		t.Errorf("AddRow: %v, want no tuple and no error", err)
	}
	if built, err := b.Build(); err != nil || built.Len() != 0 {
		t.Errorf("the Builder built %d tuples (%v), want none", built.Len(), err)
	}
	if _, err := c.Freeze().Apply([]Tuple{{Dims: bad, Measure: 1}}, nil, nil); err == nil {
		t.Error("Apply added an invalid dimension value")
	}
	if c.Len() != 0 {
		t.Errorf("the cube holds %d tuples, want none", c.Len())
	}
}

// alignCube is a frozen cube of n tuples (i, "a") under the alignment schema.
func alignCube(name string, n int) *Cube {
	c := NewCube(alignSchema(name))
	for i := range n {
		_ = c.Put([]Value{Int(int64(i)), Str("a")}, float64(i))
	}
	return c.Freeze()
}

// alignWithFresh aligns p with a key set nothing else refers to once it
// returns.
//
//go:noinline
func alignWithFresh(p *View, n int) {
	p.Align(alignCube("Q", n).View())
}

// TestAlignHoldsItsPartnerWeakly: the alignment a key set caches does not keep
// its partner alive. Once nothing else refers to the partner it is collected,
// and the next Align lets go of the rows held for it.
func TestAlignHoldsItsPartnerWeakly(t *testing.T) {
	p := alignCube("P", 100).View()
	alignWithFresh(p, 50)
	if n := len(p.keys.aligns.held); n != 1 {
		t.Fatalf("%d alignments held, want 1", n)
	}
	runtime.GC()
	runtime.GC()
	if p.keys.aligns.held[0].partner.Value() != nil {
		t.Fatal("the partner key set outlived every reference but the alignment's")
	}
	q := alignCube("Q", 50).View()
	checkAlign(t, p, q)
	if n := len(p.keys.aligns.held); n != 1 {
		t.Fatalf("%d alignments held after the partner was collected, want 1", n)
	}
	runtime.KeepAlive(q)
}

// TestAlignConcurrently: goroutines align one key set at once with one
// partner, and all hold the first insert's rows; then with more partners than
// a key set remembers, which push older ones out while others read them. Run
// it under the race detector.
func TestAlignConcurrently(t *testing.T) {
	p, shared := alignCube("P", 300).View(), alignCube("S", 200).View()
	got := make([][]int32, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = p.Align(shared)
		}()
	}
	wg.Wait()
	for g := range got {
		if &got[g][0] != &got[0][0] {
			t.Fatalf("goroutine %d holds rows of its own, not the first insert", g)
		}
	}
	checkAlign(t, p, shared)

	partners := make([]*View, 2*maxAlignments)
	for i := range partners {
		partners[i] = alignCube("O", 100+i).View()
	}
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range partners {
				o := partners[(g+i)%len(partners)]
				if rows := p.Align(o); rows[o.Len()-1] != int32(o.Len()-1) || rows[299] != -1 {
					t.Errorf("row %d aligns with %d and row 299 with %d, want %d and -1", o.Len()-1, rows[o.Len()-1], rows[299], o.Len()-1)
				}
			}
		}()
	}
	wg.Wait()
	if n := len(p.keys.aligns.held); n > maxAlignments {
		t.Fatalf("%d alignments held, want at most %d", n, maxAlignments)
	}
}
