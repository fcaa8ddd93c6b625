package model

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// rowMap is a mutable cube as one was held before a cube was edits over a
// version: its tuples by row key, Put checking the egd against the map. It is
// the oracle the edit form is held to.
type rowMap map[string]Tuple

// rowsOf returns c's tuples as a rowMap, taken without folding c (byCompare).
func rowsOf(c *Cube) rowMap {
	m := rowMap{}
	for _, tu := range byCompare(c) {
		m[EncodeKey(tu.Dims)] = tu
	}
	return m
}

func (m rowMap) put(name string, dims []Value, measure float64) error {
	if old, ok := m[EncodeKey(dims)]; ok {
		return checkEgd(name, dims, old.Measure, measure)
	}
	m.replace(dims, measure)
	return nil
}

func (m rowMap) replace(dims []Value, measure float64) {
	m[EncodeKey(dims)] = Tuple{Dims: slices.Clone(dims), Measure: measure}
}

// sorted returns the tuples in cube order: the byte order of their keys.
func (m rowMap) sorted() []Tuple {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ts := make([]Tuple, len(keys))
	for i, k := range keys {
		ts[i] = m[k]
	}
	return ts
}

// oracleDelta is the delta from base to cur by probing their row maps, each
// list in cube order.
func oracleDelta(base, cur rowMap) *CubeDelta {
	d := &CubeDelta{}
	for _, tu := range cur.sorted() {
		if old, ok := base[EncodeKey(tu.Dims)]; !ok {
			d.Added = append(d.Added, tu)
		} else if old.Measure != tu.Measure {
			d.Changed = append(d.Changed, tu)
		}
	}
	for _, tu := range base.sorted() {
		if _, ok := cur[EncodeKey(tu.Dims)]; !ok {
			d.Deleted = append(d.Deleted, tu)
		}
	}
	return d
}

// runScript runs an edit script on c and on the oracle alike, three bytes an
// edit: what, where (the dimension tuple dims returns for it) and the measure.
// What is a Replace, a Put, a Delete, a Replace with NaN, or a read in order,
// which leaves a fold for the next edit to stand on. Put's error and Delete's
// answer must be the oracle's, to the letter.
func runScript(t *testing.T, c *Cube, oracle rowMap, dims func(byte) []Value, script []byte) {
	t.Helper()
	for ; len(script) >= 3; script = script[3:] {
		at, m := dims(script[1]), float64(script[2])
		switch script[0] % 5 {
		case 3:
			m = math.NaN()
			fallthrough
		case 0:
			if err := c.Replace(at, m); err != nil {
				t.Fatal(err)
			}
			oracle.replace(at, m)
		case 1:
			got, want := c.Put(at, m), oracle.put(c.Schema().Name, at, m)
			if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
				t.Fatalf("Put(%v, %v) = %v, want %v", at, m, got, want)
			}
		case 2:
			_, had := oracle[EncodeKey(at)]
			delete(oracle, EncodeKey(at))
			if c.Delete(at) != had {
				t.Fatalf("Delete(%v) = %v, want %v", at, !had, had)
			}
		default:
			c.View()
		}
	}
}

// sameAsOracle: c holds what the oracle does, bit for bit — Len, Get at every
// tuple and at one it lacks, then Ordered.
func sameAsOracle(t *testing.T, c *Cube, oracle rowMap) {
	t.Helper()
	if c.Len() != len(oracle) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(oracle))
	}
	for _, tu := range oracle {
		if m, ok := c.Get(tu.Dims); !ok || math.Float64bits(m) != math.Float64bits(tu.Measure) {
			t.Fatalf("Get(%v) = %v, %v, want %v", tu.Dims, m, ok, tu.Measure)
		}
	}
	miss := make([]Value, len(c.Schema().Dims))
	for i := range miss {
		miss[i] = Str("no such coordinate")
	}
	if _, ok := c.Get(miss); ok {
		t.Fatal("Get found a tuple the cube does not hold")
	}
	var got []Tuple
	_ = c.Ordered(func(tu Tuple) error { got = append(got, tu); return nil })
	sameTuplesBits(t, got, oracle.sorted())
}

// TestEditedCubeReadConcurrently: goroutines read one cube with edits pending
// over a version — View, Ordered, Get, Len, Clone, Snapshot, MemEstimate —
// while nobody mutates it (run under -race). Whichever folds the edits first,
// every one of them sees the one version, the oracle's.
func TestEditedCubeReadConcurrently(t *testing.T) {
	const n, readers = 4000, 8
	base := pdrCube(n).Freeze()
	tuples := base.Tuples()
	for _, moves := range []bool{false, true} {
		c, oracle := base.Clone(), rowsOf(base)
		for i := 3; i < n; i += 97 {
			_ = c.Replace(tuples[i].Dims, -float64(i))
			oracle.replace(tuples[i].Dims, -float64(i))
		}
		if moves { // an insert and a delete besides
			extra := []Value{Per(NewDaily(1999, time.January, 1)), Str("R00")}
			_ = c.Put(extra, 1)
			_ = oracle.put("PDR", extra, 1)
			c.Delete(tuples[5].Dims)
			delete(oracle, EncodeKey(tuples[5].Dims))
		}
		want := oracle.sorted()
		views := make([]*View, readers)
		var wg sync.WaitGroup
		for g := range views {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g % 4 {
				case 0:
					for i := g; i < len(want); i += 7 {
						if m, ok := c.Get(want[i].Dims); !ok || m != want[i].Measure || c.Len() != len(want) {
							t.Errorf("Get(%v) = %v, %v; Len %d", want[i].Dims, m, ok, c.Len())
							return
						}
					}
				case 1:
					i := 0
					_ = c.Ordered(func(tu Tuple) error {
						if compareDims(tu.Dims, want[i].Dims) != 0 || tu.Measure != want[i].Measure {
							t.Errorf("Ordered differs from the oracle at %d", i)
						}
						i++
						return nil
					})
				case 2:
					if cl, s := c.Clone(), c.Snapshot(); cl.View() != s.View() || cl.Len() != len(want) || s.Len() != len(want) {
						t.Error("Clone and Snapshot do not stand on one version")
					}
				default:
					if c.MemEstimate() <= 0 {
						t.Error("MemEstimate is not positive")
					}
				}
				views[g] = c.View()
			}(g)
		}
		wg.Wait()
		for g, v := range views {
			if v != views[0] {
				t.Fatalf("reader %d saw another version than reader 0", g)
			}
		}
		if c.Frozen() || (c.View().keys == base.View().keys) == moves {
			t.Fatalf("the readers froze the cube, or its fold is on the base's key set: %v", !moves)
		}
		sameAsOracle(t, c, oracle)
		// The owner's next edit is written over the fold the readers shared.
		_ = c.Replace(want[0].Dims, 0.5)
		if c.base != views[0] || c.View().keys != views[0].keys {
			t.Fatal("the edit after a read in order is not over the fold it left")
		}
	}
}
