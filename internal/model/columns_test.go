package model

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// asColumns returns c's content as a version on another's key set, the way a
// store comes by one: as the revision of a predecessor with the same
// dimension tuples and other measures.
func asColumns(t testing.TB, c *Cube) *Cube {
	t.Helper()
	prev := NewCube(c.Schema())
	_ = c.ForEach(func(tu Tuple) error { return prev.Replace(tu.Dims, tu.Measure+1) })
	d := prev.Freeze().Revise(c)
	if d == nil {
		t.Fatal("Revise gave up on a cube with its predecessor's dimension tuples")
	}
	if !OnlyColumns(d.Current) || !d.Current.SharesKeySet(prev) {
		t.Fatal("the revised version is not a frozen cube on its predecessor's key set")
	}
	return d.Current
}

func sameDelta(t *testing.T, what string, got, want *CubeDelta) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: delta is %v, want %v", what, got, want)
	}
	if got == nil {
		return
	}
	sameTuples(t, what+": Added", got.Added, want.Added)
	sameTuples(t, what+": Changed", got.Changed, want.Changed)
	sameTuples(t, what+": Deleted", got.Deleted, want.Deleted)
}

// TestTwoFormsOneBehaviour: the two forms left are a mutable cube and its
// frozen self, and every reader gives the same answer on both, and on the same
// content as a version on another's key set. (It is ISSUE 21's
// TestMutableAndFrozenAgree; it keeps the name its eight entries in the test
// floor have.)
func TestTwoFormsOneBehaviour(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	series := NewCube(gdpSchema())
	for i := 0; i < 40; i++ {
		_ = series.Put(quarter(i), float64(i)*1.5)
	}
	odd := NewCube(NewSchema("ODD", []Dim{{Name: "x", Type: TInt}}, "m"))
	for i, m := range []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, -7} {
		_ = odd.Replace([]Value{Int(int64(i))}, m)
	}
	cases := map[string]*Cube{
		"empty":   NewCube(gdpSchema()),
		"one":     pdrCube(1),
		"pdr":     pdrCube(600),
		"series":  series,
		"mixed":   randomCube(r, 300, "number", "string"),
		"nuls":    randomCube(r, 100, "nuls", "int"),
		"oddball": odd,
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			rows, cols := content.Clone().Freeze(), asColumns(t, content)
			want := byCompare(content)

			if content.Len() != len(want) || rows.Len() != len(want) || cols.Len() != len(want) {
				t.Fatalf("Len = %d, %d and %d, want %d", content.Len(), rows.Len(), cols.Len(), len(want))
			}
			if !OnlyColumns(rows) || OnlyColumns(content) || content.Frozen() {
				t.Fatal("Freeze left its edits behind, or froze the clone's original")
			}
			for _, c := range []*Cube{content, rows, cols} {
				var scanned, unordered []Tuple
				_ = c.Ordered(func(tu Tuple) error { scanned = append(scanned, tu); return nil })
				sameTuples(t, "Ordered", scanned, want)
				sameTuples(t, "Tuples", c.Tuples(), want)
				_ = c.ForEach(func(tu Tuple) error { unordered = append(unordered, tu); return nil })
				if len(unordered) != len(want) {
					t.Fatalf("ForEach saw %d tuples, want %d", len(unordered), len(want))
				}
				stop := fmt.Errorf("stop")
				seen := 0
				if err := c.ForEach(func(Tuple) error { seen++; return stop }); len(want) > 0 && (err != stop || seen != 1) {
					t.Errorf("ForEach did not stop at the first error: %d calls, err %v", seen, err)
				}
				for _, tu := range want {
					if m, ok := c.Get(tu.Dims); !ok || math.Float64bits(m) != math.Float64bits(tu.Measure) {
						t.Fatalf("Get(%v) = %v, %v, want %v", tu.Dims, m, ok, tu.Measure)
					}
				}
				miss := make([]Value, len(c.Schema().Dims))
				for i := range miss {
					miss[i] = Str("no such coordinate")
				}
				if _, ok := c.Get(miss); ok {
					t.Error("Get found a tuple the cube does not hold")
				}
				if c.MemEstimate() < int64(8*len(want)) {
					t.Errorf("MemEstimate = %d", c.MemEstimate())
				}

				clone := c.Clone()
				if clone.Frozen() || !clone.Equal(rows, 0) {
					t.Fatal("Clone is frozen or differs from its original")
				}
				extra := make([]Value, len(miss))
				copy(extra, miss)
				if err := clone.Replace(extra, 1); err != nil || c.Len() != len(want) {
					t.Fatalf("mutating the clone: %v; the original now has %d tuples", err, c.Len())
				}

				into, err := c.Derive(c.Schema(), func(_ int, tu Tuple) (float64, bool, error) { return tu.Measure, !(tu.Measure > 100), nil })
				if err != nil {
					t.Fatal(err)
				}
				kept := 0
				for _, tu := range want {
					m, ok := into.Get(tu.Dims)
					if ok != !(tu.Measure > 100) || ok && math.Float64bits(m) != math.Float64bits(tu.Measure) {
						t.Fatalf("Derive: %v -> %v, %v", tu.Dims, m, ok)
					}
					if ok {
						kept++
					}
				}
				if into.Len() != kept || into.SharesKeySet(c) != (kept == len(want)) {
					t.Fatalf("Derive kept %d of %d tuples, want %d; on the source's key set: %v", into.Len(), len(want), kept, into.SharesKeySet(c))
				}
			}
			if rows.MemEstimate() != cols.MemEstimate() || content.MemEstimate() < cols.MemEstimate()/4 {
				t.Errorf("estimates %d (mutable), %d (frozen) and %d (on another's key set) are far apart",
					content.MemEstimate(), rows.MemEstimate(), cols.MemEstimate())
			}

			// Equal, Diff and DiffCubes, across every pairing of the forms,
			// against the same content and against an edited copy.
			edited := content.Clone()
			if len(want) > 0 {
				_ = edited.Replace(want[0].Dims, want[0].Measure+5)
				edited.Delete(want[len(want)-1].Dims)
			}
			added := make([]Value, len(content.Schema().Dims))
			for i := range added {
				added[i] = Str("added")
			}
			_ = edited.Replace(added, 1)
			editedCols := asColumns(t, edited)
			wantDiff := rows.Diff(edited, 0, 10)
			wantDelta := DiffCubes("C", rows, edited)
			wantBack := DiffCubes("C", edited, rows)
			for i, a := range []*Cube{content, rows, cols} {
				for j, b := range []*Cube{content, rows, cols} {
					if !a.Equal(b, 0) {
						t.Errorf("Equal is false between forms %d and %d of one content", i, j)
					}
					sameDelta(t, "DiffCubes of one content", DiffCubes("C", a, b), &CubeDelta{})
				}
				for j, e := range []*Cube{edited, edited.Clone().Freeze(), editedCols} {
					what := fmt.Sprintf("forms %d, %d", i, j)
					if a.Equal(e, 0) || e.Equal(a, 0) {
						t.Errorf("%s: Equal is true against an edited copy", what)
					}
					if got := a.Diff(e, 0, 10); !reflect.DeepEqual(got, wantDiff) {
						t.Errorf("%s: Diff = %q, want %q", what, got, wantDiff)
					}
					sameDelta(t, what, DiffCubes("C", a, e), wantDelta)
					sameDelta(t, what+" reversed", DiffCubes("C", e, a), wantBack)
					sameDelta(t, what+" small", DiffSmall("C", a, e), DiffSmall("C", rows, edited))
				}
			}

			if content.Schema().IsTimeSeries() {
				p1, v1, err1 := rows.SortedSeries()
				p2, v2, err2 := cols.SortedSeries()
				if err1 != nil || err2 != nil || !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(v1, v2) || len(p1) != len(want) {
					t.Errorf("SortedSeries differs between the forms (%v, %v)", err1, err2)
				}
				if len(v2) > 0 {
					v2[0]++
					if m, _ := cols.Get(want[0].Dims); m != want[0].Measure {
						t.Error("SortedSeries handed out the cube's own measure column")
					}
				}
			}
		})
	}
}

// TestReviseSharesTheKeySet: a revision is stored as a measure column over
// its predecessor's key set, with the exact delta; two versions on one key
// set are diffed column against column; and the Dims a revised version
// shows are its predecessor's — key-equal, hence Equal, to the ones put.
func TestReviseSharesTheKeySet(t *testing.T) {
	sch := NewSchema("C", []Dim{{Name: "x", Type: TInt}, {Name: "r", Type: TString}}, "m")
	prev := NewCube(sch)
	for i := 0; i < 100; i++ {
		_ = prev.Put([]Value{Int(int64(i)), Str("r")}, float64(i))
	}
	prev.Freeze()
	// The revision names the same points with Num where prev has Int.
	rev := NewCube(sch)
	for i := 0; i < 100; i++ {
		m := float64(i)
		if i%10 == 3 {
			m = -m
		}
		_ = rev.Put([]Value{Num(float64(i)), Str("r")}, m)
	}
	d := prev.Revise(rev)
	if d == nil {
		t.Fatal("Revise gave up on a revision")
	}
	v1 := d.Current
	if d.Base != prev || d.Name != "C" || !v1.SharesKeySet(prev) {
		t.Fatal("the revision does not share its predecessor's key set")
	}
	if !v1.Equal(rev, 0) {
		t.Fatalf("revised version differs from what was put: %v", v1.Diff(rev, 0, 3))
	}
	sameDelta(t, "Revise", d, DiffCubes("C", prev, rev.Clone().Freeze()))
	if len(d.Changed) != 10 || len(d.Added)+len(d.Deleted) != 0 {
		t.Fatalf("delta = +%d ~%d -%d, want 10 changed", len(d.Added), len(d.Changed), len(d.Deleted))
	}
	_ = v1.Ordered(func(tu Tuple) error {
		if tu.Dims[0].Kind() != KindInt {
			t.Fatalf("revised version shows %v (%v), want the predecessor's Int", tu.Dims[0], tu.Dims[0].Kind())
		}
		if m, ok := rev.Get(tu.Dims); !ok || m != tu.Measure {
			t.Fatalf("%v -> %v is not what was put (%v, %v)", tu.Dims, tu.Measure, m, ok)
		}
		return nil
	})
	if rev.Frozen() {
		t.Error("Revise froze the caller's cube")
	}

	// A revision of the revision: still the one key set; versions two
	// apart are compared without a probe.
	rev2 := rev.Clone()
	_ = rev2.Replace([]Value{Int(50), Str("r")}, 1e6)
	d2 := v1.Revise(rev2)
	if d2 == nil || !d2.Current.SharesKeySet(v1) {
		t.Fatal("second revision does not share the key set")
	}
	sameDelta(t, "second revision", d2, DiffCubes("C", rev, rev2))
	sameDelta(t, "two apart", DiffCubes("C", prev, d2.Current), DiffCubes("C", prev.Clone(), rev2))
	if got := DiffSmall("C", prev, asColumnsOn(t, prev, negated(prev))); got != nil {
		t.Errorf("DiffSmall of columns that differ everywhere = %d tuples, want nil", got.Size())
	}
	// Revising, scanning and diffing versions on one key set need no index,
	// and a probe by key is a search; probing every tuple builds the one
	// index they all share.
	if _, ok := d2.Current.Get([]Value{Int(50), Str("r")}); !ok || !rev2.Equal(d2.Current, 0) {
		t.Error("the second revision lacks what was put")
	}
	if prev.View().keys.index.Load() != nil {
		t.Error("something built the key set's index")
	}
	_ = d2.Current.Ordered(func(tu Tuple) error {
		if m, ok := d2.Current.Get(tu.Dims); !ok || m != tu.Measure {
			t.Errorf("Get(%v) = %v, %v, want %v", tu.Dims, m, ok, tu.Measure)
		}
		return nil
	})
	if _, ok := d2.Current.Get([]Value{Int(50), Str("nowhere")}); ok || v1.View().keys.index.Load() == nil {
		t.Error("probing every tuple of the second revision did not build the index its predecessors share")
	}
}

// asColumnsOn is prev.Revise(c).Current.
func asColumnsOn(t *testing.T, prev, c *Cube) *Cube {
	t.Helper()
	d := prev.Revise(c)
	if d == nil {
		t.Fatal("Revise gave up")
	}
	return d.Current
}

func negated(c *Cube) *Cube {
	out := NewCube(c.Schema())
	_ = c.ForEach(func(tu Tuple) error { return out.Replace(tu.Dims, -tu.Measure-1) })
	return out
}

// TestReviseGivesUp: Revise gives up where the predecessor can still change
// or the schemas differ, and a put cube, mutable or frozen, is compared
// whatever moved. A mutable one over the predecessor — its Clone, edited — is
// its own delta; any other is merged with it, as a frozen one is. The
// version stands on the predecessor's key set exactly when only measures
// moved, and a frozen put that moved more is stored as it is. Left as it is
// (nil) is only a cube whose View already stands on the predecessor's key
// set, which its snapshot then shares.
func TestReviseGivesUp(t *testing.T) {
	base := func() *Cube { return pdrCube(200) }
	last := base().Tuples()[199]
	early := []Value{Per(NewDaily(1999, time.January, 1)), Str("R00")}
	late := []Value{Per(NewDaily(2100, time.January, 1)), Str("R00")}

	if base().Revise(base()) != nil {
		t.Error("shared with a predecessor that can still change")
	}
	renamed := NewCube(base().Schema().Rename("OTHER"))
	_ = base().ForEach(func(tu Tuple) error { return renamed.Put(tu.Dims, tu.Measure) })
	if base().Freeze().Revise(renamed) != nil || base().Freeze().Revise(renamed.Freeze()) != nil {
		t.Error("shared across schemas")
	}
	if d := NewCube(gdpSchema()).Freeze().Revise(NewCube(gdpSchema())); d == nil || d.Current.Len() != 0 || !d.Empty() {
		t.Error("gave up on an empty revision of an empty cube")
	}

	prev := base().Freeze()
	edits := map[string]func(*Cube){
		"unchanged":               func(*Cube) {},
		"restated":                func(c *Cube) { _ = c.Replace(last.Dims, -1) },
		"restated to what it was": func(c *Cube) { _ = c.Replace(last.Dims, last.Measure) },
		"grown":                   func(c *Cube) { _ = c.Put(early, 1) },
		"shrunk":                  func(c *Cube) { c.Delete(last.Dims) },
		"swapped":                 func(c *Cube) { c.Delete(last.Dims); _ = c.Put(late, 1) },
		"deleted and put back":    func(c *Cube) { c.Delete(last.Dims); _ = c.Put(last.Dims, 7) },
	}
	for name, edit := range edits {
		over, fresh := prev.Clone(), base()
		edit(over)
		edit(fresh)
		for form, c := range map[string]*Cube{"over the predecessor": over, "a new cube": fresh, "frozen": fresh.Clone().Freeze()} {
			what := name + ", " + form
			want := oracleDelta(rowsOf(prev), rowsOf(c))
			d := prev.Revise(c)
			if d == nil {
				t.Fatalf("%s: Revise gave up", what)
			}
			sameDelta(t, what, d, want)
			sameDelta(t, what+", DiffCubes", d, DiffCubes("PDR", prev, c))
			moved := len(want.Added)+len(want.Deleted) > 0
			if d.Base != prev || !OnlyColumns(d.Current) || !d.Current.Equal(c, 0) || d.Current.SharesKeySet(prev) == moved ||
				c.Frozen() && (d.Current == c) != moved {
				t.Fatalf("%s: version frozen %v, on the predecessor's key set %v, the put itself %v", what,
					d.Current.Frozen(), d.Current.SharesKeySet(prev), d.Current == c)
			}
		}
		if over.Frozen() || fresh.Frozen() {
			t.Fatalf("%s: Revise froze the caller's cube", name)
		}
	}

	// Frozen or not, a put whose View is on the predecessor's key set already
	// is taken as it is.
	same := negated(base()).Freeze()
	if d := prev.Revise(same); d == nil || !d.Current.SharesKeySet(prev) || d.Current == same || len(d.Changed) != 200 ||
		&d.Current.View().Measures()[0] != &same.View().Measures()[0] || !d.Current.Equal(same, 0) {
		t.Errorf("a frozen revision: %+v", d)
	}
	if prev.Revise(asColumnsOn(t, prev, base())) != nil {
		t.Error("a version already on the key set is left to be taken as it is")
	}
	v1 := asColumnsOn(t, prev, negated(base()))
	stale := prev.Clone() // over prev, not over v1, whose key set its fold stands on
	_ = stale.Replace(last.Dims, 5)
	if v1.Revise(stale) != nil || !stale.Snapshot().SharesKeySet(v1) {
		t.Error("a mutable put on the predecessor's key set is not taken as it is")
	}
}

// TestKeySetSharedConcurrently: goroutines read several versions of one
// key set — Get, Ordered, Derive's source side, MemEstimate — while its
// index is first built (run under -race).
func TestKeySetSharedConcurrently(t *testing.T) {
	prev := pdrCube(4000).Freeze()
	versions := []*Cube{prev}
	for v := 1; v <= 3; v++ {
		rev := versions[v-1].Clone()
		for i := v; i < 4000; i += 97 {
			tu := prev.View().Tuple(i)
			_ = rev.Replace(tu.Dims, float64(-v*i))
		}
		versions = append(versions, asColumnsOn(t, versions[len(versions)-1], rev))
	}
	want := prev.Tuples()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := versions[1+g%3]
			switch g % 4 {
			case 0, 1:
				for i := g; i < len(want); i += 7 {
					if _, ok := c.Get(want[i].Dims); !ok {
						t.Errorf("Get misses %v", want[i].Dims)
						return
					}
				}
			case 2:
				i := 0
				_ = c.Ordered(func(tu Tuple) error {
					if compareDims(tu.Dims, want[i].Dims) != 0 {
						t.Errorf("Ordered differs from the order at %d", i)
					}
					i++
					return nil
				})
			default:
				out, err := c.Derive(c.Schema(), func(_ int, tu Tuple) (float64, bool, error) { return tu.Measure, true, nil })
				if err != nil || !out.Equal(c, 0) || !out.SharesKeySet(prev) {
					t.Errorf("Derive: %v", err)
				}
			}
			if c.MemEstimate() <= 0 {
				t.Error("MemEstimate is not positive")
			}
		}(g)
	}
	wg.Wait()
}

// TestCubeDerive: a version defined point by point on a source stands on the
// source's key set where it keeps every tuple, and on the kept subsequence —
// the source's Dims slices, in cube order — where it drops some.
func TestCubeDerive(t *testing.T) {
	src := NewCube(gdpSchema())
	for q := 4; q >= 1; q-- {
		if err := src.Put([]Value{Per(NewQuarterly(2001, q))}, float64(q)); err != nil {
			t.Fatal(err)
		}
	}
	out := gdpSchema().Rename("OUT")
	rows := 0
	double := func(i int, tu Tuple) (float64, bool, error) {
		if i != rows || tu.Measure != float64(i+1) {
			t.Errorf("call %d is for row %d, %v", rows, i, tu)
		}
		rows++
		return 2 * tu.Measure, tu.Measure != 3, nil
	}

	c, err := src.Derive(out, double)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 || !OnlyColumns(c) || c.SharesKeySet(src) || c.Schema().Name != "OUT" {
		t.Fatalf("%d tuples, frozen %v, on the source's key set %v: want the 3 tuples f kept on a key set of their own",
			c.Len(), c.Frozen(), c.SharesKeySet(src))
	}
	shared := make(map[*Value]bool)
	_ = src.ForEach(func(tu Tuple) error { shared[&tu.Dims[0]] = true; return nil })
	for i, tu := range c.Tuples() {
		q := []int{1, 2, 4}[i]
		if !shared[&tu.Dims[0]] || tu.Measure != float64(2*q) || !tu.Dims[0].Equal(Per(NewQuarterly(2001, q))) {
			t.Errorf("tuple %d = %v: want 2001-Q%d -> %d on the source tuple's Dims", i, tu, q, 2*q)
		}
		if m, ok := c.Get(tu.Dims); !ok || m != tu.Measure {
			t.Errorf("Get(%v) = %v, %v", tu.Dims, m, ok)
		}
	}
	if _, ok := c.Get([]Value{Per(NewQuarterly(2001, 3))}); ok {
		t.Error("the tuple f dropped is there")
	}

	all, err := src.Derive(out, func(_ int, tu Tuple) (float64, bool, error) { return -tu.Measure, true, nil })
	if err != nil || !all.SharesKeySet(src) || all.Len() != 4 {
		t.Fatalf("keeping every tuple: %v, on the source's key set: %v", err, all.SharesKeySet(src))
	}
	none, err := src.Derive(out, func(int, Tuple) (float64, bool, error) { return 0, false, nil })
	if err != nil || none.Len() != 0 || none.SharesKeySet(src) {
		t.Fatalf("keeping nothing: %v, %d tuples", err, none.Len())
	}

	boom, calls := errors.New("boom"), 0
	if c, err := src.Derive(out, func(i int, _ Tuple) (float64, bool, error) {
		calls++
		if i == 1 {
			return 0, true, boom
		}
		return 0, true, nil
	}); err != boom || c != nil || calls != 2 {
		t.Errorf("f's error: got %v, %v after %d calls", c, err, calls)
	}
	if _, err := src.Derive(rgdpSchema(), double); err == nil {
		t.Error("Derive across arities must fail")
	}
	if src.Frozen() || src.Len() != 4 {
		t.Error("Derive froze or changed its source")
	}
}

// A selective Derive must not leave the output holding columns sized for
// its source: a store keeps every version it is given.
func TestCubeDeriveSizesToWhatItKeeps(t *testing.T) {
	const n = 50000
	src := NewCube(gdpSchema())
	for i := 0; i < n; i++ {
		if err := src.Put([]Value{Per(NewQuarterly(1000+i/4, 1+i%4))}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	src.View() // the source's order is the source's
	grown, kept := liveBytes(func() any {
		c, err := src.Derive(gdpSchema(), func(_ int, tu Tuple) (float64, bool, error) { return tu.Measure, tu.Measure < 10, nil })
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
	if c := kept.(*Cube); c.Len() != 10 {
		t.Fatalf("Len = %d, want 10", c.Len())
	}
	// Columns made for 50 000 tuples are over 2 MB.
	if grown > 256<<10 {
		t.Errorf("a cube of 10 tuples taken from %d holds %d KB", n, grown>>10)
	}
	runtime.KeepAlive(src)
	runtime.KeepAlive(kept)
}

// FuzzRevise: a version, and an edit script run on its Clone — or on a new
// cube (form) — and on the row map kept here as the oracle: Replace (to
// another measure, to the one the tuple has, to NaN), Put (an insert, a
// restatement, a violation of the egd), Delete, a deleted tuple put back, and
// reads in order between edits. The cube answers as the oracle does: Put's
// error to the letter, Len, Get and Ordered bit for bit. Revise's delta is the
// oracle's and DiffCubes', list for list; its version is frozen, the oracle's
// bit for bit, and on the base's key set exactly when the dimension tuples did
// not move. Revise leaves a cube as it is (nil) only where it is not over the
// base and its View stands on the base's key set already; so, frozen, the put.
// Freeze gives the oracle's tuples.
func FuzzRevise(f *testing.F) {
	f.Add(uint8(10), uint8(0), []byte{})
	f.Add(uint8(10), uint8(0), []byte{0, 3, 7, 0, 4, 9})                        // changes
	f.Add(uint8(10), uint8(0), []byte{1, 40, 1})                                // an insert
	f.Add(uint8(10), uint8(0), []byte{2, 9, 0})                                 // a delete
	f.Add(uint8(10), uint8(0), []byte{2, 9, 0, 1, 77, 5})                       // a swap at the last key
	f.Add(uint8(10), uint8(0), []byte{2, 2, 0, 1, 2, 8})                        // a delete put back with another measure
	f.Add(uint8(0), uint8(0), []byte{1, 0, 0, 2, 0, 0})                         // from empty and back
	f.Add(uint8(200), uint8(0), []byte{0, 199, 255, 3, 0, 0, 0})                // a NaN measure
	f.Add(uint8(10), uint8(0), []byte{0, 4, 4, 1, 5, 5, 1, 6, 6})               // restated to the measure it has
	f.Add(uint8(10), uint8(0), []byte{0, 3, 7, 1, 3, 8})                        // a Put that violates the egd
	f.Add(uint8(10), uint8(1), []byte{1, 4, 4, 1, 40, 2, 2, 40, 0, 1, 4, 3})    // over a new cube
	f.Add(uint8(10), uint8(0), []byte{0, 3, 7, 4, 0, 0, 0, 5, 8})               // an edit over a fold
	f.Add(uint8(10), uint8(0), []byte{2, 3, 0, 4, 0, 0, 1, 3, 3, 0, 50, 1})     // deleted, read, put back, grown
	f.Add(uint8(10), uint8(1), []byte{1, 3, 7, 4, 0, 0, 2, 3, 0, 4, 0, 0})      // a new cube read between edits
	f.Add(uint8(200), uint8(0), []byte{3, 0, 0, 4, 0, 0, 3, 0, 0, 0, 199, 199}) // NaN restated to NaN
	f.Fuzz(func(t *testing.T, n, form uint8, script []byte) {
		sch := NewSchema("C", []Dim{{Name: "x", Type: TInt}, {Name: "s", Type: TString}}, "m")
		dims := func(i byte) []Value { return []Value{Int(int64(i) / 3), Str(string(rune('a' + i%3)))} }
		prev := NewCube(sch)
		for i := 0; i < int(n); i++ {
			_ = prev.Replace(dims(byte(i)), float64(i))
		}
		prev.Freeze()
		before := rowsOf(prev)
		c, oracle := prev.Clone(), maps.Clone(before)
		if form%2 == 1 {
			c, oracle = NewCube(sch), rowMap{}
		}
		runScript(t, c, oracle, dims, script)
		over := c.base == prev.View()
		sameKeys := len(oracle) == len(before)
		for k := range oracle {
			if _, ok := before[k]; !ok {
				sameKeys = false
			}
		}
		want := oracleDelta(before, oracle)

		d := prev.Revise(c)
		if d == nil {
			if over || !c.SharesKeySet(prev) {
				t.Fatalf("Revise gave up on a cube over its base (%v) or off the base's key set", over)
			}
		} else {
			if d.Base != prev || !OnlyColumns(d.Current) || d.Current.SharesKeySet(prev) != sameKeys {
				t.Fatalf("revised version: frozen %v, on the base's key set %v; same dimension tuples %v",
					d.Current.Frozen(), d.Current.SharesKeySet(prev), sameKeys)
			}
			sameTuplesBits(t, d.Current.Tuples(), oracle.sorted())
			sameDeltaBits(t, d, want)
		}
		sameDeltaBits(t, DiffCubes("C", prev, c), want)
		sameAsOracle(t, c, oracle)

		put := c.Clone().Freeze()
		fd := prev.Revise(put)
		if (fd == nil) != put.SharesKeySet(prev) {
			t.Fatalf("Revise of a frozen put = %+v; on the base's key set already: %v", fd, put.SharesKeySet(prev))
		}
		if fd != nil {
			if fd.Base != prev || fd.Current.SharesKeySet(prev) != sameKeys || (fd.Current == put) == sameKeys {
				t.Fatalf("Revise of a frozen put = %+v; same dimension tuples: %v", fd, sameKeys)
			}
			sameTuplesBits(t, fd.Current.Tuples(), oracle.sorted())
			sameDeltaBits(t, fd, want)
		}
		sameDeltaBits(t, DiffCubes("C", prev, put), want)

		c.Freeze()
		if !OnlyColumns(c) {
			t.Fatal("Freeze left edits behind")
		}
		sameAsOracle(t, c, oracle)
	})
}

// sameDeltaBits is sameDelta with measures compared bit for bit, so that a
// NaN equals itself.
func sameDeltaBits(t *testing.T, got, want *CubeDelta) {
	t.Helper()
	sameTuplesBits(t, got.Added, want.Added)
	sameTuplesBits(t, got.Changed, want.Changed)
	sameTuplesBits(t, got.Deleted, want.Deleted)
}

func sameTuplesBits(t *testing.T, got, want []Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("tuple lists differ in length: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if compareDims(got[i].Dims, want[i].Dims) != 0 || math.Float64bits(got[i].Measure) != math.Float64bits(want[i].Measure) {
			t.Fatalf("tuples differ at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// FuzzApply: a base cube — new, frozen, on another's key set, or a version's
// Clone — with an edit script run on it where it is mutable (see runScript),
// and a delta that fits it or not. Apply fails exactly when a tuple does not
// fit, is named twice or is listed out of cube order, and names it; otherwise
// its version is, bit for bit, what editing the row map kept here as the
// oracle gives, on the base's key set exactly when the delta only restates
// measures, and on the base's own Dims slices wherever a tuple survives; the
// base is left as it was, and diffing the two gives the delta back.
func FuzzApply(f *testing.F) {
	f.Add(uint8(10), uint8(0), []byte{}, []byte{})
	f.Add(uint8(10), uint8(1), []byte{}, []byte{1, 3, 7, 1, 4, 9})            // changes, frozen
	f.Add(uint8(10), uint8(2), []byte{}, []byte{1, 3, 7, 1, 3, 8})            // one tuple restated twice
	f.Add(uint8(10), uint8(2), []byte{}, []byte{0, 40, 1, 2, 9, 0})           // an insert and a delete
	f.Add(uint8(10), uint8(0), []byte{}, []byte{0, 3, 1})                     // adds a tuple the base has
	f.Add(uint8(10), uint8(1), []byte{}, []byte{1, 40, 1})                    // changes one it lacks
	f.Add(uint8(10), uint8(2), []byte{}, []byte{1, 2, 5, 2, 40, 0})           // deletes one it lacks
	f.Add(uint8(0), uint8(1), []byte{}, []byte{0, 0, 0})                      // from empty
	f.Add(uint8(200), uint8(2), []byte{}, []byte{1, 199, 255, 3, 0, 0})       // a NaN measure
	f.Add(uint8(10), uint8(1), []byte{}, []byte{1, 2, 5, 2, 2, 0, 0, 77, 1})  // changed and deleted at once
	f.Add(uint8(10), uint8(1), []byte{}, []byte{1, 4, 5, 1, 3, 6})            // changes out of order
	f.Add(uint8(10), uint8(2), []byte{}, []byte{0, 50, 5, 0, 40, 6, 2, 1, 0}) // adds out of order, beside a delete
	f.Add(uint8(10), uint8(0), []byte{}, []byte{0, 40, 5, 0, 40, 6})          // one tuple added twice
	f.Add(uint8(10), uint8(1), []byte{}, []byte{0, 40, 5, 0, 41, 6, 1, 0, 9, 1, 9, 9, 2, 4, 0, 2, 5, 0})
	f.Add(uint8(10), uint8(3), []byte{0, 3, 7, 2, 4, 0}, []byte{1, 3, 1, 1, 5, 2})            // a Clone, edited, then changed
	f.Add(uint8(10), uint8(3), []byte{2, 4, 0, 0, 40, 1, 4, 0, 0, 1, 4, 4}, []byte{2, 40, 0}) // deleted, grown, read, put back
	f.Add(uint8(10), uint8(0), []byte{1, 3, 9, 2, 2, 0, 0, 50, 5}, []byte{0, 2, 1, 1, 50, 6}) // a new cube, edited
	f.Fuzz(func(t *testing.T, n, form uint8, edits, script []byte) {
		sch := NewSchema("C", []Dim{{Name: "x", Type: TInt}, {Name: "s", Type: TString}}, "m")
		dims := func(i byte) []Value { return []Value{Int(int64(i) / 3), Str(string(rune('a' + i%3)))} }
		base, before := NewCube(sch), rowMap{}
		for i := 0; i < int(n); i++ {
			_ = base.Replace(dims(byte(i)), float64(i))
			before.replace(dims(byte(i)), float64(i))
		}
		switch form % 4 {
		case 0:
			runScript(t, base, before, dims, edits)
		case 1:
			base.Freeze()
		case 2:
			base = asColumns(t, base)
		default:
			base = base.Freeze().Clone()
			runScript(t, base, before, dims, edits)
		}

		// A list fits if every tuple does and it names them in cube order,
		// once; a tuple both changed and deleted is named twice.
		var added, changed, deleted []Tuple
		want, fits := maps.Clone(before), true
		listed := func(list []Tuple, tu Tuple) []Tuple {
			if k := len(list); k > 0 && compareDims(list[k-1].Dims, tu.Dims) >= 0 {
				fits = false
			}
			return append(list, tu)
		}
		for ; len(script) >= 3; script = script[3:] {
			tu := Tuple{Dims: dims(script[1]), Measure: float64(script[2])}
			_, had := before[EncodeKey(tu.Dims)]
			switch script[0] % 4 {
			case 0:
				added, fits = listed(added, tu), fits && !had
			case 3:
				tu.Measure = math.NaN()
				fallthrough
			case 1:
				changed, fits = listed(changed, tu), fits && had
			default:
				deleted, fits = listed(deleted, tu), fits && had
			}
		}
		for _, c := range changed {
			for _, d := range deleted {
				fits = fits && compareDims(c.Dims, d.Dims) != 0
			}
		}
		for _, tu := range added {
			want.replace(tu.Dims, tu.Measure)
		}
		for _, tu := range changed {
			want.replace(tu.Dims, tu.Measure)
		}
		for _, tu := range deleted {
			delete(want, EncodeKey(tu.Dims))
		}

		got, err := base.Apply(added, changed, deleted)
		if (err == nil) != fits {
			t.Fatalf("Apply: %v on a delta that fits: %v", err, fits)
		}
		sameAsOracle(t, base, before)
		if err != nil {
			if msg := err.Error(); got != nil || !errors.Is(err, ErrMisfit) ||
				!strings.Contains(msg, "which the base") && !strings.Contains(msg, " twice") && !strings.Contains(msg, " out of order") {
				t.Fatalf("Apply returned %v with an error that names no tuple: %v", got, err)
			}
			return
		}
		if !OnlyColumns(got) || got.Len() != len(want) {
			t.Fatalf("Apply's version is frozen: %v, has %d tuples, want %d", got.Frozen(), got.Len(), len(want))
		}
		sameTuplesBits(t, got.Tuples(), want.sorted())
		if restates := len(added)+len(deleted) == 0; got.SharesKeySet(base) != restates {
			t.Fatalf("key set shared: %v, delta only restates measures: %v", got.SharesKeySet(base), restates)
		}
		mine := make(map[*Value]bool)
		_ = base.ForEach(func(tu Tuple) error { mine[&tu.Dims[0]] = true; return nil })
		_ = got.ForEach(func(tu Tuple) error {
			if _, had := before[EncodeKey(tu.Dims)]; had && !mine[&tu.Dims[0]] {
				t.Fatalf("%v survives on Dims that are not the base's", tu.Dims)
			}
			return nil
		})
		sameDeltaBits(t, DiffCubes("C", base, got), oracleDelta(before, want))
	})
}

// FuzzDerive: a source mutable or frozen, read in order or not, and a script
// that says tuple by tuple whether f keeps it, with which measure, or fails
// there. Derive's version is, bit for bit and in cube order, what a loop of
// Put over the source's tuples gives (the oracle kept here), frozen, on the
// source's Dims, and on the source's key set exactly when every tuple was
// kept; f's error is returned with nothing built; the source is left as it
// was. DeriveColumn, handed the measures and the marks of the dropped tuples,
// gives the same version, on the very column where nothing was dropped.
func FuzzDerive(f *testing.F) {
	f.Add(uint8(10), uint8(0), []byte{})
	f.Add(uint8(10), uint8(1), []byte{5, 6, 7})                  // every tuple kept, frozen
	f.Add(uint8(10), uint8(2), []byte{5, 0, 7})                  // a third dropped, read in order
	f.Add(uint8(10), uint8(3), []byte{0})                        // all dropped, on another's key set
	f.Add(uint8(10), uint8(3), []byte{1, 1, 1, 1, 1, 1, 1, 255}) // fails at the eighth tuple
	f.Add(uint8(0), uint8(1), []byte{3})                         // empty
	f.Add(uint8(200), uint8(0), []byte{9, 8, 7, 6, 5, 4, 0})     // unfrozen, not read in order
	f.Add(uint8(30), uint8(2), []byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0})
	f.Fuzz(func(t *testing.T, n, form uint8, script []byte) {
		sch := NewSchema("C", []Dim{{Name: "x", Type: TInt}, {Name: "s", Type: TString}}, "m")
		src, before := NewCube(sch), rowMap{}
		for i := 0; i < int(n); i++ {
			_ = src.Replace([]Value{Int(int64(i) / 3), Str(string(rune('a' + i%3)))}, float64(i))
			before.replace([]Value{Int(int64(i) / 3), Str(string(rune('a' + i%3)))}, float64(i))
		}
		switch form % 4 {
		case 1:
			src.Freeze()
		case 2:
			src.View()
		case 3:
			src = asColumns(t, src)
		}
		frozen := src.Frozen()

		// Tuple i goes by script byte i (cyclically): 255 fails, a multiple
		// of four drops, anything else keeps with a measure of its own.
		boom := errors.New("boom")
		point := func(i int, tu Tuple) (float64, bool, error) {
			if len(script) == 0 {
				return 2 * tu.Measure, true, nil
			}
			switch b := script[i%len(script)]; {
			case b == 255:
				return 0, true, boom
			case b%4 == 0:
				return float64(b), false, nil
			case b == 254:
				return math.Inf(-1), true, nil
			default:
				return tu.Measure - float64(b), true, nil
			}
		}
		outSchema := sch.Rename("D")
		want, dropped, fails := NewCube(outSchema), 0, false
		order := before.sorted()
		for i, tu := range order {
			m, keep, err := point(i, tu)
			if err != nil {
				fails = true
				break
			}
			if !keep {
				dropped++
			} else if err := want.Put(tu.Dims, m); err != nil {
				t.Fatal(err)
			}
		}

		calls := 0
		got, err := src.Derive(outSchema, func(i int, tu Tuple) (float64, bool, error) {
			if i != calls || compareDims(tu.Dims, order[i].Dims) != 0 || tu.Measure != order[i].Measure {
				t.Fatalf("call %d is for row %d, %v: want %v", calls, i, tu, order[i])
			}
			calls++
			return point(i, tu)
		})
		sameAsOracle(t, src, before)
		if src.Frozen() != frozen {
			t.Fatal("Derive froze its source")
		}
		if fails {
			if err != boom || got != nil {
				t.Fatalf("Derive returned %v, %v where f fails", got, err)
			}
			return
		}
		if err != nil || !OnlyColumns(got) || got.Schema().Name != "D" {
			t.Fatalf("Derive: %v; frozen, columns only: %v", err, got != nil && OnlyColumns(got))
		}
		if calls != len(order) || !got.Equal(want, 0) || !want.Equal(got, 0) {
			t.Fatalf("derived version differs after %d calls: %v", calls, got.Diff(want, 0, 3))
		}
		sameTuplesBits(t, got.Tuples(), byCompare(want))
		if got.SharesKeySet(src) != (dropped == 0) {
			t.Fatalf("key set shared: %v with %d tuples dropped", got.SharesKeySet(src), dropped)
		}
		mine := make(map[*Value]bool)
		_ = src.ForEach(func(tu Tuple) error { mine[&tu.Dims[0]] = true; return nil })
		_ = got.ForEach(func(tu Tuple) error {
			if !mine[&tu.Dims[0]] {
				t.Fatalf("%v does not share the source tuple's Dims", tu.Dims)
			}
			return nil
		})
		if _, err := src.Derive(gdpSchema(), point); err == nil {
			t.Fatal("Derive across arities must fail")
		}

		// The column form, handed the same measures and marks: the same
		// version, on the column itself where nothing is dropped.
		measures, drop := make([]float64, len(order)), make([]bool, len(order))
		for i, tu := range order {
			m, keep, _ := point(i, tu)
			measures[i], drop[i] = m, !keep
		}
		if dropped == 0 {
			drop = nil
		}
		col, err := src.DeriveColumn(outSchema, measures, drop)
		if err != nil || !OnlyColumns(col) || col.SharesKeySet(src) != (dropped == 0) {
			t.Fatalf("DeriveColumn: %v; on the source's key set %v with %d dropped", err, col != nil && col.SharesKeySet(src), dropped)
		}
		sameTuplesBits(t, col.Tuples(), got.Tuples())
		if ms := col.View().Measures(); dropped == 0 && len(ms) > 0 && &ms[0] != &measures[0] {
			t.Fatal("DeriveColumn copied the column it was handed")
		}
		if _, err := src.DeriveColumn(outSchema, measures[:len(measures)/2], nil); err == nil && len(measures) > 0 {
			t.Fatal("DeriveColumn of a column shorter than its source must fail")
		}
	})
}

// TestApplyConcurrentlyOnOneBase: goroutines apply different deltas to one
// frozen base nobody has probed yet, while others probe and scan it: the
// index is built once, every successor stands on the base's key set, and each
// holds its own delta (run under -race).
func TestApplyConcurrentlyOnOneBase(t *testing.T) {
	const n, appliers = 4000, 6
	base := pdrCube(n).Freeze()
	want := byCompare(base)
	successors := make([]*Cube, appliers)
	var wg sync.WaitGroup
	for g := 0; g < appliers+4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch {
			case g < appliers:
				var changed []Tuple
				for i := g; i < n; i += 101 {
					changed = append(changed, Tuple{Dims: want[i].Dims, Measure: float64(-g - 1)})
				}
				next, err := base.Apply(nil, changed, nil)
				if err != nil {
					t.Errorf("Apply: %v", err)
					return
				}
				successors[g] = next
			case g%2 == 0:
				for i := g; i < n; i += 7 {
					if m, ok := base.Get(want[i].Dims); !ok || m != want[i].Measure {
						t.Errorf("Get(%v) = %v, %v", want[i].Dims, m, ok)
						return
					}
				}
			default:
				i := 0
				_ = base.Ordered(func(tu Tuple) error {
					if compareDims(tu.Dims, want[i].Dims) != 0 || tu.Measure != want[i].Measure {
						t.Errorf("Ordered differs from the order at %d", i)
					}
					i++
					return nil
				})
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g, next := range successors {
		if !next.SharesKeySet(base) || !next.SharesKeySet(successors[0]) {
			t.Fatalf("successor %d stands on a key set of its own", g)
		}
		d := DiffCubes("PDR", base, next)
		if len(d.Changed) != (n-g+100)/101 || len(d.Added)+len(d.Deleted) != 0 || d.Changed[0].Measure != float64(-g-1) {
			t.Fatalf("successor %d differs from the base by +%d ~%d -%d", g, len(d.Added), len(d.Changed), len(d.Deleted))
		}
	}
}

// TestMemEstimateOfChargesAKeySetOnce: a panel snapshot — S and the four
// cubes a full chase run derives from it, all on one key set — is charged one
// key set and five measure columns, not five key sets; and that charge still
// covers the heap the five retain, as the charge for a version a Builder made
// covers, within a factor of 1.5, the heap that one retains.
func TestMemEstimateOfChargesAKeySetOnce(t *testing.T) {
	const n = 20000
	grown, kept := liveBytes(func() any {
		s := asColumns(t, pdrCube(n))
		cubes := map[string]*Cube{"S": s}
		for _, name := range []string{"A", "B", "C", "D"} {
			c, err := s.Derive(s.Schema().Rename(name), func(_ int, tu Tuple) (float64, bool, error) { return 2 * tu.Measure, true, nil })
			if err != nil {
				t.Fatal(err)
			}
			cubes[name] = c
		}
		s.Get(s.View().Tuple(0).Dims) // with the index built
		return cubes
	})
	cubes := kept.(map[string]*Cube)
	keys := cubes["S"].View().keys.memEstimate()
	got, want := MemEstimateOf(cubes), keys+5*(tupleOverheadBytes+8*n)
	if got != want {
		t.Errorf("five cubes on one key set are charged %d bytes, want %d: one key set (%d), five columns and shells", got, want, keys)
	}
	if each := 5 * cubes["S"].MemEstimate(); each != want+4*keys {
		t.Errorf("one by one the five are charged %d bytes, want %d: the key set five times", each, want+4*keys)
	}
	if got < grown {
		t.Errorf("charged %d bytes for cubes that retain %d", got, grown)
	}

	// A partition that arrives after the key set was walked is charged from
	// then on, with the key set: once among the five, 4 bytes a row and a
	// group, and the charge still covers what the five retain.
	var p *Partition
	grouped, _ := liveBytes(func() any { p, _ = partitionOf(cubes["A"], "q,r", byQuarterAndRegion); return nil })
	part := 4 * int64(n+p.Groups())
	if got := MemEstimateOf(cubes); got != want+part || got < grown+grouped {
		t.Errorf("with a partition the five are charged %d bytes, want %d, for %d retained", got, want+part, grown+grouped)
	}
	if one := cubes["D"].MemEstimate(); one != keys+part+tupleOverheadBytes+8*n {
		t.Errorf("alone, a version on the partitioned key set is charged %d bytes, want %d", one, keys+part+tupleOverheadBytes+8*n)
	}
	want += part

	// A mutable cube among them, and a cube on another key set, are charged
	// as they are alone.
	rows, other := pdrCube(100), asColumns(t, pdrCube(50))
	cubes["R"], cubes["O"], cubes["nil"] = rows, other, nil
	if got := MemEstimateOf(cubes); got != want+rows.MemEstimate()+other.MemEstimate() {
		t.Errorf("with a mutable cube and a second key set: %d bytes, want %d", got, want+rows.MemEstimate()+other.MemEstimate())
	}
	if MemEstimateOf(nil) != 0 {
		t.Error("no cubes are charged something")
	}

	// What a Builder makes — from tuples in cube order, and shuffled — is
	// charged what it retains and no more than half again as much, before
	// its index is built and after (the index is charged either way).
	const big = 200000
	inOrder := pdrRows(big)
	shuffled := slices.Clone(inOrder)
	rand.New(rand.NewSource(3)).Shuffle(big, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for name, ts := range map[string][]Tuple{"in order": inOrder, "shuffled": shuffled} {
		grown, kept := liveBytes(func() any { return buildFrom(ts, true) })
		c := kept.(*Cube)
		est := MemEstimateOf(map[string]*Cube{"C": c})
		if est < grown || 2*est > 3*grown {
			t.Errorf("%s: estimate %d B for a version that retains %d (%.2fx)", name, est, grown, float64(est)/float64(grown))
		}
		indexed, _ := liveBytes(func() any { c.Get(ts[0].Dims); return nil })
		if grown += indexed; est < grown || 2*est > 3*grown {
			t.Errorf("%s: estimate %d B for a version that retains %d with its index (%.2fx)", name, est, grown, float64(est)/float64(grown))
		}
		runtime.KeepAlive(c)
	}
	runtime.KeepAlive(inOrder)
}

// liveBytes returns the heap bytes that stay reachable from what build
// returns, beyond what was live before.
func liveBytes(build func() any) (int64, any) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), kept
}
