package model

import (
	"math"
	"strings"
)

// CubeDelta describes how a cube changed between two versions: the tuples
// added, the tuples whose measure changed, and the tuples deleted. Both
// endpoint cubes are carried by reference (for frozen cubes, the shared store
// instances), so consumers can probe either version directly.
//
// Added and Changed carry the measure Current has (a changed tuple's Dims may
// be Base's: key-equal, hence Equal); Deleted carries the tuple as it was in
// Base. All three lists are in cube order, so delta consumers enumerate work
// in the same deterministic order as a full scan.
type CubeDelta struct {
	Name    string
	Base    *Cube // version at the older generation (may be empty, never nil)
	Current *Cube // version now
	Added   []Tuple
	Changed []Tuple
	Deleted []Tuple
}

// Empty reports whether the delta carries no tuple-level changes.
func (d *CubeDelta) Empty() bool { return d.Size() == 0 }

// Size returns the number of changed tuples the delta carries.
func (d *CubeDelta) Size() int { return len(d.Added) + len(d.Changed) + len(d.Deleted) }

// smallDeltaShare bounds the deltas worth keeping in place of the cube they
// lead to: a delta is small while it changes at most one tuple in this many.
// Past that, logging it saves little over the cube and replaying it costs more.
const smallDeltaShare = 4

// Small reports whether the delta is worth keeping in place of Current.
func (d *CubeDelta) Small() bool { return d.Size() <= d.Current.Len()/smallDeltaShare }

// DiffCubes computes the exact tuple-level delta from base to cur. Measures
// are compared bit for bit, not with == and not within a tolerance: the
// incremental evaluator's contract is byte-identical output, so even a
// last-ulp drift must propagate, and so must 0 restated as −0, which == holds
// equal but WriteCSV does not. Either cube may be nil, which is treated as
// empty (the delta substitutes an empty cube, so Base and Current are never
// nil).
func DiffCubes(name string, base, cur *Cube) *CubeDelta {
	return diffCubes(name, base, cur, math.MaxInt)
}

// DiffSmall is DiffCubes for callers that only want a Small delta: it returns
// nil, giving up as soon as that is known, when the cubes differ in more than
// a quarter of cur's tuples. A durable store diffs every version it is not
// handed a delta for, and one that shares little with its predecessor must not
// cost a full comparison to find that out.
func DiffSmall(name string, base, cur *Cube) *CubeDelta {
	return diffCubes(name, base, cur, cur.Len()/smallDeltaShare)
}

// diffCubes is DiffCubes giving up (nil) once the delta passes limit tuples.
func diffCubes(name string, base, cur *Cube, limit int) *CubeDelta {
	d := &CubeDelta{Name: name, Base: base, Current: cur}
	if cur == nil {
		sch := Schema{Name: name}
		if base != nil {
			sch = base.schema
		}
		d.Current = NewCube(sch).Freeze()
	}
	if base == nil {
		d.Base = NewCube(d.Current.schema).Freeze()
	}
	var ok bool
	if d.Added, d.Changed, d.Deleted, ok = diffViews(d.Base.View(), d.Current.View(), limit); !ok {
		return nil
	}
	return d
}

// align calls fn on every dimension tuple p or q holds, in cube order, with
// its row in each (-1 where it has none), until fn returns false: one merge of
// the two key sequences, or one walk where both stand on one key set.
func align(p, q *View, fn func(i, j int) bool) {
	pt, qt := p.keys.tuples, q.keys.tuples
	for i, j := 0, 0; i < len(pt) || j < len(qt); {
		var c int
		switch {
		case p.keys == q.keys:
		case j == len(qt):
			c = -1
		case i == len(pt):
			c = 1
		default:
			c = strings.Compare(pt[i].key, qt[j].key)
		}
		a, b := i, j
		if c > 0 {
			a = -1
		} else {
			i++
		}
		if c < 0 {
			b = -1
		} else {
			j++
		}
		if !fn(a, b) {
			return
		}
	}
}

// diffViews lists how q differs from p, each list in cube order, giving up
// (false) once they pass limit tuples between them. A changed tuple is on p's
// Dims, which a delta keeps alive in any case, under q's measure.
func diffViews(p, q *View, limit int) (added, changed, deleted []Tuple, ok bool) {
	if p.keys == q.keys {
		changed, ok = changedBetween(p, q, limit)
		return nil, changed, nil, ok
	}
	ok = true
	pc, qc := p.Cursor(), q.Cursor()
	align(p, q, func(i, j int) bool {
		switch {
		case j < 0:
			deleted = append(deleted, pc.Tuple(i))
		case i < 0:
			added = append(added, qc.Tuple(j))
		default:
			if m := qc.At(j); math.Float64bits(m) != math.Float64bits(pc.At(i)) {
				changed = append(changed, Tuple{Dims: p.Dims(i), Measure: m})
			}
		}
		ok = len(added)+len(changed)+len(deleted) <= limit
		return ok
	})
	if !ok {
		return nil, nil, nil, false
	}
	return added, changed, deleted, true
}
