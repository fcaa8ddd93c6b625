package model

import "math"

// CubeDelta describes how a cube changed between two versions: the
// tuples added, the tuples whose measure changed, and the tuples
// deleted. Both endpoint cubes are carried by reference (zero-copy on
// the unchanged side — for frozen cubes these are the shared store
// instances), so consumers can probe either version directly.
//
// Added and Changed carry the tuple as it appears in Current; Deleted
// carries the tuple as it appeared in Base. All three lists are sorted
// by dimension values so delta consumers enumerate work in the same
// deterministic order as a full Tuples() scan.
type CubeDelta struct {
	Name    string
	Base    *Cube // version at the older generation (may be empty, never nil)
	Current *Cube // version now
	Added   []Tuple
	Changed []Tuple
	Deleted []Tuple
}

// Empty reports whether the delta carries no tuple-level changes.
func (d *CubeDelta) Empty() bool {
	return len(d.Added) == 0 && len(d.Changed) == 0 && len(d.Deleted) == 0
}

// Size returns the number of changed tuples the delta carries.
func (d *CubeDelta) Size() int {
	return len(d.Added) + len(d.Changed) + len(d.Deleted)
}

// smallDeltaShare bounds the deltas worth keeping in place of the cube
// they lead to: a delta is small while it changes at most one tuple in
// this many. Past that, logging the delta saves little over logging the
// cube and replaying it costs more.
const smallDeltaShare = 4

// Small reports whether the delta is worth keeping in place of Current:
// it changes at most a quarter of its tuples.
func (d *CubeDelta) Small() bool { return d.Size() <= d.Current.Len()/smallDeltaShare }

// DiffCubes computes the exact tuple-level delta from base to cur.
// Measures are compared with ==, not a tolerance: the incremental
// evaluator's contract is byte-identical output, so even a last-ulp
// drift must propagate. Either cube may be nil, which is treated as
// empty (the returned delta substitutes a fresh empty cube so Base and
// Current are always non-nil).
func DiffCubes(name string, base, cur *Cube) *CubeDelta {
	return diffCubes(name, base, cur, math.MaxInt)
}

// DiffSmall is DiffCubes for callers that only want a Small delta: it
// returns nil, giving up as soon as that is known, when the cubes differ
// in more than a quarter of cur's tuples. A durable store diffs every
// version it is not handed a delta for, and a version that shares little
// with its predecessor must not cost two full scans to find that out.
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
		sch := d.Current.schema
		d.Base = NewCube(sch).Freeze()
	}
	nb, nc := d.Base.Len(), d.Current.Len()
	if nc-nb > limit || nb-nc > limit {
		return nil
	}
	// Two versions on one key set hold the same dimension tuples in the same
	// positions, whatever else either holds: the delta is where their measure
	// columns differ, already in cube order.
	if d.Base.SharesKeySet(d.Current) {
		var ok bool
		if d.Changed, ok = changedBetween(d.Base.cols.Load(), d.Current.cols.Load(), limit); !ok {
			return nil
		}
		return d
	}
	// Probe key by key: the diff is usually a small fraction of the cubes,
	// so sorting only the changed tuples beats an ordered scan of both
	// versions by orders of magnitude on large cubes.
	var added, changed, deleted tupleList
	d.Current.scan(func(k string, t Tuple) bool {
		old, ok := d.Base.lookup(k)
		switch {
		case !ok:
			added.add(k, t)
		case old != t.Measure:
			changed.add(k, t)
		}
		return len(added.ts)+len(changed.ts) <= limit
	})
	if len(added.ts)+len(changed.ts) > limit {
		return nil
	}
	// The sizes say how many of base's tuples cur dropped; a revision drops
	// none, and then base is not scanned at all.
	if missing := nb - (nc - len(added.ts)); missing > 0 {
		if len(added.ts)+len(changed.ts)+missing > limit {
			return nil
		}
		d.Base.scan(func(k string, t Tuple) bool {
			if _, ok := d.Current.lookup(k); !ok {
				deleted.add(k, t)
			}
			return len(deleted.ts) < missing
		})
	}
	d.Added, d.Changed, d.Deleted = added.sorted(), changed.sorted(), deleted.sorted()
	return d
}
