package model

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

// PureInsert reports whether the delta only adds tuples — the condition
// under which a monotone mapping can be maintained by INSERT-delta SQL.
func (d *CubeDelta) PureInsert() bool {
	return len(d.Changed) == 0 && len(d.Deleted) == 0
}

// DiffCubes computes the exact tuple-level delta from base to cur.
// Measures are compared with ==, not a tolerance: the incremental
// evaluator's contract is byte-identical output, so even a last-ulp
// drift must propagate. Either cube may be nil, which is treated as
// empty (the returned delta substitutes a fresh empty cube so Base and
// Current are always non-nil).
func DiffCubes(name string, base, cur *Cube) *CubeDelta {
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
	// Probe map against map directly: the diff is usually a small
	// fraction of the cubes, so sorting only the changed tuples
	// beats the full Tuples() sort of both versions by orders of
	// magnitude on large cubes.
	var added, changed, deleted tupleList
	for k, t := range d.Current.rows {
		old, ok := d.Base.rows[k]
		switch {
		case !ok:
			added.add(k, t)
		case old.Measure != t.Measure:
			changed.add(k, t)
		}
	}
	for k, t := range d.Base.rows {
		if _, ok := d.Current.rows[k]; !ok {
			deleted.add(k, t)
		}
	}
	d.Added, d.Changed, d.Deleted = added.sorted(), changed.sorted(), deleted.sorted()
	return d
}
