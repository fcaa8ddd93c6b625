package model

import (
	"math"
	"slices"
	"sync"
)

// NoGroup is the ordinal of a row that belongs to no group: its group key is
// undefined, or it fails a selection the grouping carries.
const NoGroup uint32 = math.MaxUint32

// Partition is a grouping of a key set's rows by a function of their dimension
// tuples: the ordinal of every row's group, ordinals handed out in the order the
// groups are first seen in cube order, and every group's first row. It is a
// function of the key set alone, so it serves every version on it, is shared
// like it, and is never written to once the key set holds it. A key set holds
// fewer than 2³² tuples for as long as its ordinals are 32 bits.
type Partition struct {
	rows  []uint32 // row → ordinal, or NoGroup
	first []uint32 // ordinal → the group's first row
}

// Groups returns the number of groups.
func (p *Partition) Groups() int { return len(p.first) }

// First returns group g's first row in cube order.
func (p *Partition) First(g int) int { return int(p.first[g]) }

// Ordinals returns the group ordinals of rows lo to hi, the Partition's own:
// to be read, not written.
func (p *Partition) Ordinals(lo, hi int) []uint32 { return p.rows[lo:hi:hi] }

// Assigner numbers groups in the order it first sees them: a group key in, the
// group's ordinal out. It is the one place a grouping engine's encoded key
// meets a hash table. One made by View.NewPartition also records, row by row,
// what will be the key set's Partition.
type Assigner struct {
	ids map[string]uint32
	key []byte

	keys *keySet // recording for this key set, under sig
	sig  string
	part *Partition
}

// NewAssigner returns an Assigner that records nothing.
func NewAssigner() *Assigner { return &Assigner{ids: make(map[string]uint32)} }

// Assign returns the ordinal of the group with the key. It is the Assigner's
// first sight of the group exactly when the ordinal is the number of groups it
// had seen.
func (a *Assigner) Assign(key []Value) uint32 {
	a.key = AppendKey(a.key[:0], key)
	g, ok := a.ids[string(a.key)] // no string is made for a group seen before
	if !ok {
		g = uint32(len(a.ids))
		a.ids[string(a.key)] = g
	}
	return g
}

// AssignRow is Assign for the key of a row, which an Assigner that records
// notes against the row. Rows come in cube order; one that is never assigned
// has no group.
func (a *Assigner) AssignRow(row int, key []Value) uint32 {
	g := a.Assign(key)
	if a.part != nil {
		if a.part.rows[row] = g; int(g) == len(a.part.first) {
			a.part.first = append(a.part.first, uint32(row))
		}
	}
	return g
}

// maxPartitions bounds the groupings a key set remembers. A mapping groups a
// cube in one or two ways, each known to SQL and to the chase under its own
// signature; a fifth pushes the oldest out.
const maxPartitions = 4

// heldPartition is a Partition under the signature of one grouping. Signatures
// that group the rows alike hold one Partition between them.
type heldPartition struct {
	sig  string
	part *Partition
}

// partitions is what a key set remembers of how its rows have been grouped.
type partitions struct {
	mu   sync.Mutex
	held []heldPartition // oldest first, at most maxPartitions
}

// Partition returns the grouping of the version's key set that was recorded
// under sig, or nil. sig must determine the grouping as a function of the
// dimension tuples — written over their positions, not over column names, since
// versions under several schemas stand on one key set — and tell apart the
// engines whose functions of one name differ.
func (p *View) Partition(sig string) *Partition {
	ps := &p.keys.parts
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, h := range ps.held {
		if h.sig == sig {
			return h.part
		}
	}
	return nil
}

// NewPartition returns an Assigner that records the grouping sig names: every
// row of the version goes through AssignRow, or has no group, and Partition
// hands the result to the key set.
func (p *View) NewPartition(sig string) *Assigner {
	a := NewAssigner()
	a.keys, a.sig = p.keys, sig
	a.part = &Partition{rows: make([]uint32, len(p.keys.tuples))}
	for i := range a.part.rows {
		a.part.rows[i] = NoGroup
	}
	return a
}

// Partition ends a recording: the key set holds the grouping from now on, and
// what it holds is returned. That is the recording, unless another goroutine
// recorded the same signature first — the first insert stands — or a grouping
// under another signature assigned every row alike: first-seen ordinals are
// canonical, so equal groupings are equal arrays, and the key set keeps one.
// The recording was made outside the lock; only this is under it.
func (a *Assigner) Partition() *Partition {
	a.part.first = slices.Clone(a.part.first) // at its size: the key set keeps it
	ps := &a.keys.parts
	ps.mu.Lock()
	defer ps.mu.Unlock()
	part := a.part
	for _, h := range ps.held {
		if h.sig == a.sig {
			return h.part
		}
		if slices.Equal(h.part.first, part.first) && slices.Equal(h.part.rows, part.rows) {
			part = h.part
		}
	}
	if len(ps.held) == maxPartitions {
		ps.held = slices.Delete(ps.held, 0, 1)
	}
	ps.held = append(ps.held, heldPartition{a.sig, part})
	return part
}

// memEstimate is what the partitions held now retain: 4 bytes a row and 4 a
// group, each array once.
func (ps *partitions) memEstimate() int64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var n int64
	for i, h := range ps.held {
		if !slices.ContainsFunc(ps.held[:i], func(o heldPartition) bool { return o.part == h.part }) {
			n += 4 * int64(len(h.part.rows)+len(h.part.first))
		}
	}
	return n
}
