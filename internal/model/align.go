package model

import (
	"slices"
	"sync"
	"weak"
)

// maxAlignments bounds the key sets a key set remembers its alignment with. A
// point-wise statement meets its driving relation's key set with one or two
// others; a fifth pushes the oldest out.
const maxAlignments = 4

// alignments is what a key set remembers of how its rows meet another key
// set's. The partner is held weakly: the rows are a function of the two key
// sets alone, and serve only while both live, so a key set that outlives its
// partner — an input shared by every run, aligned with each run's result —
// does not keep every partner it ever met alive.
type alignments struct {
	mu   sync.Mutex
	held []heldAlignment // oldest first, at most maxAlignments
}

// heldAlignment is, for each row of a key set, the row of partner that holds
// the same dimension tuple, or -1.
type heldAlignment struct {
	partner weak.Pointer[keySet]
	rows    []int32
}

// Align returns, for each row of p, the row of q that holds the same
// dimension tuple, or -1 where q holds none: a hash join's partner row, found
// without a key encoded or hashed. It is one merge of the two key sets' row
// keys, whose byte order is cube order, the first time p's key set meets q's;
// p's key set holds the result beside its partitions from then on, so it
// serves every version on either key set. It is the key set's own: to be read,
// not written.
func (p *View) Align(q *View) []int32 {
	as, partner := &p.keys.aligns, weak.Make(q.keys)
	if rows, ok := as.find(partner); ok {
		return rows
	}
	rows := make([]int32, p.Len())
	align(p, q, func(i, j int) bool {
		if i >= 0 {
			rows[i] = int32(j)
		}
		return true
	})
	return as.hold(partner, rows)
}

// find returns the rows held for partner, letting go of those whose partner
// is gone.
func (as *alignments) find(partner weak.Pointer[keySet]) ([]int32, bool) {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.held = slices.DeleteFunc(as.held, func(h heldAlignment) bool { return h.partner.Value() == nil })
	for _, h := range as.held {
		if h.partner == partner {
			return h.rows, true
		}
	}
	return nil, false
}

// hold keeps rows for partner and returns what is held: rows, unless another
// goroutine aligned the two first — the first insert stands. The rows were
// computed outside the lock; only this is under it.
func (as *alignments) hold(partner weak.Pointer[keySet], rows []int32) []int32 {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, h := range as.held {
		if h.partner == partner {
			return h.rows
		}
	}
	if len(as.held) == maxAlignments {
		as.held = slices.Delete(as.held, 0, 1)
	}
	as.held = append(as.held, heldAlignment{partner, rows})
	return rows
}

// memEstimate is what the alignments held now retain: 4 bytes a row each.
func (as *alignments) memEstimate() int64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	var n int64
	for _, h := range as.held {
		n += 4 * int64(len(h.rows))
	}
	return n
}
