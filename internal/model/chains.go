package model

import "hash/maphash"

var chainSeed = maphash.MakeSeed()

// HashKey returns the hash Chains addresses a key by, of the key encoded as
// AppendKey encodes it.
func HashKey(key []byte) uint64 { return maphash.Bytes(chainSeed, key) }

// Chains indexes a join's build rows by their key without holding a key: a
// table of slots addressed by the key's hash, each the first row of one key,
// and each row chained to the next row with its key in the order they were
// added. Whether a row has the key sought is asked of the caller, who can read
// the row's key where it lies. It takes 4 bytes a slot, at most two slots a
// row, and 12 bytes a row; a map of key strings held a string a key beside
// its table.
type Chains struct {
	slots []int32  // a key's first row + 1, or 0: an empty slot
	tag   []uint32 // by row: the high bits of its key's hash
	next  []int32  // by row: the next row with its key, or -1
	last  []int32  // by a key's first row: the key's last row
}

// NewChains returns Chains with room for rows 0 to n-1.
func NewChains(n int) *Chains {
	size := 8
	for size < n+n/2 {
		size <<= 1
	}
	return &Chains{slots: make([]int32, size), tag: make([]uint32, n), next: make([]int32, n), last: make([]int32, n)}
}

// find returns the slot of the key that hashes to h, whose first row passes
// same, or the empty slot where that key would go.
func (c *Chains) find(h uint64, same func(row int32) bool) int {
	mask := len(c.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		r := c.slots[i] - 1
		if r < 0 || c.tag[r] == uint32(h>>32) && same(r) {
			return i
		}
	}
}

// Add chains row, whose key hashes to h, behind the rows added before it with
// the same key: same(q) reports whether row q has row's key. Each row is added
// once at most, rows in increasing order.
func (c *Chains) Add(row int32, h uint64, same func(q int32) bool) {
	i := c.find(h, same)
	c.tag[row], c.next[row] = uint32(h>>32), -1
	if f := c.slots[i] - 1; f >= 0 {
		c.next[c.last[f]], c.last[f] = row, row
		return
	}
	c.slots[i], c.last[row] = row+1, row
}

// Head returns the first row added whose key hashes to h and passes same, or
// -1 where there is none.
func (c *Chains) Head(h uint64, same func(q int32) bool) int32 {
	return c.slots[c.find(h, same)] - 1
}

// Next returns the row added after row with its key, or -1.
func (c *Chains) Next(row int32) int32 { return c.next[row] }
