package model

import (
	"bytes"
	"encoding/binary"
	"math"
)

// The deterministic order of a cube is the byte order of its tuples'
// row keys, which AppendKey builds so that plain byte
// comparison orders equal-width tuples dimension by dimension.

// radixMin is the bucket size below which a comparison sort on the key
// suffixes beats another counting pass.
const radixMin = 48

// keyRef locates one tuple's key in the arena, the keys back to back, and
// remembers which tuple it belongs to. O is uint32 whenever the arena fits,
// which keeps the sort's scratch at 12 bytes per tuple; uint64 is the same
// code for inputs beyond 4 GiB of keys.
type keyRef[O uint32 | uint64] struct{ off, end, idx O }

// sortByKeys puts gathered dimension tuples, and the column bs beside them —
// a slice of its own, so that a cube's measures can be one — into the
// deterministic cube order, in place. Tuples with one key end up next to each
// other, in no particular order.
//
// The keys are copied into an arena; references into it are radix-sorted and
// the resulting permutation is applied to both slices in place. Arena and
// references are garbage on return: nothing but the items outlives the sort.
func sortByKeys[B any](tuples []dimTuple, bs []B) {
	size := 0
	for _, t := range tuples {
		size += len(t.key)
	}
	if max(size, len(tuples)) <= math.MaxUint32 {
		sortByKeysWith[uint32](size, tuples, bs)
	} else {
		sortByKeysWith[uint64](size, tuples, bs)
	}
}

// sortByKeysWith is sortByKeys for one offset width; size is the keys' total.
func sortByKeysWith[O uint32 | uint64, B any](size int, as []dimTuple, bs []B) {
	arena := make([]byte, 0, size)
	refs := make([]keyRef[O], len(as))
	for i, t := range as {
		refs[i] = keyRef[O]{off: O(len(arena)), end: O(len(arena) + len(t.key)), idx: O(i)}
		arena = append(arena, t.key...)
	}
	radixSort(arena, refs, 0)

	// refs[j].idx now names the item that belongs at position j. Walk
	// each cycle of that permutation once, marking finished positions by
	// pointing them at themselves.
	for j := range refs {
		if int(refs[j].idx) == j {
			continue
		}
		a, b := as[j], bs[j]
		k := j
		for {
			src := int(refs[k].idx)
			refs[k].idx = O(k)
			if src == j {
				as[k], bs[k] = a, b
				break
			}
			as[k], bs[k] = as[src], bs[src]
			k = src
		}
	}
}

// radixSort orders refs by their keys from byte depth on; all of them
// agree on the bytes before depth. It is an in-place MSD radix sort
// (American flag): one counting pass per level, levels that every key
// of the bucket shares skipped in one comparison pass, and small
// buckets finished by a comparison sort.
func radixSort[O uint32 | uint64](arena []byte, refs []keyRef[O], depth O) {
	if len(refs) < radixMin {
		sortSmall(arena, refs, depth)
		return
	}
	depth += commonPrefix(arena, refs, depth)

	// Bucket 0 holds keys that end at depth, bucket b+1 the keys whose
	// next byte is b.
	bucket := func(r keyRef[O]) int {
		if r.off+depth == r.end {
			return 0
		}
		return int(arena[r.off+depth]) + 1
	}
	var next, end [257]int // end counts each bucket first, then becomes its exclusive end
	for _, r := range refs {
		end[bucket(r)]++
	}
	sum := 0
	for b := range end {
		next[b] = sum
		sum += end[b]
		end[b] = sum
	}
	for b := range next {
		for next[b] < end[b] {
			r := refs[next[b]]
			rb := bucket(r)
			if rb == b {
				next[b]++
				continue
			}
			refs[next[b]], refs[next[rb]] = refs[next[rb]], r
			next[rb]++
		}
	}
	// Keys in bucket 0 are all equal; every other bucket recurses one
	// byte deeper.
	for b := 1; b < len(end); b++ {
		if lo, hi := end[b-1], end[b]; hi-lo > 1 {
			radixSort(arena, refs[lo:hi], depth+1)
		}
	}
}

// commonPrefix returns how many bytes from depth on every key in refs
// shares.
func commonPrefix[O uint32 | uint64](arena []byte, refs []keyRef[O], depth O) O {
	first := arena[refs[0].off+depth : refs[0].end]
	n := len(first)
	for _, r := range refs[1:] {
		if n == 0 {
			break
		}
		k := arena[r.off+depth : r.end]
		if len(k) < n {
			n = len(k)
		}
		i := 0
		for i < n && k[i] == first[i] {
			i++
		}
		n = i
	}
	return O(n)
}

// sortSmall insertion-sorts a bucket of fewer than radixMin keys. It
// compares the next eight key bytes as one big-endian integer and reads
// further only where those tie.
func sortSmall[O uint32 | uint64](arena []byte, refs []keyRef[O], depth O) {
	var lead [radixMin]uint64
	for i, r := range refs {
		k := arena[r.off+depth : r.end]
		if len(k) >= 8 {
			lead[i] = binary.BigEndian.Uint64(k)
			continue
		}
		for j, c := range k { // zero padding sorts a key before its extensions
			lead[i] |= uint64(c) << (56 - 8*j)
		}
	}
	for i := 1; i < len(refs); i++ {
		l, r := lead[i], refs[i]
		j := i
		for ; j > 0; j-- {
			p := refs[j-1]
			if lead[j-1] < l || lead[j-1] == l &&
				bytes.Compare(arena[p.off+depth:p.end], arena[r.off+depth:r.end]) <= 0 {
				break
			}
			lead[j], refs[j] = lead[j-1], p
		}
		lead[j], refs[j] = l, r
	}
}
