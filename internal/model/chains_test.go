package model

import (
	"slices"
	"testing"
)

// TestChainsKeepArrivalOrderUnderCollisions indexes rows whose keys repeat,
// under a hash that maps every key to one of two values, so that keys share
// slots and tags: each key's chain is its rows in the order they were added,
// and a key never added has none.
func TestChainsKeepArrivalOrderUnderCollisions(t *testing.T) {
	keys := []string{"a", "b", "a", "c", "b", "a", "d", "c"}
	hash := func(k string) uint64 { return uint64(k[0]%2) << 40 }
	c := NewChains(len(keys))
	var key string
	same := func(q int32) bool { return keys[q] == key }
	for r, k := range keys {
		key = k
		c.Add(int32(r), hash(k), same)
	}
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		var want, got []int32
		for r, kr := range keys {
			if kr == k {
				want = append(want, int32(r))
			}
		}
		key = k
		for m := c.Head(hash(k), same); m >= 0; m = c.Next(m) {
			got = append(got, m)
		}
		if !slices.Equal(got, want) {
			t.Errorf("key %s: rows %v, want %v", k, got, want)
		}
	}
}
