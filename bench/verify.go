package main

import (
	"fmt"
	"math"
	"time"

	"exlengine/internal/model"
)

// compareCube checks got against the reference: same tuples, measures
// within tol relative to the reference, or absolute for references below 1
// (0 demands bit equality).
func compareCube(name string, got, want *model.Cube, tol float64) error {
	if got == nil {
		return fmt.Errorf("verify %s: cube is missing", name)
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("verify %s: %d tuples, reference has %d", name, got.Len(), want.Len())
	}
	return want.ForEach(func(t model.Tuple) error {
		m, ok := got.Get(t.Dims)
		if !ok {
			return fmt.Errorf("verify %s: tuple %v is missing", name, t.Dims)
		}
		if math.Abs(m-t.Measure) > tol*math.Max(1, math.Abs(t.Measure)) {
			return fmt.Errorf("verify %s: %v is %v, reference says %v", name, t.Dims, m, t.Measure)
		}
		return nil
	})
}

// expectedCubes returns the reference outputs; with corrupt set, one
// measure of one cube is wrong, which a working verification must catch.
func expectedCubes(in *inputs, corrupt bool) map[string]*model.Cube {
	if !corrupt {
		return in.expected
	}
	out := make(map[string]*model.Cube, len(in.expected))
	for n, c := range in.expected {
		out[n] = c
	}
	name := sortedCubeNames(in.expected)[0]
	bad := in.expected[name].Clone()
	t := bad.Tuples()[0]
	if err := bad.Replace(t.Dims, t.Measure*1.5+1); err != nil {
		panic(err) // the tuple was taken from the cube itself
	}
	out[name] = bad
	return out
}

// verifyStore compares every derived cube's current version with the
// reference outputs.
func verifyStore(st versionedStore, in *inputs, corrupt bool) error {
	for name, want := range expectedCubes(in, corrupt) {
		got, _ := st.Get(name)
		if err := compareCube(name, got, want, in.tol); err != nil {
			return err
		}
	}
	return nil
}

// verifyRecovered checks a reopened durable store: every acknowledged
// version is readable, each version of the revised cube equals what was
// put, and the final derived cubes equal the reference.
func verifyRecovered(st versionedStore, in *inputs, corrupt bool) error {
	if err := verifyStore(st, in, corrupt); err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	versions := st.Versions(in.revised)
	if len(versions) != in.steps+1 {
		return fmt.Errorf("after recovery: %s has %d versions, %d were acknowledged", in.revised, len(versions), in.steps+1)
	}
	for k := -1; k < in.steps; k++ {
		want, at := in.base[in.revised], day0
		if k >= 0 {
			want, at = in.revision(k), dayOf(k)
		}
		got, _ := st.GetAsOf(in.revised, at)
		if err := compareCube(fmt.Sprintf("%s@step%d", in.revised, k), got, want, 0); err != nil {
			return fmt.Errorf("after recovery: %w", err)
		}
	}
	for name, want := range in.expected {
		for _, at := range st.Versions(name) {
			c, ok := st.GetAsOf(name, at)
			if !ok || c.Len() != want.Len() {
				return fmt.Errorf("after recovery: %s at %s is unreadable or short", name, at.Format(time.RFC3339))
			}
		}
	}
	return nil
}
