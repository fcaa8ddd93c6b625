// Full-vs-incremental differential testing: the incremental chase
// promises byte-identical output to a full solve over the same current
// instance. This harness derives a deterministic "previous" version of a
// generated case's data, solves it fully to obtain maintenance bases,
// diffs previous vs current into per-relation deltas, and then requires
// chase.Solver.Maintain to reproduce the full solution exactly — zero
// tolerance, every relation, including auxiliary ones.
package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"exlengine/internal/chase"
	"exlengine/internal/model"
)

// IncrResult is the outcome of one full-vs-incremental differential run.
type IncrResult struct {
	Stats       *chase.Stats
	Divergences []Divergence
}

// ChurnBase derives the "previous" version of a source instance from the
// current one, deterministically in the seed. Tuples removed from the
// base show up as insertions in the delta, tuples with a perturbed old
// value as updates, and tuples present only in the base as retractions —
// all three delta species every run, so the retraction path cannot rot
// unexercised.
func ChurnBase(cur map[string]*model.Cube, seed int64) map[string]*model.Cube {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, 0, len(cur))
	for n := range cur {
		names = append(names, n)
	}
	sort.Strings(names)

	base := make(map[string]*model.Cube, len(cur))
	changed := false
	for _, name := range names {
		src := cur[name]
		out := src.Clone()
		for _, tu := range src.Tuples() {
			switch r := rng.Float64(); {
			case r < 0.20: // insertion: absent from the base
				out.Delete(tu.Dims)
				changed = true
			case r < 0.45: // update: base holds a different old value
				_ = out.Replace(tu.Dims, tu.Measure+rng.Float64()*4-2)
				changed = true
			case r < 0.55: // retraction: a base-only tuple at a fresh key
				if dims := shiftedDims(tu.Dims, 997+rng.Int63n(100)); dims != nil {
					if _, exists := src.Get(dims); !exists {
						if err := out.Put(dims, rng.Float64()*10-5); err == nil {
							changed = true
						}
					}
				}
			}
		}
		base[name] = out
	}
	// A no-op churn would only exercise the skip path; force at least one
	// real movement so every case tests maintenance proper.
	if !changed {
		for _, name := range names {
			if tus := base[name].Tuples(); len(tus) > 0 {
				base[name].Delete(tus[0].Dims)
				break
			}
		}
	}
	return base
}

// shiftedDims returns a copy of dims with the first period dimension
// shifted by off, producing a key outside the generated data's range; nil
// when there is no period dimension to shift.
func shiftedDims(dims []model.Value, off int64) []model.Value {
	for i, d := range dims {
		if p, ok := d.AsPeriod(); ok {
			out := append([]model.Value(nil), dims...)
			out[i] = model.Per(p.Shift(off))
			return out
		}
	}
	return nil
}

// RunIncremental compiles the case, solves the churned base instance and
// the current instance fully, then solves the current instance
// incrementally from the base outputs plus the input deltas, and diffs
// every relation with zero tolerance. A non-nil error means the case
// itself is broken; incremental disagreements are Divergences.
func RunIncremental(c *Case, churnSeed int64) (*IncrResult, error) {
	m, err := compile(c.Source())
	if err != nil {
		return nil, err
	}

	base := ChurnBase(c.Data, churnSeed)
	baseOut, err := chase.New(m).Solve(chase.Instance(base))
	if err != nil {
		return nil, fmt.Errorf("difftest: chase on base instance: %w", err)
	}
	ref, err := chase.New(m).Solve(chase.Instance(c.Data))
	if err != nil {
		return nil, fmt.Errorf("difftest: chase reference: %w", err)
	}

	deltas := make(map[string]*model.CubeDelta)
	for _, name := range m.Elementary {
		if d := model.DiffCubes(name, base[name], c.Data[name]); !d.Empty() {
			deltas[name] = d
		}
	}
	front := &chase.Front{Deltas: deltas, Bases: baseOut}
	got, stats, err := chase.New(m).Maintain(context.Background(), chase.Instance(c.Data), front)
	if err != nil {
		return nil, fmt.Errorf("difftest: incremental chase: %w", err)
	}

	res := &IncrResult{Stats: stats}
	rels := make([]string, 0, len(ref))
	for rel := range ref {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		if got[rel] == nil {
			res.Divergences = append(res.Divergences, Divergence{
				Engine: "chase-incr", Rel: rel, Lines: []string{"relation missing from incremental output"},
			})
			continue
		}
		// Zero tolerance: the incremental contract is exact equality, not
		// floating-point agreement.
		if lines := DiffCubes(ref[rel], got[rel], 0, 8); len(lines) > 0 {
			res.Divergences = append(res.Divergences, Divergence{Engine: "chase-incr", Rel: rel, Lines: lines})
		}
	}
	return res, nil
}

// IncrDiverges is the shrinking predicate for full-vs-incremental
// failures: the case compiles, both full solves succeed, and the
// incremental solve disagrees somewhere.
func IncrDiverges(churnSeed int64) Pred {
	return func(c *Case) bool {
		res, err := RunIncremental(c, churnSeed)
		return err == nil && len(res.Divergences) > 0
	}
}
