// Incremental recomputation: the engine memoizes, per derived cube, the
// store generation of every direct operand at the time the cube was last
// computed. A WithIncremental run walks the dependency graph in plan
// order, skips cubes whose memoized generations are still current, and
// hands the dispatcher the store deltas of the changed inputs plus the
// previous output versions to maintain against. Correctness does not
// depend on the memos being fresh — a missing, raced or poisoned memo
// only widens the recompute — because every reused base is checked
// against the generation of the stored version it claims to be.
package engine

import (
	"exlengine/internal/determine"
	"exlengine/internal/dispatch"
	"exlengine/internal/model"
)

// cubeMemo records what one derived cube was last computed from. A memo
// is immutable once stored; updates swap whole pointers under memoMu.
type cubeMemo struct {
	// self is the generation the cube's own version was written at. A
	// mismatch with the store means someone else wrote the cube since —
	// the stored version is not this memo's output, so it is neither
	// current nor a usable base.
	self uint64
	// inputs is the generation of each direct operand at compute time.
	inputs map[string]uint64
}

// memoSnapshot copies the memo map under the lock; the memos themselves
// are immutable.
func (e *Engine) memoSnapshot() map[string]*cubeMemo {
	e.memoMu.Lock()
	defer e.memoMu.Unlock()
	out := make(map[string]*cubeMemo, len(e.memo))
	for k, v := range e.memo {
		out[k] = v
	}
	return out
}

// pruneStale splits the plan into stale cubes (kept, to be recomputed)
// and current ones (skipped), and builds the dispatch plan: input
// deltas where the store can reconstruct them, previous outputs as
// maintenance bases where they are trustworthy, and FullOnly marks
// everywhere else.
func (e *Engine) pruneStale(graph *determine.Graph, plan []determine.StmtRef,
	snap map[string]*model.Cube, cubeGens map[string]uint64,
	st CubeStore) ([]determine.StmtRef, []string, *dispatch.IncrPlan) {

	memo := e.memoSnapshot()
	stale := make(map[string]bool)
	skipped := []string{}
	var keep []determine.StmtRef
	for _, ref := range plan {
		cube := ref.Cube()
		m := memo[cube]
		isStale := m == nil || m.self != cubeGens[cube]
		if !isStale {
			for _, dep := range graph.Deps(cube) {
				if stale[dep] || cubeGens[dep] != m.inputs[dep] {
					isStale = true
					break
				}
			}
		}
		if isStale {
			stale[cube] = true
			keep = append(keep, ref)
		} else {
			skipped = append(skipped, cube)
		}
	}

	ip := &dispatch.IncrPlan{
		Deltas:   make(map[string]*model.CubeDelta),
		FullOnly: make(map[string]bool),
		Bases:    make(map[string]*model.Cube),
	}
	// Bases: a stale cube's stored version is a usable maintenance base
	// only when it is the version its memo computed (self matches); a
	// foreign write in between means the stored cube is not F(memoized
	// inputs) and maintaining it from deltas would be unsound.
	for _, ref := range keep {
		cube := ref.Cube()
		m := memo[cube]
		if m == nil || m.self != cubeGens[cube] {
			continue
		}
		if b := snap[cube]; b != nil {
			ip.Bases[cube] = b
		}
	}

	// Deltas: for every input read by a stale cube and not itself being
	// recomputed this run, all maintaining consumers must have seen the
	// same generation of it — their bases then share one "before", and
	// one store delta describes the movement for all of them. Consumers
	// that disagree (possible when runs interleave oddly) poison the
	// input to FullOnly rather than risking a delta that skips changes
	// some base has never seen.
	sinceGen := make(map[string]uint64)
	conflict := make(map[string]bool)
	for _, ref := range keep {
		cube := ref.Cube()
		m := memo[cube]
		if m == nil || ip.Bases[cube] == nil {
			// No base: this consumer recomputes in full regardless of
			// deltas, so it imposes no "before" of its own.
			continue
		}
		for _, dep := range graph.Deps(cube) {
			if stale[dep] {
				continue // recomputed this run; the dispatcher publishes its delta
			}
			g, seen := sinceGen[dep]
			if !seen {
				sinceGen[dep] = m.inputs[dep]
			} else if g != m.inputs[dep] {
				conflict[dep] = true
			}
		}
	}
	for dep, g := range sinceGen {
		if conflict[dep] {
			ip.FullOnly[dep] = true
			continue
		}
		if cubeGens[dep] == g {
			continue // unchanged since every base saw it
		}
		d, err := st.Delta(dep, g)
		if err != nil {
			// History cannot reconstruct the old version (equal-asOf
			// overwrite, durable reopen): recompute consumers in full.
			ip.FullOnly[dep] = true
			continue
		}
		if !d.Empty() {
			ip.Deltas[dep] = d
		}
	}
	return keep, skipped, ip
}

// updateMemos records, for every cube the run computed, the generations
// of its operands as the run saw them (commitGen for cubes persisted by
// this very run). A memo from a later commit is never overwritten by an
// earlier one, so concurrent runs converge on the newest state.
func (e *Engine) updateMemos(graph *determine.Graph, plan []determine.StmtRef,
	cubeGens map[string]uint64, commitGen uint64, persisted map[string]bool) {

	computed := make(map[string]bool, len(plan))
	for _, ref := range plan {
		computed[ref.Cube()] = true
	}
	genOf := func(name string) uint64 {
		if computed[name] && persisted[name] {
			return commitGen
		}
		return cubeGens[name]
	}
	e.memoMu.Lock()
	defer e.memoMu.Unlock()
	if e.memo == nil {
		e.memo = make(map[string]*cubeMemo)
	}
	for _, ref := range plan {
		cube := ref.Cube()
		m := &cubeMemo{self: genOf(cube), inputs: make(map[string]uint64)}
		for _, dep := range graph.Deps(cube) {
			m.inputs[dep] = genOf(dep)
		}
		if old := e.memo[cube]; old != nil && old.self > m.self {
			continue
		}
		e.memo[cube] = m
	}
}
