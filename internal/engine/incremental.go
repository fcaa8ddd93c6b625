// Incremental recomputation: the store records, with every version a run
// persists, the provenance of that version — the statement that computed
// it and the generation of every direct operand it read. A WithIncremental
// run walks the dependency graph in plan order, skips cubes whose stored
// provenance is still current, and hands the dispatcher the store deltas
// of the changed inputs plus the previous output versions to maintain
// against. A version without provenance (put from outside a run, or read
// from a segment written before provenance was) is stale and no base, so
// it only widens the recompute.
package engine

import (
	"hash/fnv"

	"exlengine/internal/chase"
	"exlengine/internal/determine"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/store"
)

// stmtPrint fingerprints the tgds of a derived cube's statement, so that a
// version some other statement computed — another program defining the
// cube, registered over the same store — is never taken for this one's.
func stmtPrint(tgds []*mapping.Tgd) uint64 {
	h := fnv.New64a()
	for _, t := range tgds {
		h.Write([]byte(t.String()))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// pruneStale splits the plan into stale cubes (kept, to be recomputed)
// and current ones (skipped), and builds the delta front the dispatcher
// starts from: input deltas where the store can reconstruct them, previous
// outputs as maintenance bases where they are trustworthy, and FullOnly
// marks everywhere else. A stored version is a trustworthy base when its
// provenance names the statement (stmts) it is about to be maintained by:
// it is that statement over its operands at the recorded generations.
func pruneStale(graph *determine.Graph, plan []determine.StmtRef,
	snap map[string]*model.Cube, cubeGens map[string]uint64, provs map[string]*store.Provenance,
	stmts map[string]statement, st CubeStore) ([]determine.StmtRef, []string, *chase.Front) {

	based := func(cube string) *store.Provenance {
		if p := provs[cube]; p != nil && p.Stmt == stmts[cube].print {
			return p
		}
		return nil
	}
	stale := make(map[string]bool)
	skipped := []string{}
	var keep []determine.StmtRef
	for _, ref := range plan {
		cube := ref.Cube()
		p := based(cube)
		isStale := p == nil
		for _, dep := range graph.Deps(cube) {
			if isStale {
				break
			}
			isStale = stale[dep] || cubeGens[dep] != p.Inputs[dep]
		}
		if isStale {
			stale[cube] = true
			keep = append(keep, ref)
		} else {
			skipped = append(skipped, cube)
		}
	}

	front := &chase.Front{
		Deltas:   make(map[string]*model.CubeDelta),
		FullOnly: make(map[string]bool),
		Bases:    make(map[string]*model.Cube),
	}
	// Deltas: for every input read by a stale cube with a base and not
	// itself being recomputed this run, all maintaining consumers must have
	// seen the same generation of it — their bases then share one "before",
	// and one store delta describes the movement for all of them. Consumers
	// that disagree (one version computed before the input last moved,
	// another after) poison the input to FullOnly rather than risking a
	// delta that skips changes some base has never seen.
	sinceGen := make(map[string]uint64)
	conflict := make(map[string]bool)
	for _, ref := range keep {
		cube := ref.Cube()
		p := based(cube)
		if p == nil || snap[cube] == nil {
			// No base: this consumer recomputes in full regardless of
			// deltas, so it imposes no "before" of its own.
			continue
		}
		front.Bases[cube] = snap[cube]
		for _, dep := range graph.Deps(cube) {
			if stale[dep] {
				continue // recomputed this run; the dispatcher publishes its delta
			}
			g, seen := sinceGen[dep]
			if !seen {
				sinceGen[dep] = p.Inputs[dep]
			} else if g != p.Inputs[dep] {
				conflict[dep] = true
			}
		}
	}
	for dep, g := range sinceGen {
		if conflict[dep] {
			front.FullOnly[dep] = true
			continue
		}
		if cubeGens[dep] == g {
			continue // unchanged since every base saw it
		}
		d, err := st.Delta(dep, g)
		if err != nil {
			// History cannot reconstruct the old version (an equal-asOf
			// overwrite since): recompute consumers in full.
			front.FullOnly[dep] = true
			continue
		}
		if !d.Empty() {
			front.Deltas[dep] = d
		}
	}
	return keep, skipped, front
}
