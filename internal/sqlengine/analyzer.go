package sqlengine

import (
	"context"
	"fmt"
	"slices"

	"exlengine/internal/obs"
	"exlengine/internal/ops"
)

// The analyzer rewrites the freshly lowered logical plan with a fixed
// set of rules run to a fixed point, in the style of go-mysql-server's
// rule-based analyzer. Name resolution and type inference have already
// happened (prepareSelect validates every reference and computes the
// output schema before lowering), so the rules here are the relational
// rewrites: predicate pushdown, join reordering by estimated
// cardinality, projection pruning — followed by a final expression-
// compilation pass that freezes every scalar expression into a closure
// with its function lookups and column offsets resolved once.

// analysisCtx carries what rules need: the statement's base scope (for
// attributing unqualified column references to aliases) and the DB.
type analysisCtx struct {
	db *DB
	sc *scope
}

type analyzerRule struct {
	name string
	fn   func(a *analysisCtx, n planNode) (planNode, bool, error)
}

var analyzerRules = []analyzerRule{
	{"pushdown_filters", rulePushdownFilters},
	{"reorder_joins", ruleReorderJoins},
	{"prune_columns", rulePruneColumns},
}

// maxAnalyzerPasses bounds the fixed-point loop; the rule set converges
// in two or three passes, so hitting the bound means a rule oscillates.
const maxAnalyzerPasses = 8

// analyze runs the rewrite rules to a fixed point, then compiles the
// plan's expressions. Each rule application gets a span and a per-rule
// metric, so a trace shows which rewrites fired for a statement.
func (db *DB) analyze(ctx context.Context, n planNode, sc *scope) (planNode, error) {
	a := &analysisCtx{db: db, sc: sc}
	reg := obs.MetricsFrom(ctx)
	for pass := 0; pass < maxAnalyzerPasses; pass++ {
		changedAny := false
		for _, rule := range analyzerRules {
			_, span := obs.StartSpan(ctx, "sql.analyze."+rule.name, obs.Int("pass", pass))
			out, changed, err := rule.fn(a, n)
			span.End()
			if err != nil {
				return nil, err
			}
			if changed {
				reg.Counter(obs.Label(obs.MetricSQLRuleApplies, "rule", rule.name)).Inc()
				changedAny = true
				n = out
			}
		}
		if !changedAny {
			break
		}
	}
	_, span := obs.StartSpan(ctx, "sql.analyze.compile_exprs")
	err := a.compilePlan(n)
	span.End()
	if err != nil {
		return nil, err
	}
	if s := obs.CurrentSpan(ctx); s != nil {
		s.SetAttr(obs.String("plan", renderPlan(n)))
	}
	return n, nil
}

// transformUp applies f bottom-up over the plan.
func transformUp(n planNode, f func(planNode) (planNode, bool, error)) (planNode, bool, error) {
	changed := false
	kids := planChildren(n)
	for i := range kids {
		c, ch, err := transformUp(kids[i], f)
		if err != nil {
			return nil, false, err
		}
		kids[i], changed = c, changed || ch
	}
	switch t := n.(type) {
	case *filterNode:
		t.child = kids[0]
	case *joinNode:
		t.left, t.right = kids[0], kids[1]
	case *projectNode:
		t.child = kids[0]
	case *groupNode:
		t.child = kids[0]
	case *sortNode:
		t.child = kids[0]
	}
	out, ch, err := f(n)
	return out, changed || ch, err
}

// conjunctAliases returns the aliases an expression references, resolved
// against the statement scope.
func conjunctAliases(a *analysisCtx, e expr) map[string]bool {
	refs := map[[2]string]bool{}
	exprColRefs(e, a.sc, refs)
	set := map[string]bool{}
	for ref := range refs {
		set[ref[0]] = true
	}
	return set
}

// itemAlias returns the scan alias at the root of a join item (scans,
// possibly wrapped by pushed-down filters).
func itemAlias(n planNode) string {
	switch n := n.(type) {
	case *scanNode:
		return n.alias
	case *filterNode:
		return itemAlias(n.child)
	default:
		return ""
	}
}

// rulePushdownFilters moves WHERE conjuncts that reference exactly one
// from-item from the multi-join down to a filter above that item's scan,
// so scans shrink before any join touches them.
func rulePushdownFilters(a *analysisCtx, n planNode) (planNode, bool, error) {
	return transformUp(n, func(n planNode) (planNode, bool, error) {
		mj, ok := n.(*multiJoinNode)
		if !ok || len(mj.conjuncts) == 0 {
			return n, false, nil
		}
		byAlias := map[string]int{}
		for i, it := range mj.items {
			if al := itemAlias(it); al != "" {
				if _, dup := byAlias[al]; !dup {
					byAlias[al] = i
				}
			}
		}
		var kept []expr
		changed := false
		for _, c := range mj.conjuncts {
			set := conjunctAliases(a, c)
			if len(set) == 1 {
				var alias string
				for al := range set {
					alias = al
				}
				if i, ok := byAlias[alias]; ok {
					mj.items[i] = &filterNode{child: mj.items[i], cond: c}
					changed = true
					continue
				}
			}
			kept = append(kept, c)
		}
		if !changed {
			return n, false, nil
		}
		mj.conjuncts = kept
		return mj, true, nil
	})
}

// estimateRows is the planner's cardinality estimate: exact for scans,
// halved per pushed filter conjunct, and multiplicative for joins (with
// a flat selectivity discount per key).
func estimateRows(n planNode) int {
	switch n := n.(type) {
	case *scanNode:
		return n.table.cube.Len()
	case *filterNode:
		return max(estimateRows(n.child)/2, 1)
	case *joinNode:
		e := estimateRows(n.left) * estimateRows(n.right)
		for range n.leftKeys {
			e /= 10
		}
		return max(e, 1)
	default:
		return 1
	}
}

// ruleReorderJoins replaces the multi-join with a left-deep tree of
// binary joins. The left (probe) side accumulates and the right side is
// the hash-build input, so the tree starts from the LARGEST estimated
// input and greedily attaches the smallest equi-key-connected remaining
// input as each build side — hash tables are built over small inputs and
// the big table streams through as probes. Cross products are a last
// resort. Leftover conjuncts become a residual filter on top. Original
// FROM order breaks ties, keeping plans deterministic.
func ruleReorderJoins(a *analysisCtx, n planNode) (planNode, bool, error) {
	return transformUp(n, func(n planNode) (planNode, bool, error) {
		mj, ok := n.(*multiJoinNode)
		if !ok {
			return n, false, nil
		}
		items := mj.items
		conjuncts := append([]expr(nil), mj.conjuncts...)
		used := make([]bool, len(conjuncts))

		remaining := make([]int, len(items))
		for i := range items {
			remaining[i] = i
		}
		// pick returns the candidate of the least estimate, or of the greatest
		// where largest is set; the first of equals.
		pick := func(candidates []int, largest bool) int {
			best, bestRows := -1, 0
			for _, i := range candidates {
				if r := estimateRows(items[i]); best < 0 || largest && r > bestRows || !largest && r < bestRows {
					best, bestRows = i, r
				}
			}
			return best
		}

		// keysFor finds the unused equality conjuncts joining the done
		// aliases to the candidate item: the probe side reads only done
		// aliases, the build side only the item.
		keysFor := func(done map[string]bool, alias string, consume bool) (probe, build []expr) {
			for ci, c := range conjuncts {
				if used[ci] {
					continue
				}
				b, ok := c.(*binExpr)
				if !ok || b.op != "=" {
					continue
				}
				la := conjunctAliases(a, b.l)
				ra := conjunctAliases(a, b.r)
				switch {
				case subset(la, done) && onlyAlias(ra, alias):
					probe = append(probe, b.l)
					build = append(build, b.r)
					if consume {
						used[ci] = true
					}
				case subset(ra, done) && onlyAlias(la, alias):
					probe = append(probe, b.r)
					build = append(build, b.l)
					if consume {
						used[ci] = true
					}
				}
			}
			return probe, build
		}

		first := pick(remaining, true)
		acc := items[first]
		done := map[string]bool{itemAlias(items[first]): true}
		rest := make([]int, 0, len(remaining)-1)
		for _, i := range remaining {
			if i != first {
				rest = append(rest, i)
			}
		}

		for len(rest) > 0 {
			var connected []int
			for _, i := range rest {
				if p, _ := keysFor(done, itemAlias(items[i]), false); len(p) > 0 {
					connected = append(connected, i)
				}
			}
			cand := connected
			if len(cand) == 0 {
				cand = rest
			}
			next := pick(cand, false)
			alias := itemAlias(items[next])
			probe, build := keysFor(done, alias, true)
			acc = &joinNode{left: acc, right: items[next], leftKeys: probe, rightKeys: build}
			done[alias] = true
			nr := rest[:0]
			for _, i := range rest {
				if i != next {
					nr = append(nr, i)
				}
			}
			rest = nr
		}

		var out planNode = acc
		var residual []expr
		for ci, c := range conjuncts {
			if !used[ci] {
				residual = append(residual, c)
			}
		}
		for _, c := range residual {
			out = &filterNode{child: out, cond: c}
		}
		return out, true, nil
	})
}

// selected returns the expressions of a SELECT list.
func selected(ses []selectExpr) []expr {
	es := make([]expr, len(ses))
	for i, se := range ses {
		es[i] = se.e
	}
	return es
}

// ownRefs adds to need every column reference n's own expressions read.
func ownRefs(a *analysisCtx, n planNode, need map[[2]string]bool) {
	var es []expr
	switch n := n.(type) {
	case *filterNode:
		es = []expr{n.cond}
	case *multiJoinNode:
		es = n.conjuncts
	case *joinNode:
		es = append(slices.Clip(n.leftKeys), n.rightKeys...)
	case *projectNode:
		es = selected(n.exprs)
	case *groupNode:
		es = append(slices.Clip(n.groupBy), selected(n.exprs)...)
	}
	for _, e := range es {
		exprColRefs(e, a.sc, need)
	}
}

// neededRefs collects every column reference the plan under n reads.
func neededRefs(a *analysisCtx, n planNode, need map[[2]string]bool) {
	ownRefs(a, n, need)
	for _, c := range planChildren(n) {
		neededRefs(a, c, need)
	}
}

// rulePruneColumns restricts every scan to the columns referenced above
// it, so joins and aggregations carry only live columns. Because batch
// projection is a column re-slice this costs nothing at runtime and
// shrinks every downstream row copy. A second top-down walk then prunes
// join outputs: key columns consumed by the join itself (and anything
// else no ancestor reads) are dropped from the join's output gather,
// which is where a hash join spends its copy bandwidth.
func rulePruneColumns(a *analysisCtx, n planNode) (planNode, bool, error) {
	need := map[[2]string]bool{}
	neededRefs(a, n, need)
	out, changed, err := transformUp(n, func(n planNode) (planNode, bool, error) {
		sn, ok := n.(*scanNode)
		if !ok {
			return n, false, nil
		}
		var proj []int
		for j, c := range sn.tableCols {
			if need[[2]string{sn.alias, c.Name}] {
				proj = append(proj, j)
			}
		}
		if len(proj) == len(sn.tableCols) && sn.proj == nil {
			return n, false, nil
		}
		if sn.proj != nil && slices.Equal(sn.proj, proj) {
			return n, false, nil
		}
		sn.proj = proj
		sn.rebuildCols()
		return sn, true, nil
	})
	if err != nil {
		return nil, false, err
	}
	if pruneJoinOutputs(a, out, nil) {
		changed = true
	}
	return out, changed, nil
}

// pruneJoinOutputs walks top-down carrying the set of columns the
// ancestors of each node read. need == nil means "not yet known" (above
// the first project/group, every column is live). At each join it keeps
// only the needed columns of the left+right concatenation, then recurses
// with the kept columns plus the child's own key references.
func pruneJoinOutputs(a *analysisCtx, n planNode, need map[[2]string]bool) bool {
	switch n := n.(type) {
	case *sortNode:
		return pruneJoinOutputs(a, n.child, nil)
	case *projectNode, *groupNode:
		childNeed := map[[2]string]bool{}
		ownRefs(a, n, childNeed)
		return pruneJoinOutputs(a, planChildren(n)[0], childNeed)
	case *filterNode:
		if need != nil {
			merged := map[[2]string]bool{}
			for k := range need {
				merged[k] = true
			}
			ownRefs(a, n, merged)
			need = merged
		}
		return pruneJoinOutputs(a, n.child, need)
	case *joinNode:
		// Children prune first: childNeed is a set of names, so it does
		// not depend on this join's output indexes, and the keep indexes
		// below are then computed against the pruned child schemas —
		// nested join trees settle in a single walk.
		childNeed := map[[2]string]bool{}
		for _, side := range []planNode{n.left, n.right} {
			for _, c := range side.cols() {
				if need == nil || need[[2]string{c.qual, c.name}] {
					childNeed[[2]string{c.qual, c.name}] = true
				}
			}
		}
		ownRefs(a, n, childNeed)
		changed := pruneJoinOutputs(a, n.left, childNeed)
		if pruneJoinOutputs(a, n.right, childNeed) {
			changed = true
		}
		n.out = nil // children may have re-pruned; rebuild lazily
		if need != nil {
			full := append(append([]planCol(nil), n.left.cols()...), n.right.cols()...)
			keep := make([]int, 0, len(full))
			for i, c := range full {
				if need[[2]string{c.qual, c.name}] {
					keep = append(keep, i)
				}
			}
			if len(keep) == 0 {
				keep = []int{0} // keep one column so batches stay non-degenerate
			}
			if len(keep) == len(full) {
				keep = nil
			}
			if !equalPrune(n.outCols, keep) {
				n.outCols = keep
				n.out = nil
				changed = true
			}
		}
		return changed
	case *multiJoinNode:
		// Pre-reorder: nothing to prune yet; the fixed point revisits us.
		return false
	default:
		return false
	}
}

func equalPrune(a, b []int) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// compilePlan compiles every expression in the plan against its child's
// output schema: column references become offsets, scalar function names
// become resolved closures, aggregate calls in a groupNode become
// references to pseudo-columns computed by the hash aggregator.
func (a *analysisCtx) compilePlan(n planNode) error {
	switch n := n.(type) {
	case *scanNode:
		return nil
	case *filterNode:
		if err := a.compilePlan(n.child); err != nil {
			return err
		}
		c, err := compileExpr(n.cond, compileEnv{cols: n.child.cols()})
		if err != nil {
			return err
		}
		n.ccond = c
		return nil
	case *multiJoinNode:
		return fmt.Errorf("sql: internal: multi-join survived analysis")
	case *joinNode:
		if err := a.compilePlan(n.left); err != nil {
			return err
		}
		if err := a.compilePlan(n.right); err != nil {
			return err
		}
		var err error
		if n.ckLeft, err = compileArgs(compileEnv{cols: n.left.cols()}, n.leftKeys...); err != nil {
			return err
		}
		n.ckRight, err = compileArgs(compileEnv{cols: n.right.cols()}, n.rightKeys...)
		return err
	case *projectNode:
		if err := a.compilePlan(n.child); err != nil {
			return err
		}
		var err error
		n.compiled, err = compileArgs(compileEnv{cols: n.child.cols()}, selected(n.exprs)...)
		return err
	case *groupNode:
		if err := a.compilePlan(n.child); err != nil {
			return err
		}
		return a.compileGroup(n)
	case *sortNode:
		return a.compilePlan(n.child)
	default:
		return fmt.Errorf("sql: internal: unknown plan node %T", n)
	}
}

// compileGroup extracts the distinct aggregate calls from the SELECT
// list, compiles their arguments over the input schema, and compiles the
// final expressions over the input schema extended with one pseudo-
// column per aggregate.
func (a *analysisCtx) compileGroup(g *groupNode) error {
	childCols := g.child.cols()
	childEnv := compileEnv{cols: childCols}

	var err error
	if g.ckKeys, err = compileArgs(childEnv, g.groupBy...); err != nil {
		return err
	}

	aggIdx := map[string]int{}
	var collect func(e expr) error
	collect = func(e expr) error {
		c, ok := e.(*callExpr)
		if !ok || !ops.IsAggregation(c.name) {
			for _, x := range operands(e) {
				if err := collect(x); err != nil {
					return err
				}
			}
			return nil
		}
		if len(c.args) != 1 {
			return fmt.Errorf("sql: aggregate %s takes one argument", c.name)
		}
		if hasAggregate(c.args[0]) {
			return fmt.Errorf("sql: aggregate %s over an aggregate", c.name)
		}
		key := exprString(c)
		if _, ok := aggIdx[key]; ok {
			return nil
		}
		fold, err := ops.FoldOf(c.name)
		if err != nil {
			return err
		}
		carg, err := compileExpr(c.args[0], childEnv)
		if err != nil {
			return err
		}
		aggIdx[key] = len(childCols) + len(g.aggs)
		g.aggs = append(g.aggs, aggSpec{name: c.name, fold: fold, arg: c.args[0], carg: carg})
		return nil
	}
	for _, se := range g.exprs {
		if err := collect(se.e); err != nil {
			return err
		}
	}

	g.partSig = partitionSig(g)
	g.finals, err = compileArgs(compileEnv{cols: childCols, aggs: aggIdx}, selected(g.exprs)...)
	return err
}
