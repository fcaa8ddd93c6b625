package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"exlengine/internal/chase"
	"exlengine/internal/engine"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
	"exlengine/internal/sqlengine"
	"exlengine/internal/sqlgen"
	"exlengine/internal/store"
)

// flatten lists the subtree under a span, the span itself first.
func flatten(root *obs.Span) []*obs.Span {
	out := []*obs.Span{root}
	for _, c := range root.Children() {
		out = append(out, flatten(c)...)
	}
	return out
}

func attrInt(s *obs.Span, key string) int64 {
	v, _ := s.Attr(key)
	n, _ := strconv.ParseInt(v, 10, 64) // an absent or non-numeric attribute counts 0
	return n
}

// traceMetrics reads the per-layer numbers out of the span trees of the
// traced epochs: the tree Engine.Run produces in production, under the
// harness's own op / op.put / op.run spans. Times are medians over ops
// of the time the named spans took within one op.
func traceMetrics(traced []*epochResult) metricSet {
	perOp := []string{"determine.plan_ms", "engine.run_self_ms", "store.put_ms", "dispatch.ms", "dispatch.self_ms",
		"chase.solve_ms", "chase.incr_ms", "chase.tuples_out", "etl.flow_ms", "frame.program_ms",
		"engine.persist_ms", "obs.spans_per_op"}
	samples := map[string][]float64{} // metric → one value per op, or per epoch for the compile path
	var sqlAttempt, sqlAttemptSelf time.Duration
	var tgdNS float64
	var bindings int64
	var commits []float64
	for _, ep := range traced {
		scaled := func(d time.Duration) float64 { return ms(d) * ep.scale }
		for _, root := range ep.tracer.Roots() {
			if root.Name != "compile" {
				continue
			}
			samples["engine.compile_ms"] = append(samples["engine.compile_ms"], scaled(root.Dur))
			samples["exl.parse_ms"] = append(samples["exl.parse_ms"], scaled(spanDur(root.Find("parse"))))
			samples["exl.analyze_ms"] = append(samples["exl.analyze_ms"], scaled(spanDur(root.Find("analyze"))))
			samples["mapping.generate_ms"] = append(samples["mapping.generate_ms"], scaled(spanDur(root.Find("generate"))))
		}
		for _, op := range ep.opSpans {
			spans := flatten(op)
			r := map[string]float64{"obs.spans_per_op": float64(len(spans))}
			for _, s := range spans {
				d := scaled(s.Dur)
				switch s.Name {
				case "determine":
					r["determine.plan_ms"] += d
				case "run":
					r["engine.run_self_ms"] += scaled(selfTime(s))
				case "op.put":
					r["store.put_ms"] += d
					commits = append(commits, d)
				case "dispatch":
					r["dispatch.ms"] += d
					r["dispatch.self_ms"] += scaled(selfTime(s))
				case "etl.flow":
					r["etl.flow_ms"] += d
				case "frame.program":
					r["frame.program_ms"] += d
				case "persist":
					r["engine.persist_ms"] += d
					commits = append(commits, d)
				case "chase.tgd":
					tgdNS += float64(s.Dur) * ep.scale
					bindings += attrInt(s, "bindings")
					r["chase.tuples_out"] += float64(attrInt(s, "tuples"))
				case "attempt":
					switch target, _ := s.Attr("target"); ops.Target(target) {
					case ops.TargetSQL:
						sqlAttempt += s.Dur
						sqlAttemptSelf += selfTime(s)
					case ops.TargetChase:
						if s.Find("chase.tgd.incr") != nil {
							r["chase.incr_ms"] += d
						} else {
							r["chase.solve_ms"] += d
						}
					}
				}
			}
			for _, name := range perOp {
				samples[name] = append(samples[name], r[name])
			}
		}
	}
	m := metricSet{
		"durable.commit_p50_ms":   median(commits),
		"durable.commit_max_ms":   quantile(commits, 1),
		"sqlengine.marshal_share": ratio(float64(sqlAttemptSelf), float64(sqlAttempt)),
		"chase.ns_per_binding":    ratio(tgdNS, float64(bindings)),
	}
	for name, vals := range samples {
		m[name] = median(vals)
	}
	return m
}

// spanDur is the span's duration, and 0 for a span that was never opened.
func spanDur(s *obs.Span) time.Duration {
	if s == nil {
		return 0
	}
	return s.Dur
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// caller times replayed calls into single layers' public functions, and
// records each call as a span so the trace file shows them beside the ops.
type caller struct {
	ctx context.Context
}

// call runs fn n times and returns the median duration in ms.
func (c caller) call(name string, n int, fn func()) float64 {
	samples := make([]float64, n)
	for i := range samples {
		_, sp := obs.StartSpan(c.ctx, "call."+name)
		t0 := time.Now()
		fn()
		samples[i] = ms(time.Since(t0))
		sp.End()
	}
	return median(samples)
}

const callRepeats = 5

// callTimes are the metrics the replayed calls time: the harness scales
// them by the reference-loop readings around the replays.
var callTimes = []string{
	"store.delta_ms", "store.snapshot_ms", "model.diff_ms", "model.clone_ms", "model.sort_ms", "model.memestimate_ms",
	"sqlengine.load_ms", "sqlgen.translate_ms", "sqlengine.exec_ms", "sqlengine.extract_ms", "sqlengine.analyze_ms",
	"store.csv_read_ms", "store.csv_write_ms",
	"target.sql_ms", "target.etl_ms", "target.frame_ms", "target.chase_ms",
}

// modelCalls times the store and cube-model functions the incremental path
// leans on, on the workload's revised cube: what one revision costs each of
// them, outside any engine.
func modelCalls(c caller, in *inputs) (metricSet, error) {
	m := metricSet{}
	base, rev := in.base[in.revised], in.revision(0)
	st := store.New()
	if err := st.Put(base, day0); err != nil {
		return nil, err
	}
	gen := st.Generation()
	if err := st.Put(rev, dayOf(0)); err != nil {
		return nil, err
	}
	var delta *model.CubeDelta
	var err error
	m["store.delta_ms"] = c.call("store.Delta", callRepeats, func() { delta, err = st.Delta(in.revised, gen) })
	if err != nil {
		return nil, err
	}
	m["store.delta_tuples"] = float64(delta.Size())
	m["store.snapshot_ms"] = c.call("store.SnapshotWithGenerations", callRepeats, func() { st.SnapshotWithGenerations() })

	frozenBase, _ := st.GetAsOf(in.revised, day0)
	cur, _ := st.Get(in.revised)
	var diff *model.CubeDelta
	m["model.diff_ms"] = c.call("model.DiffCubes", callRepeats, func() { diff = model.DiffCubes(in.revised, frozenBase, cur) })
	m["model.diff_tuples"] = float64(diff.Size())
	m["model.clone_ms"] = c.call("model.Cube.Clone", callRepeats, func() { rev.Clone() })

	// Sort order and memory estimate are cached per cube, so each call gets
	// a fresh frozen copy, as every new version is.
	fresh := make([]*model.Cube, 2*callRepeats)
	for i := range fresh {
		fresh[i] = rev.Clone().Freeze()
	}
	next := 0
	take := func() *model.Cube { next++; return fresh[next-1] }
	m["model.sort_ms"] = c.call("model.Cube.Tuples", callRepeats, func() { take().Tuples() })
	m["model.memestimate_ms"] = c.call("model.Cube.MemEstimate", callRepeats, func() { take().MemEstimate() })
	return m, nil
}

// sqlCalls replays the SQL backend's four steps on the PQR fragment of the
// GDP program — load the input cube into a table, translate the mapping,
// execute the script, extract the result cube — each timed on its own.
func sqlCalls(c caller, in *inputs) (metricSet, error) {
	const pqr = `
cube PDR(d: day, r: string) measure p
PQR := avg(PDR, group by quarter(d) as q, r)
`
	mp, err := compileMapping(pqr)
	if err != nil {
		return nil, err
	}
	pdr := in.revision(0).Clone().Freeze()
	var script *sqlgen.Script
	m := metricSet{}
	m["sqlengine.load_ms"] = c.call("sqlengine.LoadCube", callRepeats, func() {
		if lerr := sqlengine.NewDB().LoadCube(pdr); lerr != nil {
			err = lerr
		}
	})
	m["sqlgen.translate_ms"] = c.call("sqlgen.Translate", callRepeats, func() {
		var terr error
		if script, terr = sqlgen.Translate(mp); terr != nil {
			err = terr
		}
	})
	if err != nil {
		return nil, err
	}
	// The engine executes scripts through sqlgen.ExecuteContext, which drops
	// the context before the statements run, so the SQL engine's own spans
	// and operator counters never reach a production trace. The replay runs
	// the statements under the context itself to read them.
	var out *model.Cube
	var execs, extracts, analyzes []float64
	reg := obs.NewRegistry()
	for i := 0; i < callRepeats; i++ {
		// Each execution needs its own database: the script creates PQR.
		db := sqlengine.NewDB()
		if err := db.LoadCube(pdr); err != nil {
			return nil, err
		}
		ectx, sp := obs.StartSpan(obs.ContextWithMetrics(c.ctx, reg), "call.sqlengine.ExecContext")
		t0 := time.Now()
		for _, stmt := range script.DDL {
			if err := db.ExecContext(ectx, stmt); err != nil {
				return nil, err
			}
		}
		for _, step := range script.Steps {
			if err := db.ExecContext(ectx, step.SQL); err != nil {
				return nil, err
			}
		}
		execs = append(execs, ms(time.Since(t0)))
		sp.End()
		var analyze time.Duration
		if sp != nil {
			for _, s := range flatten(sp) {
				if s.Name == "sql.analyze" {
					analyze += s.Dur
				}
			}
		}
		analyzes = append(analyzes, ms(analyze))
		extracts = append(extracts, c.call("sqlengine.ExtractCube", 1, func() { out, err = db.ExtractCube(mp.Schemas["PQR"]) }))
		if err != nil {
			return nil, err
		}
	}
	m["sqlengine.exec_ms"] = median(execs)
	m["sqlengine.extract_ms"] = median(extracts)
	m["sqlengine.analyze_ms"] = median(analyzes)
	counts := snapshotRegistry(reg)
	m["sqlengine.batches"] = float64(counts.counter(obs.MetricSQLBatches)) / callRepeats
	m["sqlengine.op_rows"] = float64(counts.counter(obs.MetricSQLOpRows)) / callRepeats
	if out.Len() == 0 {
		return nil, fmt.Errorf("PQR replay produced no tuples")
	}
	return m, nil
}

// csvCalls times the CSV codec on the revised cube, as the HTTP server uses
// it for cube PUT and GET.
func csvCalls(c caller, in *inputs) (metricSet, error) {
	rev := in.revision(0)
	body := csvBytes(rev)
	frozen := rev.Clone().Freeze()
	frozen.Tuples() // the server writes stored cubes, whose order is cached by the run
	var err error
	m := metricSet{}
	m["store.csv_read_ms"] = c.call("store.ReadCSV", callRepeats, func() {
		if _, rerr := store.ReadCSV(bytes.NewReader(body), rev.Schema()); rerr != nil {
			err = rerr
		}
	})
	m["store.csv_write_ms"] = c.call("store.WriteCSV", callRepeats, func() {
		if werr := store.WriteCSV(io.Discard, frozen); werr != nil {
			err = werr
		}
	})
	return m, err
}

// targetCalls runs the whole GDP program on each target in turn: the
// paper's claim is that the assigned target is the fittest for its
// fragment, and these four numbers are what that claim rests on.
func targetCalls(c caller, in *inputs, runs int) (metricSet, error) {
	eng := engine.New(engine.WithCompileCache(engine.NewCompileCache(4)))
	if err := eng.RegisterProgram(in.programID, in.program); err != nil {
		return nil, err
	}
	for _, cube := range in.finalInputs() {
		if err := eng.PutCube(cube, day0); err != nil {
			return nil, err
		}
	}
	m := metricSet{}
	at := day0
	for _, t := range []ops.Target{ops.TargetSQL, ops.TargetETL, ops.TargetFrame, ops.TargetChase} {
		var err error
		m["target."+string(t)+"_ms"] = c.call("engine.Run."+string(t), runs, func() {
			at = at.Add(time.Hour)
			if _, rerr := eng.Run(c.ctx, engine.RunOn(t), engine.RunAt(at)); rerr != nil {
				err = rerr
			}
		})
		if err != nil {
			return nil, fmt.Errorf("run on %s: %w", t, err)
		}
	}
	return m, eng.Shutdown(context.Background())
}

// chaseScaling runs one full chase of the panel program at each size and
// returns the exponent e of time ∝ tuples^e, the least-squares slope in
// log-log space. A chase that is linear in its input has e = 1.
func chaseScaling(c caller, seed int64, sizes []int, regions int) (float64, error) {
	mp, err := compileMapping(panelProgram)
	if err != nil {
		return 0, err
	}
	var xs, ys []float64
	for _, n := range sizes {
		in := genPanel(seed, n/regions, regions, 1, false)
		src := chase.Instance{"S": in.base["S"]}
		var serr error
		t := c.call(fmt.Sprintf("chase.Solve.%d", n), 1, func() { _, serr = chase.New(mp).SolveContext(c.ctx, src) })
		if serr != nil {
			return 0, serr
		}
		xs = append(xs, math.Log(float64(n)))
		ys = append(ys, math.Log(t))
	}
	return slope(xs, ys), nil
}

// slope is the least-squares slope of y over x.
func slope(xs, ys []float64) float64 {
	mx, my := sum(xs)/float64(len(xs)), sum(ys)/float64(len(ys))
	var num, den float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	return ratio(num, den)
}
