package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"exlengine/internal/obs"
)

// metricDef names a metric and its unit. BENCHMARK.json carries the same
// names, the directions and the regression bounds; bench_test.go checks
// that the two lists agree.
type metricDef struct {
	Name string
	Unit string
}

// endToEndDefs are the metrics a user of the system sees, measured with
// tracing off.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"src_tuples_per_s", "tuples/s"},
	{"alloc_mb_per_op", "MB"},
	{"live_heap_mb", "MB"},
}

// perLayerDefs are the per-layer metrics of the traced pass, grouped by the
// module they measure. A metric a workload does not exercise reads 0.
var perLayerDefs = []metricDef{
	// compile path, per epoch set-up
	{"exl.parse_ms", "ms"}, {"exl.analyze_ms", "ms"}, {"mapping.generate_ms", "ms"},
	{"engine.compile_ms", "ms"}, {"mapping.tgds", "count"},
	// determination, per op
	{"determine.plan_ms", "ms"}, {"determine.plan_cubes", "count"},
	{"determine.subgraphs", "count"}, {"engine.skipped_cubes", "count"},
	// engine bookkeeping
	{"engine.run_self_ms", "ms"}, {"store.snapshot_ms", "ms"}, {"model.memestimate_ms", "ms"},
	// store and cube model
	{"store.put_ms", "ms"}, {"store.delta_ms", "ms"}, {"store.delta_tuples", "count"},
	{"model.diff_ms", "ms"}, {"model.diff_tuples", "count"}, {"model.clone_ms", "ms"},
	{"model.sort_ms", "ms"}, {"model.bytes_per_tuple", "B/tuple"},
	// dispatch
	{"dispatch.ms", "ms"}, {"dispatch.self_ms", "ms"}, {"dispatch.fragments", "count"},
	{"dispatch.retries", "count"}, {"dispatch.fallbacks", "count"}, {"dispatch.incr_fellback_share", "ratio"},
	// SQL backend
	{"sqlengine.load_ms", "ms"}, {"sqlengine.exec_ms", "ms"}, {"sqlengine.extract_ms", "ms"},
	{"sqlgen.translate_ms", "ms"}, {"sqlengine.analyze_ms", "ms"}, {"sqlengine.marshal_share", "ratio"},
	{"sqlengine.rows_loaded", "count"}, {"sqlengine.rows_extracted", "count"},
	{"sqlengine.batches", "count"}, {"sqlengine.op_rows", "count"},
	// chase
	{"chase.solve_ms", "ms"}, {"chase.ns_per_binding", "ns"}, {"chase.tuples_out", "count"},
	{"chase.full_scaling_exp", "ratio"}, {"chase.incr_ms", "ms"}, {"chase.incr_delta_tuples", "count"},
	// the other targets
	{"etl.flow_ms", "ms"}, {"frame.program_ms", "ms"},
	{"target.sql_ms", "ms"}, {"target.etl_ms", "ms"}, {"target.frame_ms", "ms"}, {"target.chase_ms", "ms"},
	// persistence
	{"engine.persist_ms", "ms"}, {"durable.commit_p50_ms", "ms"}, {"durable.commit_max_ms", "ms"},
	{"durable.compact_ms", "ms"}, {"durable.compactions", "count"}, {"durable.recover_ms", "ms"},
	{"durable.write_bytes", "B"}, {"durable.write_calls", "count"}, {"durable.fsyncs", "count"},
	{"durable.snapshot_bytes", "B"}, {"durable.dir_bytes", "B"}, {"durable.write_amp", "ratio"},
	// HTTP server
	{"server.put_p50_ms", "ms"}, {"server.run_p50_ms", "ms"}, {"server.get_p50_ms", "ms"},
	{"server.hop_ms", "ms"}, {"server.session_open_ms", "ms"},
	{"server.csv_in_bytes", "B"}, {"server.csv_out_bytes", "B"},
	{"server.overload", "count"}, {"server.errors", "count"},
	{"store.csv_read_ms", "ms"}, {"store.csv_write_ms", "ms"},
	{"governor.queue_wait_ms", "ms"}, {"governor.shed", "count"}, {"governor.mem_peak_mb", "MB"},
	// tracing, runtime, harness
	{"obs.trace_overhead_pct", "%"}, {"obs.spans_per_op", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.gc_cpu_share", "ratio"},
	{"runtime.peak_heap_mb", "MB"}, {"runtime.mallocs_per_op", "count"},
	{"harness.gen_s", "s"}, {"harness.calib_ms", "ms"},
}

// metricSet maps metric names to values.
type metricSet map[string]float64

// metricValue is one metric as printed and as written to result files.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render returns the defined metrics with their units, failing on a value
// that was not produced or is not finite: a hole must not pass for a zero.
func render(defs []metricDef, vals metricSet) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not produced", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not defined", name)
		}
	}
	return out, nil
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.Name, vals[d.Name].Value, d.Unit)
	}
}

// regSnapshot is a point-in-time copy of an obs.Registry, read through its
// JSON export (the same bytes GET /v1/metrics?format=json serves).
type regSnapshot struct {
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
	Histograms map[string]struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

func parseRegistry(raw []byte) (regSnapshot, error) {
	var s regSnapshot
	err := json.Unmarshal(raw, &s)
	return s, err
}

func snapshotRegistry(r *obs.Registry) regSnapshot {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	s, err := parseRegistry(buf.Bytes())
	if err != nil {
		panic(err) // the registry's own export
	}
	return s
}

// counter sums every counter whose name is name or name{labels}.
func (s regSnapshot) counter(name string) int64 {
	var n int64
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			n += v
		}
	}
	return n
}
