// Package obs is EXLEngine's zero-dependency observability layer:
// tracing spans propagated through context.Context, and a lock-cheap
// metrics registry of counters, gauges and histograms.
//
// The design goal is that observability is free when it is off. Every
// entry point is nil-safe: a context without a Tracer makes StartSpan
// return a nil *Span whose methods no-op, and a nil *Registry hands out
// nil instruments whose methods no-op, so instrumented code never has to
// branch on "is tracing enabled" and the fault-free hot path pays only a
// handful of context lookups (BenchmarkTracedRun keeps this honest).
//
// Spans form a tree: StartSpan opens a child of the context's current
// span (or a new root) and returns a derived context carrying the new
// span, so nested pipeline stages — compile, determination, translation,
// dispatch attempts, target execution — nest automatically. Exporters
// consume the finished tree: WriteTree renders a human-readable indented
// tree, WriteJSONL emits one JSON object per span.
package obs

import (
	"context"
	"strconv"
	"strings"
	"time"
)

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	metricsKey
)

// ContextWithTracer returns a context carrying the tracer. Spans started
// from the returned context (and its descendants) are recorded in t. A
// nil tracer returns ctx unchanged.
func ContextWithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the tracer carried by the context, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// ContextWithMetrics returns a context carrying the metrics registry. A
// nil registry returns ctx unchanged.
func ContextWithMetrics(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, metricsKey, r)
}

// MetricsFrom returns the metrics registry carried by the context, or
// nil. A nil registry is safe to use: its instruments no-op.
func MetricsFrom(ctx context.Context) *Registry {
	r, _ := ctx.Value(metricsKey).(*Registry)
	return r
}

// StartSpan opens a span named name under the context's current span (or
// as a root span) and returns a derived context in which the new span is
// current. Without a tracer in the context it returns ctx unchanged and a
// nil span, whose methods all no-op.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey).(*Span)
	s := t.start(name, parent, attrs)
	return context.WithValue(ctx, spanKey, s), s
}

// CurrentSpan returns the innermost span carried by the context, or nil.
// Use it to annotate an enclosing span from deeper in the call stack.
func CurrentSpan(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// Attr is one key/value attribute of a span. Values are pre-rendered
// strings so exports need no reflection.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// String builds a string attribute.
func String(key, val string) Attr { return Attr{Key: key, Val: val} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Val: strconv.Itoa(v)} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, Val: strconv.FormatBool(v)} }

// Dur builds a duration attribute.
func Dur(key string, d time.Duration) Attr { return Attr{Key: key, Val: d.String()} }

// Strings builds a comma-joined list attribute.
func Strings(key string, vals []string) Attr {
	return Attr{Key: key, Val: strings.Join(vals, ",")}
}

// Float builds a float attribute with a compact rendering.
func Float(key string, v float64) Attr {
	return Attr{Key: key, Val: strconv.FormatFloat(v, 'g', -1, 64)}
}

// Label renders a metric name with label pairs in a fixed order:
// name{k1=v1,k2=v2}. Instruments are keyed by the rendered string, so the
// same pairs in the same order always address the same instrument.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Canonical metric names recorded by the engine and dispatcher. Labelled
// variants are rendered with Label (e.g. dispatch_fragments_total{target=sql}).
const (
	// MetricRuns counts Engine.Run invocations.
	MetricRuns = "engine_runs_total"
	// MetricRunErrors counts runs that returned an error.
	MetricRunErrors = "engine_run_errors_total"
	// MetricFragments counts fragments completed, labelled by the target
	// that finally executed them.
	MetricFragments = "dispatch_fragments_total"
	// MetricFallbacks counts fallback targets tried after a target
	// failed.
	MetricFallbacks = "dispatch_fallbacks_total"
	// MetricEgdViolations counts attempts that failed on a functionality
	// egd violation.
	MetricEgdViolations = "dispatch_egd_violations_total"
	// MetricPanics counts attempts that ended in a recovered panic.
	MetricPanics = "dispatch_panics_total"
	// MetricTuplesRead counts tuples read by successful fragment
	// executions, labelled by target.
	MetricTuplesRead = "target_tuples_read_total"
	// MetricTuplesWritten counts tuples produced by successful fragment
	// executions, labelled by target.
	MetricTuplesWritten = "target_tuples_written_total"
	// MetricTargetLatency is a per-target histogram of successful
	// fragment execution latencies, in milliseconds.
	MetricTargetLatency = "target_latency_ms"
	// MetricStoreWALBytes counts bytes appended to the durable store's
	// write-ahead log (record framing included).
	MetricStoreWALBytes = "store_wal_bytes_total"
	// MetricStoreWALDeltaCubes counts cube versions the durable store
	// logged as deltas from the version they superseded instead of in full.
	MetricStoreWALDeltaCubes = "store_wal_delta_cubes_total"
	// MetricStoreWALRecords counts commit records appended to the WAL.
	MetricStoreWALRecords = "store_wal_records_total"
	// MetricStoreFsyncs counts fsync calls issued by the durable store's
	// WAL; with group commit, one fsync may cover several commits.
	MetricStoreFsyncs = "store_fsyncs_total"
	// MetricStoreSegments counts segment snapshots written (recovery
	// snapshots and compactions).
	MetricStoreSegments = "store_segments_total"
	// MetricStoreRecoveryMS is the wall time the last Open spent
	// recovering the store, in milliseconds.
	MetricStoreRecoveryMS = "store_recovery_ms"
	// MetricStoreTruncatedRecords counts torn or corrupt WAL tails cut
	// off during recovery.
	MetricStoreTruncatedRecords = "store_wal_truncated_records_total"
	// MetricAdmitted counts runs admitted by the governor (immediately or
	// after queueing).
	MetricAdmitted = "governor_admitted_total"
	// MetricShed counts runs rejected by the governor, labelled by reason
	// (queue_full, deadline, memory, shutdown).
	MetricShed = "governor_shed_total"
	// MetricQueueDepth is the current number of runs waiting for an
	// admission slot.
	MetricQueueDepth = "governor_queue_depth"
	// MetricInFlight is the current number of admitted, unreleased runs.
	MetricInFlight = "governor_inflight_runs"
	// MetricQueueWait is a histogram of admission queue wait times in
	// milliseconds (admitted runs only).
	MetricQueueWait = "governor_queue_wait_ms"
	// MetricMemReserved is the memory currently reserved against the
	// process-wide budget, in bytes.
	MetricMemReserved = "governor_mem_reserved_bytes"
	// MetricMemPeak is the high-water mark of reserved memory, in bytes.
	// Under a configured budget it never exceeds the budget.
	MetricMemPeak = "governor_mem_peak_bytes"
	// MetricMemDegraded counts runs degraded (waves run one fragment at a
	// time) to fit the memory budget instead of being rejected.
	MetricMemDegraded = "governor_mem_degraded_total"
	// MetricSQLRuleApplies counts analyzer rule applications that changed
	// the plan, labelled by rule.
	MetricSQLRuleApplies = "sql_analyzer_rule_applies_total"
	// MetricSQLOpRows counts rows emitted by vectorized executor
	// operators, labelled by operator kind.
	MetricSQLOpRows = "sql_operator_rows_total"
	// MetricSQLBatches counts columnar batches emitted by vectorized
	// executor operators, labelled by operator kind.
	MetricSQLBatches = "sql_operator_batches_total"
	// MetricPartitionsBuilt counts groupings of a key set's rows that an
	// aggregation (SQL GROUP BY, a chase aggregation tgd) assigned key by key
	// and handed to the key set.
	MetricPartitionsBuilt = "keyset_partitions_built_total"
	// MetricPartitionsReused counts aggregations that took every row's group
	// from the partition the key set already held.
	MetricPartitionsReused = "keyset_partitions_reused_total"
	// MetricIncrFragments counts fragments maintained incrementally from
	// input deltas, labelled by the target that ran them.
	MetricIncrFragments = "dispatch_incremental_fragments_total"
	// MetricIncrFellBack counts fragments that were asked to run
	// incrementally but fell back to a full recompute, labelled by target.
	MetricIncrFellBack = "dispatch_incremental_fellback_total"
	// MetricIncrDeltaTuples counts input delta tuples propagated into
	// incremental fragments — the data an incremental run actually moved.
	MetricIncrDeltaTuples = "incremental_delta_tuples_total"
	// MetricIncrFullTuples counts the full size of the changed input
	// relations those deltas replaced; the ratio against
	// MetricIncrDeltaTuples is the data-movement saving.
	MetricIncrFullTuples = "incremental_full_tuples_total"
	// MetricIncrSkippedCubes counts derived cubes skipped by incremental
	// runs because the provenance of their stored versions was current.
	MetricIncrSkippedCubes = "engine_incremental_skipped_cubes_total"
)
