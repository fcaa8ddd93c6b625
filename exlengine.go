// Package exlengine is a Go implementation of EXLEngine (Atzeni,
// Bellomarini, Bugiotti — EDBT 2013): executable schema mappings for
// statistical data processing.
//
// Statistical programs are written in EXL, a declarative expression
// language over dimensional cubes. Each program is translated into a
// schema mapping — extended tuple-generating dependencies plus
// functionality egds forming a data-exchange setting — and the mapping is
// translated into executables for several target systems: an in-memory
// SQL database, a data-frame engine standing in for R/Matlab (with R and
// Matlab source printers), and a streaming ETL engine. A stratified chase
// provides the reference data-exchange semantics every target is validated
// against.
//
// The top-level entry point is the Engine, which mirrors the paper's
// architecture: a metadata catalog of cubes and programs, a determination
// engine that decides what to recalculate when elementary cubes change, a
// translation engine producing the mappings and their executables offline,
// and a dispatcher running each subgraph on its preferred target.
//
//	eng := exlengine.New()
//	_ = eng.RegisterProgram("gdp", gdpSource)
//	_ = eng.PutCube(pdr, time.Now())
//	_ = eng.PutCube(rgdppc, time.Now())
//	report, _ := eng.Run(context.Background())
//	gdp, _ := eng.Cube("GDP")
//
// Runs are observable: attach a Tracer and a Metrics registry and every
// phase — compile, determination, per-fragment dispatch with its
// fallbacks, target execution — records spans and counters.
//
//	tr, mx := exlengine.NewTracer(), exlengine.NewMetrics()
//	eng := exlengine.New(exlengine.WithTracer(tr), exlengine.WithMetrics(mx))
//	// ... register, load, run ...
//	exlengine.WriteTraceTree(os.Stderr, tr)
//	mx.WriteText(os.Stderr)
package exlengine

import (
	"context"
	"io"

	"exlengine/internal/backend"
	"exlengine/internal/dispatch"
	"exlengine/internal/engine"
	"exlengine/internal/exl"
	"exlengine/internal/exlerr"
	"exlengine/internal/governor"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
)

// Core engine types.
type (
	// Engine is a complete EXLEngine instance: catalog, determination,
	// translation and dispatch over a versioned cube store.
	Engine = engine.Engine
	// Option configures an Engine.
	Option = engine.Option
	// RunOption configures one Engine.Run call.
	RunOption = engine.RunOption
	// Report describes what a run recalculated and where, including the
	// fault-tolerance record (attempts, fallbacks).
	Report = engine.Report
	// SubgraphInfo is one dispatched fragment of a run.
	SubgraphInfo = engine.SubgraphInfo
)

// Observability types.
type (
	// Tracer collects span trees from traced compilations and runs.
	Tracer = obs.Tracer
	// Span is one node of a trace: a named, timed pipeline step.
	Span = obs.Span
	// Metrics is a registry of counters, gauges and latency histograms.
	Metrics = obs.Registry
	// Attr is one key/value span attribute.
	Attr = obs.Attr
)

// NewTracer returns an empty tracer, ready to pass to WithTracer or
// CompileTraced.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetrics returns an empty metrics registry, ready to pass to
// WithMetrics.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// WriteTraceTree renders the tracer's spans as an indented tree, one
// line per span with duration, attributes and error class.
func WriteTraceTree(w io.Writer, t *Tracer) error { return obs.WriteTree(w, t) }

// WriteTraceJSONL writes the tracer's spans as JSON Lines, one span
// object per line in pre-order.
func WriteTraceJSONL(w io.Writer, t *Tracer) error { return obs.WriteJSONL(w, t) }

// Observability options.
var (
	// WithTracer attaches a tracer to every compile and run of an engine.
	WithTracer = engine.WithTracer
	// WithMetrics attaches a metrics registry to every run of an engine.
	WithMetrics = engine.WithMetrics
)

// Run options for Engine.Run.
var (
	// RunChanged restricts the run to the consequences of changed cubes.
	RunChanged = engine.RunChanged
	// RunAt stamps the run's results with an explicit version timestamp.
	RunAt = engine.RunAt
	// RunOn forces the whole run onto one fixed target system.
	RunOn = engine.RunOn
)

// Fault-tolerance types.
type (
	// FragmentReport records every attempt and fallback of one fragment.
	FragmentReport = dispatch.FragmentReport
	// Attempt is the one execution attempt of a fragment on a target.
	Attempt = dispatch.Attempt
	// ErrorClass partitions failures: Fatal, EgdViolation, Overload.
	ErrorClass = exlerr.Class
)

// Failure classes of the error taxonomy.
const (
	Fatal        = exlerr.Fatal
	EgdViolation = exlerr.EgdViolation
	// Overload marks runs rejected by the resource governor (queue full,
	// deadline unmeetable, memory budget exceeded, or shutting down).
	Overload = exlerr.Overload
)

// IsOverload reports whether err is an overload rejection — the typed
// shed an engine under admission control or a memory budget returns
// instead of degrading unpredictably.
func IsOverload(err error) bool { return exlerr.IsOverload(err) }

// Fault-tolerance options.
var (
	// WithoutDegradation disables fallback re-routing of failed fragments.
	WithoutDegradation = engine.WithoutDegradation
	// WithFragmentTimeout bounds each fragment attempt; one that outlives
	// it degrades to the next permitted target.
	WithFragmentTimeout = engine.WithFragmentTimeout
)

// Resource-governance options. The governor is the engine's overload
// armor: admission control with a bounded queue, a memory budget charged
// at cube materialization, and graceful shutdown (Engine.Shutdown stops
// admission, drains in-flight runs and closes the store).
var (
	// MaxConcurrentRuns caps how many runs execute at once; excess
	// admission requests queue, then shed with typed overload errors.
	MaxConcurrentRuns = engine.MaxConcurrentRuns
	// MemoryBudget bounds the bytes concurrent runs may reserve for cube
	// materialization; a run that does not fit degrades to sequential
	// dispatch before being rejected.
	MemoryBudget = engine.MemoryBudget
)

// Typed overload rejections returned by governed runs.
var (
	// ErrQueueFull: the admission queue was at capacity.
	ErrQueueFull = governor.ErrQueueFull
	// ErrDeadline: the caller's deadline could not be met.
	ErrDeadline = governor.ErrDeadline
	// ErrShuttingDown: the engine is draining for shutdown.
	ErrShuttingDown = governor.ErrShuttingDown
	// ErrMemoryBudget: the run did not fit the memory budget.
	ErrMemoryBudget = governor.ErrMemoryBudget
)

// Data model types.
type (
	// Schema describes a cube: identifier, typed dimensions, measure.
	Schema = model.Schema
	// Dim is a named, typed cube dimension.
	Dim = model.Dim
	// DimType is a dimension type (string, int, or a time frequency).
	DimType = model.DimType
	// Cube is an in-memory cube instance (a partial function from
	// dimension tuples to a numeric measure).
	Cube = model.Cube
	// Tuple is one cube tuple.
	Tuple = model.Tuple
	// Value is a dynamically typed dimension value.
	Value = model.Value
	// Period is a typed time period (day, month, quarter, year).
	Period = model.Period
	// Frequency is a time-period frequency.
	Frequency = model.Frequency
)

// Mapping types.
type (
	// Mapping is a generated schema mapping M = (S, T, Σst, Σt).
	Mapping = mapping.Mapping
	// Tgd is an extended tuple-generating dependency.
	Tgd = mapping.Tgd
	// Egd is a functionality equality-generating dependency.
	Egd = mapping.Egd
)

// Target identifies an execution target system.
type Target = ops.Target

// Execution targets.
const (
	TargetChase = ops.TargetChase
	TargetSQL   = ops.TargetSQL
	TargetETL   = ops.TargetETL
	TargetFrame = ops.TargetFrame
)

// Artifact kinds accepted by Engine.Translate.
const (
	ArtifactTgds   = backend.ArtifactTgds
	ArtifactSQL    = backend.ArtifactSQL
	ArtifactR      = backend.ArtifactR
	ArtifactMatlab = backend.ArtifactMatlab
	ArtifactETL    = backend.ArtifactETL
)

// Dimension type constructors.
var (
	TString  = model.TString
	TInt     = model.TInt
	TDay     = model.TDay
	TMonth   = model.TMonth
	TQuarter = model.TQuarter
	TYear    = model.TYear
)

// New returns an empty engine.
func New(opts ...Option) *Engine { return engine.New(opts...) }

// WithParallelDispatch enables concurrent execution of independent
// subgraphs during runs.
func WithParallelDispatch() Option { return engine.WithParallelDispatch() }

// NewSchema builds a cube schema; an empty measure name defaults to
// "value".
func NewSchema(name string, dims []Dim, measure string) Schema {
	return model.NewSchema(name, dims, measure)
}

// NewCube returns an empty cube instance for the schema.
func NewCube(sch Schema) *Cube { return model.NewCube(sch) }

// Value constructors.
var (
	Num  = model.Num
	Str  = model.Str
	Int  = model.Int
	Per  = model.Per
	Bool = model.Bool
)

// Period constructors.
var (
	NewDaily     = model.NewDaily
	NewMonthly   = model.NewMonthly
	NewQuarterly = model.NewQuarterly
	NewAnnual    = model.NewAnnual
	ParsePeriod  = model.ParsePeriod
)

// compileConfig collects the settings of one Compile call.
type compileConfig struct {
	fusion bool
	tracer *Tracer
}

// CompileOption configures one Compile call.
type CompileOption func(*compileConfig)

// WithoutFusion disables the fusion pass: every statement is decomposed
// into single-operator tgds over auxiliary cubes (the paper's normalized
// translation).
func WithoutFusion() CompileOption {
	return func(c *compileConfig) { c.fusion = false }
}

// CompileTraced records the compilation's span tree (compile →
// parse/analyze/generate) into t.
func CompileTraced(t *Tracer) CompileOption {
	return func(c *compileConfig) { c.tracer = t }
}

// Compile parses and analyzes an EXL program (with optional external cube
// schemas) and generates its schema mapping — the paper's Section 4
// pipeline without execution, fused unless WithoutFusion is given. Use it
// to inspect tgds or feed the translators directly.
//
// Results are cached process-wide, keyed by (program text, external-schema
// fingerprint, fusion): recompiling an unchanged program is a map lookup,
// and the returned mapping is shared — treat it as read-only.
func Compile(src string, external map[string]Schema, opts ...CompileOption) (*Mapping, error) {
	cfg := compileConfig{fusion: true}
	for _, o := range opts {
		o(&cfg)
	}
	ctx := context.Background()
	if cfg.tracer != nil {
		ctx = obs.ContextWithTracer(ctx, cfg.tracer)
	}
	ctx, span := obs.StartSpan(ctx, "compile", obs.Bool("fusion", cfg.fusion))
	c, err := engine.CompileCached(ctx, src, external, cfg.fusion)
	span.EndErr(err)
	if err != nil {
		return nil, err
	}
	return c.Mapping, nil
}

// Validate parses and type-checks an EXL program without generating a
// mapping — the check the paper's IDE tools run while statisticians type.
// It returns nil when the program is well-formed against the external
// schemas.
func Validate(src string, external map[string]Schema) error {
	prog, err := exl.Parse(src)
	if err != nil {
		return err
	}
	_, err = exl.Analyze(prog, external)
	return err
}
