// Package engine implements the EXLEngine orchestrator of Section 6: a
// metadata-driven system in which cube definitions and EXL programs guide
// the runtime behaviour. Statisticians' programs are registered and
// validated; the determination engine decides what must be calculated when
// elementary cubes change; the translation engine turns the affected
// statements into schema mappings (offline, so metadata handling does not
// affect calculation time); and the dispatcher executes each subgraph on
// its target engine, with results flowing back into the versioned store.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"sort"
	"sync"
	"time"

	"exlengine/internal/backend"
	"exlengine/internal/chase"
	"exlengine/internal/determine"
	"exlengine/internal/dispatch"
	"exlengine/internal/exl"
	"exlengine/internal/governor"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
	"exlengine/internal/store"
)

// CubeStore is the storage contract the engine runs against: a
// versioned cube repository with zero-copy snapshot reads, atomic
// multi-cube writes, per-cube generation stamps and diffs against
// historical generations. The in-memory store.Store is the default; the
// durable store (internal/store/durable) implements the same contract
// with a write-ahead log and segment snapshots, so persistence is
// swappable behind this one interface.
type CubeStore interface {
	// Declare registers a cube schema; re-declaring identical
	// dimensions is a no-op.
	Declare(sch model.Schema) error
	// Schema returns the declared schema of a cube.
	Schema(name string) (model.Schema, bool)
	// Names returns the declared cube names, sorted.
	Names() []string
	// Put stores a new version of the cube, valid from asOf.
	Put(c *model.Cube, asOf time.Time) error
	// PutAllGen stores a version of every cube atomically — all visible
	// or none, the guarantee Run's persist step relies on — and returns
	// the write generation the commit happened at, with what a durable
	// store logged for it. deltas may say, per cube, how the new version
	// differs from the one it supersedes; the store checks that claim by
	// the identity of the cubes at both ends, never by trust, and then
	// logs and keeps the delta instead of diffing (see store.PutAllGen).
	// provs records what each version was computed from.
	PutAllGen(cubes map[string]*model.Cube, deltas map[string]*model.CubeDelta, provs map[string]*store.Provenance, asOf time.Time) (store.Commit, error)
	// Get returns the current version of the cube, frozen and shared.
	Get(name string) (*model.Cube, bool)
	// GetAsOf returns the version valid at instant t.
	GetAsOf(name string, t time.Time) (*model.Cube, bool)
	// SnapshotWithGenerations returns, atomically, the current version
	// of every cube, the write generation the snapshot was taken at, the
	// generation each cube's current version was written at, and the
	// provenance of each current version that has one.
	SnapshotWithGenerations() (map[string]*model.Cube, uint64, map[string]uint64, map[string]*store.Provenance)
	// Delta diffs a cube's current version against the version that was
	// visible at sinceGen. It returns store.ErrDeltaUnavailable (wrapped)
	// when history no longer supports the reconstruction.
	Delta(name string, sinceGen uint64) (*model.CubeDelta, error)
	// Generation returns the store's write generation.
	Generation() uint64
}

// DeltaStore is CubeStore under the name bench/ declares its stores by.
type DeltaStore = CubeStore

// Engine is a complete EXLEngine instance.
type Engine struct {
	// mu guards the metadata catalog (programs, mappings, graph) and the
	// engine configuration. Runs snapshot that state under the lock and
	// then dispatch outside it, so admitted runs execute concurrently —
	// the governor, not this mutex, bounds run concurrency.
	mu       sync.Mutex
	store    CubeStore
	mappings map[string]*mapping.Mapping // per program, carrying the analyzed program
	stmts    map[string]statement        // per derived cube of every program
	graph    *determine.Graph
	disp     dispatch.Dispatcher
	tracer   *obs.Tracer
	metrics  *obs.Registry
	gov      *governor.Governor
	govCfg   governor.Config // accumulated by governor options until New builds gov

	storeClosed bool // Shutdown closed the store already
}

// Option configures an Engine.
type Option func(*Engine)

// WithStore substitutes the engine's cube store — e.g. a crash-safe
// durable store opened with durable.Open. The default is a fresh
// in-memory store.Store. The engine takes ownership of writes: every
// run's results are persisted through the store's atomic PutAllGen.
func WithStore(s CubeStore) Option {
	return func(e *Engine) {
		if s != nil {
			e.store = s
		}
	}
}

// WithoutDegradation disables fallback re-routing: a fragment whose
// target fails fails the run instead of being re-run on another
// permitted target.
func WithoutDegradation() Option {
	return func(e *Engine) { e.disp.Degrade = false }
}

// WithFragmentTimeout bounds each fragment attempt; an attempt that
// outlives it degrades to the next permitted target.
func WithFragmentTimeout(d time.Duration) Option {
	return func(e *Engine) { e.disp.FragmentTimeout = d }
}

// WithDispatchMiddleware wraps fragment execution, outermost first —
// the hook the fault-injection harness (internal/faults) uses.
func WithDispatchMiddleware(mw ...dispatch.Middleware) Option {
	return func(e *Engine) { e.disp.Middleware = append(e.disp.Middleware, mw...) }
}

// WithTracer attaches a tracer: every compilation and run records a span
// tree (compile → parse/analyze/generate, run → determine → dispatch →
// fragments → attempts → target internals). A nil tracer is ignored.
func WithTracer(t *obs.Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// WithMetrics attaches a metrics registry: runs, fragments per target,
// fallbacks, tuples moved and per-target latency histograms accumulate
// there. A nil registry is ignored.
func WithMetrics(m *obs.Registry) Option {
	return func(e *Engine) { e.metrics = m }
}

// MaxConcurrentRuns bounds how many runs execute at once; up to 4×n
// further runs queue for admission in FIFO order, and runs past those are
// shed with typed exlerr.Overload errors. Zero or negative: unlimited.
func MaxConcurrentRuns(n int) Option {
	return func(e *Engine) { e.govCfg.MaxConcurrent = n }
}

// MemoryBudget bounds the process-wide bytes of cube materialization
// reserved by concurrent runs; a run whose estimate does not fit but half
// of it does runs its waves one fragment at a time, and a run that does
// not fit even so is rejected with a typed overload error. Zero or
// negative: unlimited.
func MemoryBudget(bytes int64) Option {
	return func(e *Engine) { e.govCfg.MemoryBudget = bytes }
}

// New returns an empty engine. Degradation is on by default: a fragment
// whose target fails is re-run on the next target the operator-support
// matrix permits.
func New(opts ...Option) *Engine {
	e := &Engine{
		store:    store.New(),
		mappings: make(map[string]*mapping.Mapping),
	}
	e.disp.Degrade = true
	for _, o := range opts {
		o(e)
	}
	// Unconfigured engines still get a zero-bound governor so Shutdown
	// can drain in-flight runs.
	e.gov = governor.New(e.govCfg, e.metrics)
	return e
}

// Metrics returns the registry attached with WithMetrics, or nil. Every
// instrument of this engine — runs, dispatch, governor, store — lands
// there, so a per-tenant engine's registry is that tenant's whole
// metrics scope.
func (e *Engine) Metrics() *obs.Registry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.metrics
}

// Tracer returns the tracer attached with WithTracer, or nil.
func (e *Engine) Tracer() *obs.Tracer {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tracer
}

// DeclareCube registers an elementary cube schema in the metadata catalog.
func (e *Engine) DeclareCube(sch model.Schema) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store.Declare(sch)
}

// ErrProgramRegistered reports a RegisterProgram under a name that is
// already taken. The returned error wraps it with the program name, so
// callers classify with errors.Is rather than matching message text.
var ErrProgramRegistered = errors.New("already registered")

// ErrCubeNotDeclared reports a reference to a cube name absent from the
// catalog: no declaration and no registered program derives it. Wrapped
// with the cube name; classify with errors.Is.
var ErrCubeNotDeclared = errors.New("not declared")

// RegisterProgram parses, analyzes and translates an EXL program, adding
// its cubes to the global dependency graph. A program may reference cubes
// declared in the catalog or derived by previously registered programs.
// Translation to schema mappings happens here, offline — "the system
// decouples their computational time from the one of the actual
// statistical calculation".
func (e *Engine) RegisterProgram(name, src string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	ctx := context.Background()
	if e.tracer != nil {
		ctx = obs.ContextWithTracer(ctx, e.tracer)
	}
	if e.metrics != nil {
		ctx = obs.ContextWithMetrics(ctx, e.metrics)
	}
	ctx, span := obs.StartSpan(ctx, "compile", obs.String("program", name))
	err := e.registerLocked(ctx, name, src)
	span.EndErr(err)
	return err
}

// registerLocked is RegisterProgram behind the compile span; e.mu held.
func (e *Engine) registerLocked(ctx context.Context, name, src string) error {
	if _, dup := e.mappings[name]; dup {
		return fmt.Errorf("engine: program %s %w", name, ErrProgramRegistered)
	}
	external := make(map[string]model.Schema)
	for _, n := range e.store.Names() {
		sch, _ := e.store.Schema(n)
		external[n] = sch
	}
	// A cube is owned by a registered program when the program derives it
	// or declares it in its own source. A cube that only reached the graph
	// as a stored one some program was handed is nobody's.
	owned := make(map[string]bool)
	if e.graph != nil {
		for n, sch := range e.graph.Schemas() {
			external[n] = sch
		}
		for _, n := range e.graph.Derived() {
			owned[n] = true
		}
	}
	for _, m := range e.mappings {
		for _, d := range m.Analyzed.Program.Decls {
			owned[d.Name] = true
		}
	}
	prog, err := parse(ctx, src)
	if err != nil {
		return err
	}
	// A durable store can already hold this program's own cubes from a
	// prior process run. Names the program defines itself — declarations
	// and statement left-hand sides — are removed from the external set
	// so re-registration against a persisted catalog is idempotent.
	// Cubes owned by another registered program stay external and still
	// conflict; schema agreement with the persisted catalog is enforced
	// by the Declare pass below.
	for _, d := range prog.Decls {
		if !owned[d.Name] {
			delete(external, d.Name)
		}
	}
	for _, s := range prog.Stmts {
		if !owned[s.Lhs] {
			delete(external, s.Lhs)
		}
	}
	// Every engine compiles its programs itself, once: the mapping is then
	// shared read-only by every run and every fragment of one.
	m, err := generate(ctx, prog, external, true)
	if err != nil {
		return err
	}
	// Analyze has rejected a declaration of a cube the catalog already
	// holds: elementary cubes are owned by the metadata catalog, derived
	// ones by their defining program.
	a := m.Analyzed
	candidate := make(map[string]*exl.Analyzed, len(e.mappings)+1)
	for k, v := range e.mappings {
		candidate[k] = v.Analyzed
	}
	candidate[name] = a
	_, dspan := obs.StartSpan(ctx, "graph")
	graph, err := determine.Build(candidate)
	dspan.EndErr(err)
	if err != nil {
		return err
	}

	// Commit: declare every cube schema in the store.
	for cubeName, sch := range a.Schemas {
		if err := e.store.Declare(sch.Rename(cubeName)); err != nil {
			return err
		}
	}
	stmts := make(map[string]statement, len(e.stmts)+len(m.Derived))
	maps.Copy(stmts, e.stmts)
	byCube := make(map[string][]*mapping.Tgd, len(m.Derived))
	for _, t := range m.Tgds {
		byCube[t.Stmt] = append(byCube[t.Stmt], t)
	}
	for cube, tgds := range byCube {
		stmts[cube] = statement{tgds: tgds, print: stmtPrint(tgds)}
	}
	e.mappings[name] = m
	e.stmts = stmts
	e.graph = graph
	return nil
}

// statement is what a run takes of a derived cube's statement: its tgds,
// auxiliaries included, in stratification order, and their fingerprint
// (stmtPrint), which the provenance of every version it computes records.
// A registration computes both once and swaps the whole map, which runs
// share read-only.
type statement struct {
	tgds  []*mapping.Tgd
	print uint64
}

// Programs returns the registered program names, sorted.
func (e *Engine) Programs() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.mappings))
	for n := range e.mappings {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Mapping returns the schema mapping generated for a program.
func (e *Engine) Mapping(program string) (*mapping.Mapping, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, ok := e.mappings[program]
	return m, ok
}

// PutCube stores a new version of a cube, valid from asOf.
func (e *Engine) PutCube(c *model.Cube, asOf time.Time) error {
	return e.store.Put(c, asOf)
}

// LoadCSV reads a cube from CSV under its declared schema and stores it as
// a new version valid from asOf.
func (e *Engine) LoadCSV(name string, r io.Reader, asOf time.Time) error {
	sch, ok := e.store.Schema(name)
	if !ok {
		return fmt.Errorf("engine: cube %s is %w", name, ErrCubeNotDeclared)
	}
	// A revision is decoded onto the key set of the version it revises. Should
	// another writer supersede that version before the Put, the store compares
	// the two as it compares any frozen cube with its predecessor.
	latest, _ := e.store.Get(name)
	c, err := store.ReadCSVOn(latest, r, sch)
	if err != nil {
		return err
	}
	// The parsed cube is frozen and nobody else's: the store adopts a first
	// load, and a revision already on its predecessor's key set, as it is, and
	// compares any other with its predecessor in one merge of their orders
	// (store.NewVersion).
	return e.store.Put(c, asOf)
}

// Cube returns the current version of a cube.
func (e *Engine) Cube(name string) (*model.Cube, bool) { return e.store.Get(name) }

// CubeNames returns every declared cube name (elementary and derived),
// sorted.
func (e *Engine) CubeNames() []string { return e.store.Names() }

// Schema returns the declared schema of a cube.
func (e *Engine) Schema(name string) (model.Schema, bool) { return e.store.Schema(name) }

// CubeAsOf returns the cube version valid at instant t.
func (e *Engine) CubeAsOf(name string, t time.Time) (*model.Cube, bool) {
	return e.store.GetAsOf(name, t)
}

// SubgraphInfo describes one dispatched subgraph of a run.
type SubgraphInfo struct {
	Target ops.Target
	Cubes  []string
}

// Report describes what a run did, including the fault-tolerance record:
// per-fragment attempts, targets used and fallback decisions.
type Report struct {
	Plan      []string // recalculated cubes, in execution order
	Subgraphs []SubgraphInfo
	// Fragments lists every dispatch attempt (one entry per subgraph),
	// including panics and fallback targets.
	Fragments []dispatch.FragmentReport
	// Retries is always 0: no target is tried twice for one fragment. It
	// stays only because bench/epoch.go:346 reads it.
	Retries   int
	Fallbacks int // fallback targets tried across the run
	// Generation is the store write generation the run's snapshot was
	// taken at (see store.Store.Generation).
	Generation uint64
	// Queued is how long the run waited for an admission slot.
	Queued time.Duration
	// MemReserved is the bytes the run reserved against the memory
	// budget (inputs-derived estimate plus the materialized results).
	MemReserved int64
	// MemDegraded reports that the run's waves ran one fragment at a time
	// to fit the memory budget.
	MemDegraded bool
	// Incremental reports that the run was delta-driven (WithIncremental);
	// Skipped lists the derived cubes it did not recompute because the
	// provenance of their stored versions was current.
	Incremental bool
	Skipped     []string
	Elapsed     time.Duration
}

// runConfig collects the settings of one unified Run call.
type runConfig struct {
	changed     []string
	assign      determine.Assigner
	asOf        time.Time
	incremental bool
}

// RunOption configures one Run call.
type RunOption func(*runConfig)

// RunChanged restricts the run to the consequences of the named changed
// elementary cubes: the determination engine recomputes exactly the
// affected derived cubes. Without it, Run recalculates everything.
func RunChanged(names ...string) RunOption {
	return func(c *runConfig) { c.changed = names }
}

// RunAt stamps the run's results with an explicit version timestamp
// (historicity control). Default: time.Now().
func RunAt(asOf time.Time) RunOption {
	return func(c *runConfig) { c.asOf = asOf }
}

// RunOn forces every statement onto a single fixed target system instead
// of per-statement preferred targets.
func RunOn(t ops.Target) RunOption {
	return func(c *runConfig) { c.assign = determine.FixedAssigner(t) }
}

// WithIncremental makes the run delta-driven: derived cubes whose stored
// versions' provenance is still current are skipped outright.
// For the rest, a fragment whose moved inputs all have a store delta and
// whose relations all have a trusted previous version has those deltas
// applied by the compiled chase, whatever target it is assigned to; any
// other fragment is run in full by its target, and its FragmentReport
// names the relation at fault. On the chase target the results are
// byte-identical to a full run. On sql, etl and frame a maintained point
// carries the chase's value: that target's own value exactly wherever its
// fold order is deterministic, and within the cross-target tolerance
// (1e-6 relative) otherwise.
func WithIncremental() RunOption {
	return func(c *runConfig) { c.incremental = true }
}

// Run executes a recalculation under the context: by default the full
// plan of every program at time.Now() on preferred targets; options
// narrow the plan (RunChanged), pin the version timestamp (RunAt) or fix
// the target (RunOn). A tracer or metrics registry carried by ctx
// (obs.ContextWithTracer, obs.ContextWithMetrics) records this call; the
// engine's own (WithTracer, WithMetrics) record it where ctx carries none.
// Cancellation or deadline expiry aborts the dispatch mid-run without
// persisting any result. When dispatch fails, the error comes with a
// Report of the fragments' attempts; any other error comes with none.
func (e *Engine) Run(ctx context.Context, opts ...RunOption) (*Report, error) {
	cfg := runConfig{assign: determine.AssignByPreference, asOf: time.Now()}
	for _, o := range opts {
		o(&cfg)
	}
	if obs.TracerFrom(ctx) == nil {
		ctx = obs.ContextWithTracer(ctx, e.tracer)
	}
	if obs.MetricsFrom(ctx) == nil {
		ctx = obs.ContextWithMetrics(ctx, e.metrics)
	}
	met := obs.MetricsFrom(ctx)

	// Admission control: the governor grants a slot, queues the run, or
	// sheds it with a typed overload error before any work happens.
	ticket, err := e.gov.Admit(ctx)
	if err != nil {
		met.Counter(obs.MetricRuns).Add(1)
		met.Counter(obs.MetricRunErrors).Add(1)
		return nil, err
	}
	defer ticket.Release()

	ctx, span := obs.StartSpan(ctx, "run")
	if cfg.changed != nil {
		span.SetAttr(obs.Strings("changed", cfg.changed))
	}
	rep, err := e.run(ctx, &cfg, ticket)
	met.Counter(obs.MetricRuns).Add(1)
	if err != nil {
		met.Counter(obs.MetricRunErrors).Add(1)
	}
	span.EndErr(err)
	return rep, err
}

// Shutdown gracefully stops the engine: admission closes (new runs are
// shed with typed overload errors), in-flight runs drain, and a closable
// store — e.g. the durable store, which flushes its group-commit queue
// and closes its WAL — is closed. The context bounds the drain; on
// expiry the store is left open (in-flight runs still use it) and the
// context error is returned. Idempotent once it has returned nil.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	st := e.store
	e.mu.Unlock()
	if err := e.gov.Shutdown(ctx); err != nil {
		return err
	}
	e.mu.Lock()
	closed := e.storeClosed
	e.storeClosed = true
	e.mu.Unlock()
	if closed {
		return nil
	}
	if c, ok := st.(io.Closer); ok {
		if err := c.Close(); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) run(ctx context.Context, cfg *runConfig, ticket *governor.Ticket) (*Report, error) {
	changed, assign, asOf := cfg.changed, cfg.assign, cfg.asOf
	// Snapshot the engine state under the lock, then dispatch and persist
	// outside it: the graph and mappings are immutable once built (a
	// registration swaps whole pointers), the store synchronizes itself,
	// and the dispatcher copy is used by value — so concurrent admitted
	// runs really do run concurrently.
	e.mu.Lock()
	if e.graph == nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: no programs registered")
	}
	graph := e.graph
	disp := e.disp
	st := e.store
	schemas := e.allSchemasLocked()
	stmts := e.stmts
	e.mu.Unlock()

	tgds := func(cube string) []*mapping.Tgd { return stmts[cube].tgds }
	start := time.Now()

	_, detSpan := obs.StartSpan(ctx, "determine")
	var plan []determine.StmtRef
	var err error
	if changed == nil {
		plan = graph.FullPlan()
	} else {
		plan, err = graph.Affected(changed)
		if err != nil {
			detSpan.EndErr(err)
			return nil, err
		}
	}

	// The snapshot shares the store's frozen cube versions: taking it
	// costs O(#cubes), not O(tuples), and the generation stamps which
	// store state the run read. The per-cube generations and provenances
	// are what the staleness walk and the delta queries run against, and
	// the generations what the results' provenance records.
	snap, gen, cubeGens, provs := st.SnapshotWithGenerations()

	// Incremental mode: walk the dependency graph in plan order, keep
	// only the stale cubes, and build the delta front the dispatcher
	// maintains them from.
	var front *chase.Front
	var skippedCubes []string
	if cfg.incremental {
		plan, skippedCubes, front = pruneStale(graph, plan, snap, cubeGens, provs, stmts, st)
		obs.MetricsFrom(ctx).Counter(obs.MetricIncrSkippedCubes).Add(int64(len(skippedCubes)))
		detSpan.SetAttr(obs.Int("skipped", len(skippedCubes)))
		if len(plan) == 0 {
			// Everything is current: nothing to dispatch, nothing to persist.
			detSpan.SetAttr(obs.Int("plan", 0))
			detSpan.End()
			return &Report{
				Generation:  gen,
				Queued:      ticket.Queued(),
				Incremental: true,
				Skipped:     skippedCubes,
				Elapsed:     time.Since(start),
			}, nil
		}
	}

	subs := determine.Partition(plan, assign, graph)
	detSpan.SetAttr(obs.Int("plan", len(plan)))
	detSpan.SetAttr(obs.Int("subgraphs", len(subs)))
	detSpan.End()

	// Declared cubes without data yet behave as empty relations, so a
	// program can be validated and run before all inputs have arrived.
	// They are frozen like every other snapshot member: targets only read
	// the snapshot.
	for name, sch := range schemas {
		if _, ok := snap[name]; !ok {
			snap[name] = model.NewCube(sch).Freeze()
		}
	}

	// Charge the run's estimated materialization against the memory
	// budget before dispatching. Snapshot reads share the store's frozen
	// cubes, so the run's new memory is the intermediates and results the
	// targets materialize — estimated from the input working set. When
	// the full estimate (every wave's intermediates live at once) does not
	// fit, the run's waves run one fragment at a time at half the estimate
	// before the run is rejected outright.
	memDegraded := false
	if est := model.MemEstimateOf(snap); est > 0 {
		if rerr := ticket.Reserve(est); rerr != nil {
			if ticket.Reserve(est/2) != nil {
				return nil, rerr
			}
			disp.Serial = true
			memDegraded = true
			obs.MetricsFrom(ctx).Counter(obs.MetricMemDegraded).Add(1)
		}
	}

	results, drep, err := disp.RunContext(ctx, subs, tgds, schemas, snap, front)
	if err != nil {
		return &Report{Fragments: drep.Fragments, Fallbacks: drep.Fallbacks(), Elapsed: time.Since(start)}, err
	}

	// Every target returns frozen cubes, which the store adopts as they are.
	// Incremental runs drop the outputs that are the reused previous versions
	// (same frozen cube): re-storing them would only churn version history
	// and make their consumers stale for nothing. A reused version keeps the
	// provenance it has.
	toPersist := results
	if cfg.incremental {
		toPersist = make(map[string]*model.Cube, len(results))
		for name, c := range results {
			if snap[name] != c {
				toPersist[name] = c
			}
		}
	}

	// Charge the materialized results before they are adopted by the
	// store: a run whose actual output overshoots the estimate is shed
	// here, typed, instead of persisting past the budget. A frozen cube's
	// estimate is column lengths, so this and the next run's estimate of its
	// snapshot cost a walk per key set, once.
	if delta := model.MemEstimateOf(results) - ticket.Reserved(); delta > 0 {
		if rerr := ticket.Reserve(delta); rerr != nil {
			return nil, rerr
		}
	}

	// Persist results as new versions, atomically: either every derived
	// cube of the run becomes visible or none does, so a failed write
	// never leaves the store with a half-applied run.
	// An incremental run already holds the delta of every output it
	// maintained — the dispatcher's delta front — so the store is handed
	// those instead of finding them again. Each version's provenance is the
	// generations of the operands the run read; the store stamps those
	// persisted with it at the commit's own.
	var outDeltas map[string]*model.CubeDelta
	if front != nil {
		outDeltas = front.Deltas
	}
	outProvs := make(map[string]*store.Provenance, len(toPersist))
	for name := range toPersist {
		p := &store.Provenance{Stmt: stmts[name].print, Inputs: make(map[string]uint64)}
		for _, dep := range graph.Deps(name) {
			p.Inputs[dep] = cubeGens[dep]
		}
		outProvs[name] = p
	}
	_, perSpan := obs.StartSpan(ctx, "persist", obs.Int("cubes", len(toPersist)))
	commit, err := st.PutAllGen(toPersist, outDeltas, outProvs, asOf)
	if commit.WALBytes > 0 {
		perSpan.SetAttr(obs.Int("delta_cubes", commit.DeltaCubes))
		perSpan.SetAttr(obs.Int("full_cubes", commit.FullCubes))
		perSpan.SetAttr(obs.Int("wal_bytes", int(commit.WALBytes)))
	}
	perSpan.EndErr(err)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Generation:  gen,
		Incremental: cfg.incremental,
		Skipped:     skippedCubes,
		Fragments:   drep.Fragments,
		Fallbacks:   drep.Fallbacks(),
		Queued:      ticket.Queued(),
		MemReserved: ticket.Reserved(),
		MemDegraded: memDegraded,
		Elapsed:     time.Since(start),
	}
	for _, ref := range plan {
		rep.Plan = append(rep.Plan, ref.Cube())
	}
	for _, s := range subs {
		info := SubgraphInfo{Target: s.Target}
		for _, ref := range s.Stmts {
			info.Cubes = append(info.Cubes, ref.Cube())
		}
		rep.Subgraphs = append(rep.Subgraphs, info)
	}
	return rep, nil
}

// allSchemasLocked merges the graph's cube schemas with the auxiliary
// relation schemas of every program mapping; e.mu held.
func (e *Engine) allSchemasLocked() map[string]model.Schema {
	out := make(map[string]model.Schema)
	if e.graph != nil {
		for n, sch := range e.graph.Schemas() {
			out[n] = sch
		}
	}
	for _, m := range e.mappings {
		for n, sch := range m.Schemas {
			if _, ok := out[n]; !ok {
				out[n] = sch
			}
		}
	}
	return out
}

// Translate renders a registered program's schema mapping as an executable
// artifact of the given kind (backend.Render: the tgds in logic notation, a
// SQL script, R or Matlab source, or the ETL job metadata as JSON).
func (e *Engine) Translate(program, kind string) (string, error) {
	e.mu.Lock()
	m, ok := e.mappings[program]
	e.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("engine: unknown program %s", program)
	}
	return backend.Render(kind, m, program)
}

// WriteCSV exports the current version of a cube as CSV.
func (e *Engine) WriteCSV(name string, w io.Writer) error {
	c, ok := e.store.Get(name)
	if !ok {
		return fmt.Errorf("engine: cube %s has no data", name)
	}
	return store.WriteCSV(w, c)
}
