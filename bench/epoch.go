package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"exlengine/internal/engine"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/store"
	"exlengine/internal/store/durable"
)

// day0 is the version instant of the base load; step k is stamped k days on.
var day0 = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

func dayOf(step int) time.Time { return day0.Add(time.Duration(step+1) * 24 * time.Hour) }

// epochResult is everything one epoch measured. An epoch is a fresh
// engine and store (or tenant), an untimed set-up and a fixed number of
// timed ops; every epoch of a run replays the same inputs.
type epochResult struct {
	traced bool
	// scale turns the epoch's timings into milliseconds of the quiet sizing
	// box: nominal reference-loop time ÷ the loop's time around the epoch.
	scale      float64
	setup      time.Duration
	ops        []time.Duration // one per op: put + run (+ gets over HTTP)
	puts       []time.Duration
	runs       []time.Duration
	gets       []time.Duration // HTTP only
	hops       []time.Duration // HTTP only: client-observed run latency minus the engine's own
	srcTuples  int64           // Σ over ops of the elementary tuples current at that op
	allocBytes uint64
	mallocs    uint64
	liveHeap   int64  // bytes in use after a forced GC at the end, above the level before the epoch
	peakHeap   uint64 // highest heap-object bytes sampled after an op
	retained   int64  // tuples in every version the store retains at the end
	gcCycles   uint64
	gcPause    time.Duration
	gcCPU      float64 // cpu-seconds
	totalCPU   float64
	// err fails every op of the epoch: an op error, or a failed verification.
	err error

	planCubes, subgraphs, skipped, fragments int // Σ over ops, from the run reports
	retries, fallbacks                       int
	incrFragments, fellBack                  int

	reg      regSnapshot // counters accumulated by the step loop only
	tracer   *obs.Tracer
	opSpans  []*obs.Span
	fsCounts fsCounts
	dirBytes int64
	putCSV   int64 // CSV-encoded bytes of the revisions put
	recover  time.Duration

	// HTTP only.
	sessionOpen    time.Duration
	csvIn, csvOut  int64
	overload, errs int64
	queueWaitMS    float64
	shed           int64
	memPeak        int64
}

// rtSample reads the runtime counters the harness tracks around ops.
type rtSample struct {
	allocBytes, allocObjs, heapObjects, gcCycles uint64
	gcCPU, totalCPU                              float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

func readRT() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocBytes: s[0].Value.Uint64(), allocObjs: s[1].Value.Uint64(),
		heapObjects: s[2].Value.Uint64(), gcCycles: s[3].Value.Uint64(),
		gcCPU: s[4].Value.Float64(), totalCPU: s[5].Value.Float64(),
	}
}

// heapAfterGC forces a collection and returns the bytes still in use.
func heapAfterGC() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// loopMeter accumulates the runtime counters over the timed ops of a step
// loop. Allocation is read around each op, so the harness's own work
// between ops is not charged to the program.
type loopMeter struct {
	res   *epochResult
	first rtSample
	pause time.Duration
	pre   rtSample
}

func startLoop(res *epochResult) *loopMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &loopMeter{res: res, first: readRT(), pause: time.Duration(m.PauseTotalNs)}
}

func (l *loopMeter) beforeOp() { l.pre = readRT() }

func (l *loopMeter) afterOp() {
	post := readRT()
	l.res.allocBytes += post.allocBytes - l.pre.allocBytes
	l.res.mallocs += post.allocObjs - l.pre.allocObjs
	if post.heapObjects > l.res.peakHeap {
		l.res.peakHeap = post.heapObjects
	}
}

func (l *loopMeter) end() {
	last := readRT()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	l.res.gcCycles = last.gcCycles - l.first.gcCycles
	l.res.gcCPU = last.gcCPU - l.first.gcCPU
	l.res.totalCPU = last.totalCPU - l.first.totalCPU
	l.res.gcPause = time.Duration(m.PauseTotalNs) - l.pause
}

// versionedStore is what the harness needs from a store beyond the
// engine's contract, to count and check the versions it retains.
type versionedStore interface {
	engine.DeltaStore
	Versions(name string) []time.Time
}

func retainedTuples(st versionedStore) int64 {
	var n int64
	for _, name := range st.Names() {
		for _, t := range st.Versions(name) {
			if c, ok := st.GetAsOf(name, t); ok {
				n += int64(c.Len())
			}
		}
	}
	return n
}

func sortedCubeNames(m map[string]*model.Cube) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil // a file vanishing mid-walk only shortens the sum
	})
	return n
}

// checksDisk says whether an epoch ends with the durability check: close
// the store, recover it from disk and compare every acknowledged version.
// Recovery takes as long as the epoch's ops, so among the untraced epochs
// only the warm-up, whose timings are not samples, checks; every traced
// epoch checks, and yields a recovery time.
func checksDisk(epoch int, traced bool) bool { return epoch == 0 || traced }

// inprocEpoch runs one epoch of an in-process workload: one client, closed
// loop, op = PutCube(revision) + Engine.Run.
func (b *bench) inprocEpoch(w *workloadDef, in *inputs, epoch int, traced bool) *epochResult {
	res := &epochResult{traced: traced}
	reg := obs.NewRegistry()
	ctx := context.Background()
	if traced {
		res.tracer = obs.NewTracer()
		ctx = obs.ContextWithTracer(ctx, res.tracer)
	}
	dir := filepath.Join(b.tmp, fmt.Sprintf("%s-e%d", w.name, epoch))
	if w.durable {
		defer os.RemoveAll(dir)
	}
	heap0 := heapAfterGC()

	// Set-up: calls into the program only, all counted in setup_s.
	t0 := time.Now()
	var st versionedStore
	var dst *durable.Store
	var cfs *countingFS
	if w.durable {
		cfs = &countingFS{}
		var err error
		dst, err = durable.Open(dir, durable.WithFS(cfs), durable.WithMetrics(reg))
		if err != nil {
			res.err = fmt.Errorf("opening durable store: %w", err)
			return res
		}
		st = dst
	} else {
		st = store.New()
	}
	// A private, empty compile cache: every epoch compiles cold.
	opts := []engine.Option{engine.WithStore(st), engine.WithMetrics(reg),
		engine.WithCompileCache(engine.NewCompileCache(4))}
	if traced {
		opts = append(opts, engine.WithTracer(res.tracer))
	}
	eng := engine.New(opts...)
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil && res.err == nil {
			res.err = fmt.Errorf("shutdown: %w", err)
		}
	}()
	if err := eng.RegisterProgram(in.programID, in.program); err != nil {
		res.err = fmt.Errorf("register: %w", err)
		return res
	}
	for _, name := range sortedCubeNames(in.base) {
		if err := eng.PutCube(in.base[name], day0); err != nil {
			res.err = fmt.Errorf("base load of %s: %w", name, err)
			return res
		}
	}
	runOpts := func(at time.Time) []engine.RunOption {
		return append([]engine.RunOption{engine.RunAt(at)}, w.runOpts...)
	}
	if _, err := eng.Run(ctx, runOpts(day0)...); err != nil {
		res.err = fmt.Errorf("priming run: %w", err)
		return res
	}
	res.setup = time.Since(t0)

	// Step loop.
	var srcBase int64
	for name, c := range in.base {
		if name != in.revised {
			srcBase += int64(c.Len())
		}
	}
	reg0 := snapshotRegistry(reg)
	var fs0 fsCounts
	if cfs != nil {
		fs0 = cfs.counts()
	}
	meter := startLoop(res)
	for k := 0; k < in.steps && res.err == nil; k++ {
		rev, at := in.revision(k), dayOf(k)
		octx, op := obs.StartSpan(ctx, "op", obs.String("workload", w.name),
			obs.Int("epoch", epoch), obs.Int("step", k))
		meter.beforeOp()
		t0 := time.Now()
		_, ps := obs.StartSpan(octx, "op.put")
		err := eng.PutCube(rev, at)
		ps.EndErr(err)
		t1 := time.Now()
		var rep *engine.Report
		if err == nil {
			rctx, rs := obs.StartSpan(octx, "op.run")
			rep, err = eng.Run(rctx, runOpts(at)...)
			rs.EndErr(err)
		}
		t2 := time.Now()
		op.EndErr(err)
		meter.afterOp()
		if err != nil {
			res.err = fmt.Errorf("step %d: %w", k, err)
			break
		}
		res.ops = append(res.ops, t2.Sub(t0))
		res.puts = append(res.puts, t1.Sub(t0))
		res.runs = append(res.runs, t2.Sub(t1))
		res.srcTuples += srcBase + int64(rev.Len())
		if w.durable {
			res.putCSV += in.revisionCSVBytes[k%len(in.revisionCSVBytes)]
		}
		res.addReport(rep)
		if op != nil {
			res.opSpans = append(res.opSpans, op)
		}
	}
	meter.end()
	res.reg = snapshotRegistry(reg).minus(reg0)
	if cfs != nil {
		res.fsCounts = cfs.counts().minus(fs0)
	}
	if res.err != nil {
		return res
	}
	heap1 := heapAfterGC()
	res.liveHeap = heap1 - heap0
	res.retained = retainedTuples(st)

	// Verification, untimed. A mismatch fails every op of the epoch.
	if err := verifyStore(st, in, b.corrupt); err != nil {
		res.err = err
		return res
	}
	if w.durable && checksDisk(epoch, traced) {
		t0 := time.Now()
		if err := dst.Close(); err != nil {
			res.err = fmt.Errorf("closing durable store: %w", err)
			return res
		}
		re, err := durable.Open(dir)
		res.recover = time.Since(t0)
		if err != nil {
			res.err = fmt.Errorf("reopening durable store: %w", err)
			return res
		}
		res.err = verifyRecovered(re, in, b.corrupt)
		res.dirBytes = dirSize(dir)
		if err := re.Close(); err != nil && res.err == nil {
			res.err = fmt.Errorf("closing recovered store: %w", err)
		}
	}
	return res
}

func (r *epochResult) addReport(rep *engine.Report) {
	r.planCubes += len(rep.Plan)
	r.subgraphs += len(rep.Subgraphs)
	r.skipped += len(rep.Skipped)
	r.fragments += len(rep.Fragments)
	r.retries += rep.Retries
	r.fallbacks += rep.Fallbacks
	for i := range rep.Fragments {
		if rep.Fragments[i].Incremental {
			r.incrFragments++
		}
		if rep.Fragments[i].FellBackFull {
			r.fellBack++
		}
	}
}

func (s regSnapshot) minus(o regSnapshot) regSnapshot {
	out := regSnapshot{Counters: make(map[string]int64, len(s.Counters)), Gauges: s.Gauges, Histograms: s.Histograms}
	for k, v := range s.Counters {
		out.Counters[k] = v - o.Counters[k]
	}
	return out
}
