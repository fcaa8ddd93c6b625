package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"exlengine/internal/engine"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
)

// workloadDef is one row of the workload table. The names, sizes and tail
// percentiles are the benchmark's definition; see README.md for why each
// workload is here.
type workloadDef struct {
	name    string
	durable bool
	serve   bool
	runOpts []engine.RunOption
	gen     func(seed int64, sz sizing) (*inputs, error)
	// extra names the replayed calls this workload adds to the traced pass.
	sqlCalls, targetCalls, csvCalls, scalingCalls bool
}

// tailPct is the percentile op_tail_ms is reported at under the full sizing:
// the highest that the fewest ops a pass makes on any workload (40) still
// supports with ten samples beyond it. It is fixed, not picked per run, so
// two runs always compare the same percentile.
const tailPct = 75

var workloads = []*workloadDef{
	{
		name: "gdp-full-mem", sqlCalls: true, targetCalls: true,
		gen: func(seed int64, sz sizing) (*inputs, error) {
			return genGDP(seed, sz.GDPDays, sz.GDPRegions, sz.GDPRing, sz.GDPSteps, false)
		},
	},
	{
		name: "panel-full-chase", scalingCalls: true,
		runOpts: []engine.RunOption{engine.RunOn(ops.TargetChase)},
		gen: func(seed int64, sz sizing) (*inputs, error) {
			return genPanel(seed, sz.PanelQuarters, sz.PanelRegions, sz.PanelSteps, false), nil
		},
	},
	{
		name: "panel-incr-durable", durable: true,
		runOpts: []engine.RunOption{engine.RunOn(ops.TargetChase), engine.WithIncremental()},
		gen: func(seed int64, sz sizing) (*inputs, error) {
			return genPanel(seed, sz.PanelQuarters, sz.PanelRegions, sz.PanelSteps, true), nil
		},
	},
	{
		name: "serve-mixed", durable: true, serve: true, sqlCalls: true, csvCalls: true,
		gen: func(seed int64, sz sizing) (*inputs, error) {
			return genGDP(seed, sz.ServeDays, sz.GDPRegions, sz.ServeSteps, sz.ServeSteps, true)
		},
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// bench holds the settings of one invocation.
type bench struct {
	seed    int64
	sz      sizing
	seconds float64
	tmp     string // scratch directory for durable stores, inside the checkout
	corrupt bool   // corrupt the reference outputs: verification must fail
	log     io.Writer
}

// runResult is one pass of one workload: the untraced pass yields the
// end-to-end metrics, the traced pass the per-layer ones.
type runResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Epochs    int                    `json:"epochs"`
	Steps     int                    `json:"steps_per_epoch"`
	Samples   int                    `json:"samples"`
	TailPct   float64                `json:"tail_percentile"`
	// EpochP50MS is the median op latency of each epoch, so the spread
	// between epochs is visible beside the pooled median; EpochScale is the
	// reference-loop factor its timings were scaled by, RawP50MS the pooled
	// median as the clock read it, RefLoopMS the median reference-loop time.
	EpochP50MS []float64 `json:"epoch_p50_ms"`
	EpochScale []float64 `json:"epoch_scale"`
	RawP50MS   float64   `json:"raw_op_p50_ms"`
	RefLoopMS  float64   `json:"ref_loop_ms"`
	Noisy      bool      `json:"noisy"`
	Errors     []string  `json:"errors,omitempty"`

	tracers []tracedEpoch
}

type tracedEpoch struct {
	workload string
	epoch    int
	tracer   *obs.Tracer
}

// runWorkload makes one pass over a workload: epochs until the time budget
// is spent. The traced pass alternates untraced and traced epochs, so the
// tracing overhead compares like with like, then replays single-layer calls.
func (b *bench) runWorkload(w *workloadDef, traced bool) (*runResult, error) {
	ref := newRefLoop(b.sz.RefLoopKeys)
	t0 := time.Now()
	in, err := w.gen(b.seed, b.sz)
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", w.name, err)
	}
	genTime := time.Since(t0)

	if err := os.MkdirAll(b.tmp, 0o755); err != nil {
		return nil, err
	}
	var env *serveEnv
	if w.serve {
		dataDir, err := os.MkdirTemp(b.tmp, w.name+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dataDir)
		if env, err = startServer(dataDir); err != nil {
			return nil, err
		}
	}
	// Every epoch is bracketed by two readings of the reference loop, which
	// fix the scale of its timings; see calib.go.
	var lastReading float64
	runEpoch := func(epoch int, traced bool) *epochResult {
		var ep *epochResult
		if w.serve {
			ep = b.serveEpoch(w, in, env, epoch, traced)
		} else {
			ep = b.inprocEpoch(w, in, epoch, traced)
		}
		before := lastReading
		lastReading = ref.read()
		ep.scale = ref.scale(before, lastReading)
		return ep
	}

	clients := 1
	if w.serve {
		clients = b.sz.ServeClients
	}

	// Epoch 0 warms the process up — the runtime grows its heap, the page
	// cache takes the store's files — and carries the durability check; its
	// ops count as attempted but its timings are not samples.
	res := &runResult{Workload: w.name, Traced: traced, Steps: in.steps}
	start := time.Now()
	lastReading = ref.read()
	warmup := runEpoch(0, false)
	var plain, tracedEps []*epochResult
	budget := time.Duration(b.seconds * float64(time.Second))
	for round := 1; ; round++ {
		plain = append(plain, runEpoch(1+len(plain)+len(tracedEps), false))
		if traced {
			epoch := 1 + len(plain) + len(tracedEps)
			ep := runEpoch(epoch, true)
			tracedEps = append(tracedEps, ep)
			res.tracers = append(res.tracers, tracedEpoch{w.name, epoch, ep.tracer})
		}
		// The untraced pass goes on past its budget until op_tail_ms has
		// its samples, however slow the machine is today.
		samples := len(plain) * in.steps * clients
		needMore := !traced && b.seconds > 0 && supportedTail(samples) < tailPct
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(2*round) >= budget && !needMore {
			break
		}
	}
	if env != nil {
		if err := env.stop(); err != nil {
			return nil, fmt.Errorf("%s: stopping server: %w", w.name, err)
		}
	}

	var good, goodTraced []*epochResult
	for i, ep := range append(append([]*epochResult{warmup}, plain...), tracedEps...) {
		res.Attempted += in.steps * clients
		if ep.err != nil {
			res.Failed += in.steps * clients
			res.Errors = append(res.Errors, ep.err.Error())
			continue
		}
		switch {
		case i == 0: // the warm-up
		case ep.traced:
			goodTraced = append(goodTraced, ep)
		default:
			good = append(good, ep)
		}
	}
	res.Correct = res.Failed == 0
	res.Epochs = 1 + len(plain) + len(tracedEps)
	if !res.Correct {
		return res, nil
	}

	var vals metricSet
	if traced {
		tr := obs.NewTracer()
		res.tracers = append(res.tracers, tracedEpoch{w.name, -1, tr})
		c := caller{ctx: obs.ContextWithTracer(context.Background(), tr)}
		vals, err = b.perLayer(w, in, good, goodTraced, c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		// The replayed calls ran between the last epoch's reading and this one.
		callScale := ref.scale(lastReading, ref.read())
		for _, name := range callTimes {
			vals[name] *= callScale
		}
		vals["harness.gen_s"] = genTime.Seconds()
	} else {
		vals = b.endToEnd(w, good, res)
	}
	res.Noisy = res.Noisy || ref.unsteady()
	res.RefLoopMS = median(ref.readings)
	defs := endToEndDefs
	if traced {
		vals["harness.calib_ms"] = res.RefLoopMS
		defs = perLayerDefs
	}
	res.Metrics, err = render(defs, vals)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return res, nil
}

// pooledOps returns the op latencies of the epochs in ms, each epoch's
// scaled by its reference-loop factor.
func pooledOps(eps []*epochResult) []float64 {
	var all []float64
	for _, ep := range eps {
		all = append(all, ep.scaledOps()...)
	}
	return all
}

func (ep *epochResult) scaledOps() []float64 { return ep.scaled(ep.ops) }

// scaled converts durations measured during the epoch to ms of the quiet
// sizing box.
func (ep *epochResult) scaled(ds []time.Duration) []float64 {
	out := durs(ds)
	for i := range out {
		out[i] *= ep.scale
	}
	return out
}

const mb = 1e6

// endToEnd computes the end-to-end metrics from the untraced epochs.
func (b *bench) endToEnd(w *workloadDef, eps []*epochResult, res *runResult) metricSet {
	opsMS := pooledOps(eps)
	var setups, heaps, raw []float64
	var srcTuples int64
	var alloc uint64
	for _, ep := range eps {
		setups = append(setups, ep.setup.Seconds()*ep.scale)
		heaps = append(heaps, float64(ep.liveHeap)/mb)
		srcTuples += ep.srcTuples
		alloc += ep.allocBytes
		res.EpochP50MS = append(res.EpochP50MS, median(ep.scaledOps()))
		res.EpochScale = append(res.EpochScale, ep.scale)
		raw = append(raw, durs(ep.ops)...)
	}
	res.Samples = len(opsMS)
	res.RawP50MS = median(raw)
	res.TailPct = tailPct
	if s := supportedTail(len(opsMS)); s < tailPct || b.sz.Name != fullSizing.Name {
		res.TailPct = s
		if b.sz.Name == fullSizing.Name {
			fmt.Fprintf(b.log, "%s: %d samples support only p%.0f, not p%.0f; op_tail_ms is not comparable\n",
				w.name, len(opsMS), s, float64(tailPct))
			res.Noisy = true
		}
	}
	return metricSet{
		"setup_s":          median(setups),
		"op_p50_ms":        median(opsMS),
		"op_tail_ms":       quantile(opsMS, res.TailPct/100),
		"src_tuples_per_s": ratio(float64(srcTuples), sum(opsMS)/1000),
		"alloc_mb_per_op":  float64(alloc) / mb / float64(len(opsMS)),
		"live_heap_mb":     median(heaps),
	}
}

// perLayer computes the per-layer metrics: span times from the traced
// epochs, counts from the run reports, the registries and the counting
// filesystem, and timed replays of single-layer calls.
func (b *bench) perLayer(w *workloadDef, in *inputs, plain, traced []*epochResult, c caller) (metricSet, error) {
	m := metricSet{}
	for _, d := range perLayerDefs {
		m[d.Name] = 0
	}
	for k, v := range traceMetrics(traced) {
		m[k] = v
	}
	all := append(append([]*epochResult(nil), plain...), traced...)
	nOps := 0
	var agg epochResult
	var heap, retained int64
	var gcCycles, gcPause, compact, recoverMS, sessionOpen, queueWait []float64
	var hops []float64
	for _, ep := range all {
		nOps += len(ep.ops)
		agg.planCubes += ep.planCubes
		agg.subgraphs += ep.subgraphs
		agg.skipped += ep.skipped
		agg.fragments += ep.fragments
		agg.retries += ep.retries
		agg.fallbacks += ep.fallbacks
		agg.incrFragments += ep.incrFragments
		agg.fellBack += ep.fellBack
		agg.mallocs += ep.mallocs
		agg.gcCPU += ep.gcCPU
		agg.totalCPU += ep.totalCPU
		agg.shed += ep.shed
		agg.overload += ep.overload
		agg.errs += ep.errs
		if ep.peakHeap > agg.peakHeap {
			agg.peakHeap = ep.peakHeap
		}
		if ep.memPeak > agg.memPeak {
			agg.memPeak = ep.memPeak
		}
		if ep.retained > 0 { // over HTTP only epochs that reopen the store can count
			heap += ep.liveHeap
			retained += ep.retained
		}
		gcCycles = append(gcCycles, float64(ep.gcCycles))
		gcPause = append(gcPause, ms(ep.gcPause))
		compact = append(compact, ms(ep.fsCounts.CompactTime)*ep.scale)
		recoverMS = append(recoverMS, ms(ep.recover)*ep.scale)
		sessionOpen = append(sessionOpen, ms(ep.sessionOpen)*ep.scale)
		queueWait = append(queueWait, ep.queueWaitMS*ep.scale)
		hops = append(hops, ep.scaled(ep.hops)...)
	}
	perOp := func(n int) float64 { return ratio(float64(n), float64(nOps)) }
	m["determine.plan_cubes"] = perOp(agg.planCubes)
	m["determine.subgraphs"] = perOp(agg.subgraphs)
	m["engine.skipped_cubes"] = perOp(agg.skipped)
	m["dispatch.fragments"] = perOp(agg.fragments)
	m["dispatch.retries"] = float64(agg.retries)
	m["dispatch.fallbacks"] = float64(agg.fallbacks)
	m["dispatch.incr_fellback_share"] = ratio(float64(agg.fellBack), float64(agg.incrFragments+agg.fellBack))
	m["model.bytes_per_tuple"] = ratio(float64(heap), float64(retained))
	m["runtime.gc_cycles"] = median(gcCycles)
	m["runtime.gc_pause_ms"] = median(gcPause)
	m["runtime.gc_cpu_share"] = ratio(agg.gcCPU, agg.totalCPU)
	m["runtime.peak_heap_mb"] = float64(agg.peakHeap) / mb
	m["runtime.mallocs_per_op"] = perOp(int(agg.mallocs))
	m["obs.trace_overhead_pct"] = 100 * (ratio(median(pooledOps(traced)), median(pooledOps(plain))) - 1)

	// Counts that repeat exactly are taken from one epoch, per op.
	last := all[len(all)-1]
	lastOps := float64(len(last.ops))
	reg := last.reg
	m["sqlengine.rows_loaded"] = float64(reg.Counters[obs.Label(obs.MetricTuplesRead, "target", string(ops.TargetSQL))]) / lastOps
	m["sqlengine.rows_extracted"] = float64(reg.Counters[obs.Label(obs.MetricTuplesWritten, "target", string(ops.TargetSQL))]) / lastOps
	m["chase.incr_delta_tuples"] = float64(reg.counter(obs.MetricIncrDeltaTuples)) / lastOps

	if w.durable {
		fc := last.fsCounts
		m["durable.compact_ms"] = median(compact)
		m["durable.compactions"] = float64(fc.Compactions)
		m["durable.recover_ms"] = median(recoverMS)
		m["durable.write_bytes"] = float64(fc.WriteBytes)
		m["durable.write_calls"] = float64(fc.WriteCalls)
		m["durable.fsyncs"] = float64(fc.Fsyncs)
		m["durable.snapshot_bytes"] = float64(fc.SnapshotBytes)
		m["durable.dir_bytes"] = float64(last.dirBytes)
		m["durable.write_amp"] = ratio(float64(fc.WriteBytes), float64(last.putCSV))
	} else {
		m["durable.commit_p50_ms"], m["durable.commit_max_ms"] = 0, 0
	}
	if w.serve {
		var puts, runs, gets []float64
		for _, ep := range all {
			puts = append(puts, ep.scaled(ep.puts)...)
			runs = append(runs, ep.scaled(ep.runs)...)
			gets = append(gets, ep.scaled(ep.gets)...)
		}
		m["server.put_p50_ms"] = median(puts)
		m["server.run_p50_ms"] = median(runs)
		m["server.get_p50_ms"] = median(gets)
		m["server.hop_ms"] = median(hops)
		m["server.session_open_ms"] = median(sessionOpen)
		m["server.csv_in_bytes"] = float64(last.csvIn)
		m["server.csv_out_bytes"] = float64(last.csvOut)
		m["server.overload"] = float64(agg.overload)
		m["server.errors"] = float64(agg.errs)
		m["governor.queue_wait_ms"] = median(queueWait)
		m["governor.shed"] = float64(agg.shed)
		m["governor.mem_peak_mb"] = float64(agg.memPeak) / mb
		// Over HTTP the put and the commit are seen from the client only.
		m["store.put_ms"] = median(puts)
	}

	mp, err := compileMapping(in.program)
	if err != nil {
		return nil, err
	}
	m["mapping.tgds"] = float64(len(mp.Tgds))

	calls := []func() (metricSet, error){func() (metricSet, error) { return modelCalls(c, in) }}
	if w.sqlCalls {
		calls = append(calls, func() (metricSet, error) { return sqlCalls(c, in) })
	}
	if w.csvCalls {
		calls = append(calls, func() (metricSet, error) { return csvCalls(c, in) })
	}
	if w.targetCalls {
		calls = append(calls, func() (metricSet, error) { return targetCalls(c, in, b.sz.TargetRuns) })
	}
	for _, call := range calls {
		got, err := call()
		if err != nil {
			return nil, err
		}
		for k, v := range got {
			m[k] = v
		}
	}
	if w.scalingCalls {
		e, err := chaseScaling(c, b.seed, b.sz.ScalingTuples, b.sz.PanelRegions)
		if err != nil {
			return nil, err
		}
		m["chase.full_scaling_exp"] = e
	}
	return m, nil
}

// tmpDir returns the default scratch directory: inside the working
// directory, which is the checkout the benchmark was started from.
func tmpDir() string { return filepath.Join(".bench_tmp", fmt.Sprintf("%d", os.Getpid())) }
