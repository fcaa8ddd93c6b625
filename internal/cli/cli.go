// Package cli is the flag surface shared by the EXLEngine command-line
// tools. exlrun, exlsh and exlserve all expose the same durable
// store, observability and memory-budget knobs; this package defines
// them once — names, defaults and help strings — and turns the parsed
// values into engine options, so the tools cannot drift apart.
//
// The flags are grouped (store, observability, governor) because not
// every tool wants every group: exlsh has no -trace flag (tracing is the
// interactive \trace command), and exlserve replaces -store with its
// per-tenant -data-dir layout.
package cli

import (
	"flag"
	"fmt"
	"io"

	"exlengine/internal/engine"
	"exlengine/internal/obs"
	"exlengine/internal/store/durable"
)

// TraceFlag implements -trace[=json]: a boolean flag that also accepts an
// output format as its value.
type TraceFlag struct {
	On   bool
	JSON bool
}

// String renders the flag's current value.
func (f *TraceFlag) String() string {
	switch {
	case f.On && f.JSON:
		return "json"
	case f.On:
		return "true"
	default:
		return "false"
	}
}

// Set parses -trace, -trace=tree, -trace=json, -trace=false.
func (f *TraceFlag) Set(s string) error {
	switch s {
	case "", "true", "tree":
		f.On, f.JSON = true, false
	case "json":
		f.On, f.JSON = true, true
	case "false":
		f.On, f.JSON = false, false
	default:
		return fmt.Errorf("invalid trace format %q (want tree or json)", s)
	}
	return nil
}

// IsBoolFlag lets the flag package accept a bare -trace.
func (f *TraceFlag) IsBoolFlag() bool { return true }

// Flags holds the parsed values of the shared flag groups.
type Flags struct {
	StoreDir  string
	Trace     TraceFlag
	Metrics   bool
	MemBudget int64
}

// RegisterStore adds -store to the flag set.
func (f *Flags) RegisterStore(fs *flag.FlagSet) {
	fs.StringVar(&f.StoreDir, "store", "",
		"durable store directory (WAL + snapshots); empty = in-memory only")
}

// RegisterObs adds -trace and -metrics to the flag set.
func (f *Flags) RegisterObs(fs *flag.FlagSet) {
	fs.Var(&f.Trace, "trace", "print the run's span tree to stderr (-trace=json for JSON Lines)")
	fs.BoolVar(&f.Metrics, "metrics", false, "print the run's metrics to stderr")
}

// RegisterGovernor adds the governor's -mem-budget to the flag set. The
// one-shot tools do one run at a time, so only exlserve, whose tenants
// take concurrent requests, adds a -max-concurrent of its own.
func (f *Flags) RegisterGovernor(fs *flag.FlagSet) {
	fs.Int64Var(&f.MemBudget, "mem-budget", 0,
		"process-wide cube-materialization budget in bytes (0 = unlimited)")
}

// Register adds every shared flag group to the flag set and returns the
// value holder.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	f.RegisterStore(fs)
	f.RegisterObs(fs)
	f.RegisterGovernor(fs)
	return f
}

// Observability bundles the sinks the flags asked for. Nil fields mean
// the corresponding flag was off.
type Observability struct {
	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

// Sinks builds the tracer and metrics registry the flags request. The
// metrics registry is the process-wide obs.Default() — a CLI is a
// single-tenant process, so one shared sink is exactly right (servers
// build one registry per tenant instead).
func (f *Flags) Sinks() *Observability {
	o := &Observability{}
	if f.Trace.On {
		o.Tracer = obs.NewTracer()
	}
	if f.Metrics {
		o.Metrics = obs.Default()
	}
	return o
}

// EngineOptions turns the parsed flags into engine options: the memory
// budget, observability sinks, and — when -store is set — a durable
// store opened under the directory. The returned cleanup closes the
// store (nil-safe to call always); the durable store's recovery stats
// are returned for tools that print them.
func (f *Flags) EngineOptions(o *Observability) (opts []engine.Option, cleanup func() error, rec *durable.RecoveryStats, err error) {
	cleanup = func() error { return nil }
	if f.MemBudget > 0 {
		opts = append(opts, engine.MemoryBudget(f.MemBudget))
	}
	if o != nil {
		if o.Tracer != nil {
			opts = append(opts, engine.WithTracer(o.Tracer))
		}
		if o.Metrics != nil {
			opts = append(opts, engine.WithMetrics(o.Metrics))
		}
	}
	if f.StoreDir != "" {
		var dopts []durable.Option
		if o != nil && o.Metrics != nil {
			dopts = append(dopts, durable.WithMetrics(o.Metrics))
		}
		st, oerr := durable.Open(f.StoreDir, dopts...)
		if oerr != nil {
			return nil, cleanup, nil, oerr
		}
		r := st.Recovery()
		rec = &r
		cleanup = st.Close
		opts = append(opts, engine.WithStore(st))
	}
	return opts, cleanup, rec, nil
}

// Dump writes the collected trace and metrics to w in the formats the
// flags chose. Diagnostics of a failed run are exactly what one wants to
// look at, so callers run it before checking the run error.
func (f *Flags) Dump(w io.Writer, o *Observability) {
	if o == nil {
		return
	}
	if f.Trace.On && o.Tracer != nil {
		if f.Trace.JSON {
			obs.WriteJSONL(w, o.Tracer)
		} else {
			obs.WriteTree(w, o.Tracer)
		}
	}
	if f.Metrics && o.Metrics != nil {
		o.Metrics.WriteText(w)
	}
}
