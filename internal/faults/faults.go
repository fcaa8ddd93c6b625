// Package faults is a deterministic fault-injection harness for the
// dispatcher: an Injector wraps fragment execution (as dispatch
// middleware) and fires scripted faults — classified errors, panics, or
// delays — at chosen fragment indices and targets. Runs are reproducible:
// the same fault plan always perturbs the same attempts, so degraded
// executions can be asserted against the chase solution in tests.
package faults

import (
	"context"
	"fmt"
	"sync"
	"time"

	"exlengine/internal/dispatch"
	"exlengine/internal/etl"
	"exlengine/internal/exlerr"
	"exlengine/internal/model"
	"exlengine/internal/ops"
)

// Kind is the kind of perturbation a fault applies.
type Kind int

// Fault kinds.
const (
	// Error makes the attempt fail with a classified error.
	Error Kind = iota
	// Panic makes the attempt panic, exercising panic isolation.
	Panic
	// Delay stalls the attempt before running it (for timeout testing).
	Delay
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// AnyFragment matches every fragment index.
const AnyFragment = -1

// Fault is one scripted perturbation. A fault fires at most once.
type Fault struct {
	// Fragment is the fragment index to hit, or AnyFragment.
	Fragment int
	// Target restricts the fault to attempts on one engine; empty means
	// any target.
	Target ops.Target
	// Kind selects the perturbation.
	Kind Kind
	// Class classifies the injected error (Error kind only).
	Class exlerr.Class
	// Delay is the stall duration (Delay kind only).
	Delay time.Duration
}

// Fired records one fault that actually fired.
type Fired struct {
	Fault    Fault
	Fragment int
	Target   ops.Target
}

// Injector wraps target-engine execution with scripted faults.
type Injector struct {
	mu     sync.Mutex
	faults []Fault
	used   []bool
	fired  []Fired
}

// NewInjector builds an injector firing the given faults, each at most
// once, in declaration order (the first matching unfired fault wins).
func NewInjector(faults ...Fault) *Injector {
	return &Injector{faults: faults, used: make([]bool, len(faults))}
}

// Fired returns the faults that fired, in firing order.
func (in *Injector) Fired() []Fired {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Fired(nil), in.fired...)
}

// take claims the first unfired fault matching the attempt, if any.
func (in *Injector) take(fr dispatch.Fragment) (Fault, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, f := range in.faults {
		if in.used[i] {
			continue
		}
		if f.Fragment != AnyFragment && f.Fragment != fr.Index {
			continue
		}
		if f.Target != "" && f.Target != fr.Target {
			continue
		}
		in.used[i] = true
		in.fired = append(in.fired, Fired{Fault: f, Fragment: fr.Index, Target: fr.Target})
		return f, true
	}
	return Fault{}, false
}

// Middleware returns the dispatch middleware applying the injector's
// faults. Delay faults respect context cancellation.
func (in *Injector) Middleware() dispatch.Middleware {
	return func(next dispatch.Runner) dispatch.Runner {
		return func(ctx context.Context, fr dispatch.Fragment, snap map[string]*model.Cube) (map[string]*model.Cube, error) {
			f, ok := in.take(fr)
			if !ok {
				return next(ctx, fr, snap)
			}
			switch f.Kind {
			case Error:
				return nil, exlerr.New(f.Class,
					fmt.Errorf("faults: injected %s error on fragment %d (%s)", f.Class, fr.Index, fr.Target))
			case Panic:
				panic(fmt.Sprintf("faults: injected panic on fragment %d (%s)", fr.Index, fr.Target))
			case Delay:
				t := time.NewTimer(f.Delay)
				defer t.Stop()
				select {
				case <-t.C:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return next(ctx, fr, snap)
			default:
				return nil, fmt.Errorf("faults: unknown fault kind %v", f.Kind)
			}
		}
	}
}

// PanicETLStep installs an etl step hook that panics the first time the
// named step runs (any step when name is empty), simulating a crashing
// user-defined step inside the streaming runtime. The returned restore
// function removes the hook; callers must invoke it.
func PanicETLStep(stepName string) (restore func()) {
	var once sync.Once
	etl.SetStepHook(func(flowID, step string) {
		if stepName != "" && step != stepName {
			return
		}
		fire := false
		once.Do(func() { fire = true })
		if fire {
			panic(fmt.Sprintf("faults: injected panic in ETL step %s of flow %s", step, flowID))
		}
	})
	return func() { etl.SetStepHook(nil) }
}
