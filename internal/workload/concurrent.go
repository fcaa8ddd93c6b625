package workload

import (
	"context"
	"sync"
)

// ConcurrentConfig parameterizes a concurrent multi-run workload: Workers
// goroutines each invoke a run function Iters times against shared
// state. It is the load shape the zero-copy store and the shared compiled
// mapping are built for — many concurrent consumers re-executing an
// unchanged program over one store.
type ConcurrentConfig struct {
	Workers int // concurrent run loops (defaults to 4)
	Iters   int // runs per worker (defaults to 4)
}

func (c ConcurrentConfig) withDefaults() ConcurrentConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Iters <= 0 {
		c.Iters = 4
	}
	return c
}

// RunConcurrently drives cfg.Workers goroutines, each calling run
// cfg.Iters times (a full engine run plus any read-back the caller wants
// to interleave). It returns the number of completed invocations and the
// first error; a worker stops at its first failure, the others finish
// their loops. Cancelling the context stops every worker at its next
// iteration boundary — no new run starts once ctx is done — and the
// context error is reported (unless a run failed first), so the caller
// gets a coherent partial count. The function takes a closure instead of
// an engine so the workload package stays independent of the
// orchestrator it exercises.
func RunConcurrently(ctx context.Context, cfg ConcurrentConfig, run func(context.Context) error) (int, error) {
	cfg = cfg.withDefaults()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		runs     int
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cfg.Iters; i++ {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := run(ctx); err != nil {
					fail(err)
					return
				}
				mu.Lock()
				runs++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return runs, firstErr
}
