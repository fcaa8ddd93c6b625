package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// The box this benchmark was sized on shares its memory system with other
// tenants. When a neighbour is busy, a memory-bound op here takes up to 2.5
// times as long for minutes on end, while a compute-bound loop barely
// notices — far more than any regression bound. So the harness measures the
// machine as well as the program: a fixed, allocation-free, memory-bound
// reference loop (sort 400k strings, probe a map with each) runs between
// epochs, and every timing of an epoch is scaled by how much slower than
// nominal the loop ran around it. Times are thus reported in milliseconds
// of a quiet sizing box. On a day of heavy interference this brought the
// spread of gdp-full-mem's epoch medians from 0.34 down to 0.13; a
// square-root loop (0.28) and a pointer chase through 64 MB (0.16) tracked
// the engine's slowdown less well.

// refLoopNominalMS is the reference loop's time on the quiet sizing box.
const refLoopNominalMS = 120.0

type refLoop struct {
	keys, scratch []string
	index         map[string]float64
	readings      []float64 // ms, one per call of read
}

func newRefLoop(n int) *refLoop {
	rng := rand.New(rand.NewSource(1))
	l := &refLoop{keys: make([]string, n), scratch: make([]string, n), index: make(map[string]float64, n)}
	for i := range l.keys {
		l.keys[i] = fmt.Sprintf("%08x-%08x", rng.Uint32(), rng.Uint32())
		l.index[l.keys[i]] = float64(i)
	}
	return l
}

var refLoopSink float64

// read runs the loop once and returns its time in ms.
func (l *refLoop) read() float64 {
	t0 := time.Now()
	copy(l.scratch, l.keys)
	sort.Strings(l.scratch)
	s := 0.0
	for _, k := range l.scratch {
		s += l.index[k]
	}
	refLoopSink = s
	d := ms(time.Since(t0))
	l.readings = append(l.readings, d)
	return d
}

// scale is the factor that turns a duration measured between two readings
// into milliseconds of the quiet sizing box. Under the smoke sizing the loop
// is too short to mean anything and timings are left as measured.
func (l *refLoop) scale(before, after float64) float64 {
	if len(l.keys) != fullSizing.RefLoopKeys {
		return 1
	}
	return refLoopNominalMS / ((before + after) / 2)
}

// unsteady reports whether the readings differ by more than a tenth: the
// machine's speed changed during the pass.
func (l *refLoop) unsteady() bool {
	return quantile(l.readings, 1) > 1.10*quantile(l.readings, 0)
}
