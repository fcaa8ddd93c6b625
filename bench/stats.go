package main

import (
	"math"
	"sort"
	"time"

	"exlengine/internal/obs"
)

// quantile returns the q-quantile (0..1) of the samples by linear
// interpolation between order statistics; 0 for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

func sum(samples []float64) float64 {
	var t float64
	for _, v := range samples {
		t += v
	}
	return t
}

// tailCandidates are the percentiles a tail metric may be reported at,
// highest first.
var tailCandidates = []float64{99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and the value is one or two outliers, not a percentile.
const minBeyond = 10

// supportedTail returns the highest candidate percentile that n samples
// support with at least minBeyond samples beyond it, or 50 when none does.
func supportedTail(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durs converts durations to float milliseconds.
func durs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// selfTime is a span's duration minus the union of its children's
// intervals clipped to the span: concurrent children (etl.step spans of one
// flow overlap) are not subtracted twice.
func selfTime(s *obs.Span) time.Duration {
	type iv struct{ a, b time.Time }
	end := s.Start.Add(s.Dur)
	var ivs []iv
	for _, c := range s.Children() {
		a, b := c.Start, c.Start.Add(c.Dur)
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
		} else if v.b.After(curB) {
			curB = v.b
		}
	}
	covered += curB.Sub(curA)
	return s.Dur - covered
}
