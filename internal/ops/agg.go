package ops

import (
	"math"
	"slices"
)

// Fold is an aggregation operator resolved from its name, once, where a plan
// is compiled or a tgd translated: the one definition of the eight folds
// every engine aggregates a bag of measures with, each group's bag held in an
// Acc. Bags have multiset semantics: repeated elements count (the paper's
// footnote 9).
type Fold uint8

// The folds, in the order of foldNames.
const (
	foldSum Fold = iota
	foldAvg
	foldMin
	foldMax
	foldCount
	foldMedian
	foldStddev
	foldProd
)

var foldNames = [...]string{"sum", "avg", "min", "max", "count", "median", "stddev", "prod"}

// FoldOf resolves the named aggregation operator ("sum", "avg", "min", "max",
// "count", "median", "stddev", "prod").
func FoldOf(name string) (Fold, error) {
	if i := slices.Index(foldNames[:], name); i >= 0 {
		return Fold(i), nil
	}
	return 0, errUnknown("aggregation", name)
}

// IsAggregation reports whether name is a registered aggregation operator.
func IsAggregation(name string) bool {
	i, ok := infos[name]
	return ok && i.Class == ClassAggregation
}

// Acc is one group's bag under a Fold, folded as it arrives; the zero Acc is
// the empty bag. It is flat — a is the sum, minimum, maximum or product, or
// Welford's running mean for stddev, b Welford's M2, and vs median's bag —
// so a grouping engine keeps its groups' accumulators in one slice.
type Acc struct {
	n    int
	a, b float64
	vs   []float64
}

// N returns the number of measures folded in: 0 for a group no defined
// measure has reached.
func (acc *Acc) N() int { return acc.n }

// Add folds one measure into the bag.
func (acc *Acc) Add(f Fold, v float64) {
	acc.n++
	switch f {
	case foldSum, foldAvg:
		acc.a += v
	case foldMin:
		if acc.n == 1 || v < acc.a {
			acc.a = v
		}
	case foldMax:
		if acc.n == 1 || v > acc.a {
			acc.a = v
		}
	case foldMedian:
		acc.vs = append(acc.vs, v)
	case foldStddev:
		d := v - acc.a
		acc.a += d / float64(acc.n)
		acc.b += d * (v - acc.a)
	case foldProd:
		if acc.n == 1 {
			acc.a = v
		} else {
			acc.a *= v
		}
	}
}

// Result returns the fold of the bag. It is only asked of non-empty bags: per
// the paper, "the cube tuple exists only if the bag V is non-empty". The bag
// is left as it was, so more measures may follow.
func (acc *Acc) Result(f Fold) float64 {
	switch f {
	case foldAvg:
		return acc.a / float64(acc.n)
	case foldCount:
		return float64(acc.n)
	case foldMedian:
		vs := slices.Clone(acc.vs)
		slices.Sort(vs)
		n := len(vs)
		if n%2 == 1 {
			return vs[n/2]
		}
		return (vs[n/2-1] + vs[n/2]) / 2
	case foldStddev: // the population deviation
		return math.Sqrt(acc.b / float64(acc.n))
	default:
		return acc.a
	}
}

// Aggregate applies the named aggregation to a complete, non-empty bag.
func Aggregate(name string, bag []float64) (float64, error) {
	f, err := FoldOf(name)
	if err != nil {
		return 0, err
	}
	var acc Acc
	for _, v := range bag {
		acc.Add(f, v)
	}
	return acc.Result(f), nil
}
