package ops

import (
	"math"
	"slices"
	"unsafe"

	"exlengine/internal/model"
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

// Empty returns the fold of the empty bag, where it has one: a count of
// nothing is 0. Every other fold is undefined there.
func (f Fold) Empty() (float64, bool) { return 0, f == foldCount }

// Acc is one group's bag under a Fold, folded as it arrives; the zero Acc is
// the empty bag. It is flat — a is the sum, minimum, maximum or product, or
// Welford's running mean for stddev, b Welford's M2, and vs median's bag —
// so a grouping engine keeps its groups' accumulators in one slice, and
// folds a column into them with FoldColumn.
type Acc struct {
	n    int
	a, b float64
	vs   []float64
}

// N returns the number of measures folded in: 0 for a group no defined
// measure has reached.
func (acc *Acc) N() int { return acc.n }

// Add folds one measure into the bag: a column of one, so that a bag folded a
// measure at a time and one folded a column at a time are the same to the bit,
// NaN payloads included, which the order of a float operation's operands
// decides.
func (acc *Acc) Add(f Fold, v float64) {
	FoldColumn(f, unsafe.Slice(acc, 1), firstGroup[:], unsafe.Slice(&v, 1))
}

var firstGroup = [1]uint32{0}

// FoldColumn folds a column of measures into groups: vs[i] into accs[ords[i]]
// for every i whose ordinal is not model.NoGroup, each bag getting its
// measures in the order of the column. It is the one definition of how a fold
// takes a measure in, with the fold's switch taken once for the column rather
// than once a measure. vs holds at least len(ords) measures.
func FoldColumn(f Fold, accs []Acc, ords []uint32, vs []float64) {
	vs = vs[:len(ords)]
	switch f {
	case foldSum, foldAvg:
		for i, g := range ords {
			if g != model.NoGroup {
				acc := &accs[g]
				acc.n++
				acc.a += vs[i]
			}
		}
	case foldCount:
		for _, g := range ords {
			if g != model.NoGroup {
				accs[g].n++
			}
		}
	case foldMin:
		for i, g := range ords {
			if g != model.NoGroup {
				acc, v := &accs[g], vs[i]
				if acc.n++; acc.n == 1 || v < acc.a {
					acc.a = v
				}
			}
		}
	case foldMax:
		for i, g := range ords {
			if g != model.NoGroup {
				acc, v := &accs[g], vs[i]
				if acc.n++; acc.n == 1 || v > acc.a {
					acc.a = v
				}
			}
		}
	case foldMedian:
		for i, g := range ords {
			if g != model.NoGroup {
				acc := &accs[g]
				acc.n++
				acc.vs = append(acc.vs, vs[i])
			}
		}
	case foldStddev:
		for i, g := range ords {
			if g != model.NoGroup {
				acc, v := &accs[g], vs[i]
				acc.n++
				d := v - acc.a
				acc.a += d / float64(acc.n)
				acc.b += d * (v - acc.a)
			}
		}
	case foldProd:
		for i, g := range ords {
			if g != model.NoGroup {
				acc, v := &accs[g], vs[i]
				if acc.n++; acc.n == 1 {
					acc.a = v
				} else {
					acc.a *= v
				}
			}
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
