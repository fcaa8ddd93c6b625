package ops

import (
	"fmt"
	"sort"

	"exlengine/internal/model"
)

// SeriesFunc is a multi-tuple black-box operator over a whole time series:
// it receives the measures in chronological order (plus the season length
// implied by the series' frequency and any scalar parameters) and returns a
// series of the same length, aligned on the same periods. This is the
// paper's black-box subclass: "they receive one cube in input and transform
// it by producing another cube".
type SeriesFunc func(vals []float64, seasonLen int, params []float64) ([]float64, error)

// SeasonLength returns the number of periods per seasonal cycle for a
// frequency: 4 for quarterly, 12 for monthly, 7 (weekly cycle) for daily
// and 1 (no seasonality) for annual series.
func SeasonLength(f model.Frequency) int {
	switch f {
	case model.Quarterly:
		return 4
	case model.Monthly:
		return 12
	case model.Daily:
		return 7
	default:
		return 1
	}
}

// Series returns the named black-box series operator ("stl_t", "stl_s",
// "stl_i", "movavg", "cumsum", "lintrend").
func Series(name string) (SeriesFunc, error) {
	f, ok := seriesFuncs[name]
	if !ok {
		return nil, errUnknown("series", name)
	}
	return f, nil
}

// SeriesCube runs f, the black box called name, over in, a time-series cube:
// the series goes through f whole, in chronological order, and the output
// stands on in's periods one for one — on its key set — under schema.
func SeriesCube(name string, f SeriesFunc, in *model.Cube, schema model.Schema, params []float64) (*model.Cube, error) {
	_, vals, err := in.SortedSeries()
	if err != nil {
		return nil, err
	}
	res, err := f(vals, SeasonLength(in.Schema().Dims[0].Type.Freq), params)
	if err != nil {
		return nil, err
	}
	if len(res) != len(vals) {
		return nil, fmt.Errorf("black box %s returned %d values for %d inputs", name, len(res), len(vals))
	}
	return in.DeriveColumn(schema, res, nil)
}

// SeriesPoint is one observation of a time series.
type SeriesPoint struct {
	P model.Period
	V float64
}

// ApplySeries runs the named black-box operator over a whole series given
// as points in any order: it sorts pts chronologically in place and
// replaces each value with the operator's result at that period. The
// season length is that of the first period's frequency. Duplicate periods
// (a malformed but reachable input) are ordered by value: sort.Slice is
// unstable, and a nondeterministic order would leak into the output.
func ApplySeries(name string, pts []SeriesPoint, params []float64) error {
	fn, err := Series(name)
	if err != nil {
		return err
	}
	sort.Slice(pts, func(i, j int) bool {
		if c := pts[i].P.Compare(pts[j].P); c != 0 {
			return c < 0
		}
		return pts[i].V < pts[j].V
	})
	vals := make([]float64, len(pts))
	for i, pt := range pts {
		vals[i] = pt.V
	}
	seasonLen := 1
	if len(pts) > 0 {
		seasonLen = SeasonLength(pts[0].P.Freq)
	}
	res, err := fn(vals, seasonLen, params)
	if err != nil {
		return err
	}
	for i := range pts {
		pts[i].V = res[i]
	}
	return nil
}

// IsBlackBox reports whether name is a registered black-box series
// operator.
func IsBlackBox(name string) bool {
	i, ok := infos[name]
	return ok && i.Class == ClassBlackBox
}

var seriesFuncs = map[string]SeriesFunc{
	"stl_t": func(vals []float64, seasonLen int, _ []float64) ([]float64, error) {
		t, _, _ := Decompose(vals, seasonLen)
		return t, nil
	},
	"stl_s": func(vals []float64, seasonLen int, _ []float64) ([]float64, error) {
		_, s, _ := Decompose(vals, seasonLen)
		return s, nil
	},
	"stl_i": func(vals []float64, seasonLen int, _ []float64) ([]float64, error) {
		_, _, r := Decompose(vals, seasonLen)
		return r, nil
	},
	"movavg": func(vals []float64, _ int, params []float64) ([]float64, error) {
		if len(params) != 1 {
			return nil, fmt.Errorf("ops: movavg needs a window parameter")
		}
		w := int(params[0])
		if w < 1 {
			return nil, fmt.Errorf("ops: movavg window must be >= 1, got %d", w)
		}
		return MovingAverage(vals, w), nil
	},
	"cumsum": func(vals []float64, _ int, _ []float64) ([]float64, error) {
		out := make([]float64, len(vals))
		s := 0.0
		for i, v := range vals {
			s += v
			out[i] = s
		}
		return out, nil
	},
	"lintrend": func(vals []float64, _ int, _ []float64) ([]float64, error) {
		return LinearTrend(vals), nil
	},
}

// MovingAverage returns the trailing moving average with window w: each
// output point is the mean of the last min(w, i+1) values. The shrinking
// start keeps the operator total, so result cubes stay functional.
func MovingAverage(vals []float64, w int) []float64 {
	out := make([]float64, len(vals))
	sum := 0.0
	for i, v := range vals {
		sum += v
		if i >= w {
			sum -= vals[i-w]
		}
		n := w
		if i+1 < w {
			n = i + 1
		}
		out[i] = sum / float64(n)
	}
	return out
}

// LinearTrend fits y = a + b·i by ordinary least squares over the series
// index and returns the fitted values.
func LinearTrend(vals []float64) []float64 {
	n := float64(len(vals))
	out := make([]float64, len(vals))
	if len(vals) == 0 {
		return out
	}
	if len(vals) == 1 {
		out[0] = vals[0]
		return out
	}
	var sx, sy, sxx, sxy float64
	for i, v := range vals {
		x := float64(i)
		sx += x
		sy += v
		sxx += x * x
		sxy += x * v
	}
	den := n*sxx - sx*sx
	b := (n*sxy - sx*sy) / den
	a := (sy - b*sx) / n
	for i := range vals {
		out[i] = a + b*float64(i)
	}
	return out
}

// Decompose performs a classical additive seasonal decomposition by moving
// averages, standing in for R's stl(): trend by centered moving average of
// one seasonal cycle (with shrinking windows at the boundaries so the
// operator stays total), seasonal as the mean detrended value per season
// position re-centred to zero mean, remainder as the residual. The three
// components always satisfy trend + seasonal + remainder = series.
func Decompose(vals []float64, seasonLen int) (trend, seasonal, remainder []float64) {
	n := len(vals)
	trend = make([]float64, n)
	seasonal = make([]float64, n)
	remainder = make([]float64, n)
	if n == 0 {
		return trend, seasonal, remainder
	}
	if seasonLen < 1 {
		seasonLen = 1
	}

	// Trend: centered moving average with half-window h = seasonLen/2; at
	// the boundaries the window shrinks symmetrically.
	h := seasonLen / 2
	if h < 1 {
		h = 1
	}
	for i := 0; i < n; i++ {
		lo, hi := i-h, i+h
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		w := min(i-lo, hi-i) // symmetric shrink
		sum := 0.0
		for j := i - w; j <= i+w; j++ {
			sum += vals[j]
		}
		trend[i] = sum / float64(2*w+1)
	}

	if seasonLen > 1 && n >= seasonLen {
		// Seasonal: mean detrended value by position in the cycle,
		// re-centred so the seasonal component sums to zero over a cycle.
		means := make([]float64, seasonLen)
		counts := make([]int, seasonLen)
		for i := 0; i < n; i++ {
			means[i%seasonLen] += vals[i] - trend[i]
			counts[i%seasonLen]++
		}
		var grand float64
		for k := range means {
			if counts[k] > 0 {
				means[k] /= float64(counts[k])
			}
			grand += means[k]
		}
		grand /= float64(seasonLen)
		for k := range means {
			means[k] -= grand
		}
		for i := 0; i < n; i++ {
			seasonal[i] = means[i%seasonLen]
		}
	}

	for i := 0; i < n; i++ {
		remainder[i] = vals[i] - trend[i] - seasonal[i]
	}
	return trend, seasonal, remainder
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
