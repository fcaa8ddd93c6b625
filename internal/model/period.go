// Package model implements the Matrix data model described in the paper:
// statistical data as dimensional cubes, i.e. partial functions
// F: X1 × … × Xn → Y from typed dimension tuples to a numeric measure.
// Time series are cubes with a single time dimension.
//
// The package provides typed dimension values (strings, integers and time
// periods at several frequencies), cube schemas, and in-memory cube
// instances with functional-dependency (egd) semantics: a cube holds at
// most one measure value per dimension tuple.
package model

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Frequency is the sampling frequency of a time period. The paper's Matrix
// model distinguishes time dimensions by frequency; frequency conversion
// (e.g. the quarter() function applied to a daily dimension) and the shift
// operator are defined in terms of it.
type Frequency uint8

// Supported frequencies, from finest to coarsest.
const (
	FreqInvalid Frequency = iota
	Daily
	Monthly
	Quarterly
	Annual
)

// String returns the lowercase name of the frequency ("day", "month",
// "quarter", "year").
func (f Frequency) String() string {
	if f == FreqInvalid || f > Annual {
		return "invalid"
	}
	return [...]string{Daily: "day", Monthly: "month", Quarterly: "quarter", Annual: "year"}[f]
}

// ParseFrequency converts a frequency name as used in EXL cube declarations
// ("day", "month", "quarter", "year") into a Frequency.
func ParseFrequency(s string) (Frequency, error) {
	switch strings.ToLower(s) {
	case "day", "daily":
		return Daily, nil
	case "month", "monthly":
		return Monthly, nil
	case "quarter", "quarterly":
		return Quarterly, nil
	case "year", "annual", "yearly":
		return Annual, nil
	default:
		return FreqInvalid, fmt.Errorf("model: unknown frequency %q", s)
	}
}

// Period is a point on a time axis at a given frequency. Internally it is
// an ordinal count since a fixed epoch (1970-01-01 for days, year 0 for
// months, quarters and years), which makes the shift operator a plain
// integer addition regardless of calendar irregularities.
type Period struct {
	Freq Frequency
	Ord  int64
}

const daySeconds = 86400

// NewDaily returns the daily period for the given civil date.
func NewDaily(year int, month time.Month, day int) Period {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Period{Freq: Daily, Ord: t.Unix() / daySeconds}
}

// NewMonthly returns the monthly period for the given year and month.
func NewMonthly(year int, month time.Month) Period {
	return Period{Freq: Monthly, Ord: int64(year)*12 + int64(month) - 1}
}

// NewQuarterly returns the quarterly period for the given year and quarter
// (1 through 4).
func NewQuarterly(year, quarter int) Period {
	return Period{Freq: Quarterly, Ord: int64(year)*4 + int64(quarter) - 1}
}

// NewAnnual returns the annual period for the given year.
func NewAnnual(year int) Period {
	return Period{Freq: Annual, Ord: int64(year)}
}

// Date returns the civil date of a daily period. It panics if the period is
// not daily.
func (p Period) Date() time.Time {
	if p.Freq != Daily {
		panic("model: Date called on non-daily period")
	}
	return time.Unix(p.Ord*daySeconds, 0).UTC()
}

// Year returns the calendar year the period falls in.
func (p Period) Year() int {
	switch p.Freq {
	case Daily:
		return p.Date().Year()
	case Monthly:
		y := p.Ord / 12
		if p.Ord%12 < 0 {
			y--
		}
		return int(y)
	case Quarterly:
		y := p.Ord / 4
		if p.Ord%4 < 0 {
			y--
		}
		return int(y)
	case Annual:
		return int(p.Ord)
	default:
		panic("model: Year on invalid period")
	}
}

// Shift returns the period s steps later at the same frequency. Negative s
// shifts backwards. This is the dimension arithmetic used by the EXL shift
// operator and by fused tgds such as GDPT(q-1, r2).
func (p Period) Shift(s int64) Period {
	return Period{Freq: p.Freq, Ord: p.Ord + s}
}

// Convert maps the period to a coarser frequency (the scalar functions
// quarter(), month() and year() of EXL group-by lists). Converting to the
// same frequency is the identity; converting to a finer frequency is an
// error because it is not a function.
func (p Period) Convert(to Frequency) (Period, error) {
	if to == p.Freq {
		return p, nil
	}
	if to < p.Freq {
		return Period{}, fmt.Errorf("model: cannot convert %s period to finer frequency %s", p.Freq, to)
	}
	switch p.Freq {
	case Daily:
		d := p.Date()
		switch to {
		case Monthly:
			return NewMonthly(d.Year(), d.Month()), nil
		case Quarterly:
			return NewQuarterly(d.Year(), (int(d.Month())-1)/3+1), nil
		case Annual:
			return NewAnnual(d.Year()), nil
		}
	case Monthly:
		y, m := p.Year(), int(p.Ord-int64(p.Year())*12)+1
		switch to {
		case Quarterly:
			return NewQuarterly(y, (m-1)/3+1), nil
		case Annual:
			return NewAnnual(y), nil
		}
	case Quarterly:
		if to == Annual {
			return NewAnnual(p.Year()), nil
		}
	}
	return Period{}, fmt.Errorf("model: unsupported period conversion %s -> %s", p.Freq, to)
}

// Month returns the month (1-12) of a daily or monthly period.
func (p Period) Month() (int, error) {
	switch p.Freq {
	case Daily:
		return int(p.Date().Month()), nil
	case Monthly:
		return int(p.Ord-int64(p.Year())*12) + 1, nil
	default:
		return 0, fmt.Errorf("model: Month undefined for %s period", p.Freq)
	}
}

// Quarter returns the quarter (1-4) of a daily, monthly or quarterly period.
func (p Period) Quarter() (int, error) {
	switch p.Freq {
	case Daily:
		return (int(p.Date().Month())-1)/3 + 1, nil
	case Monthly:
		m, _ := p.Month()
		return (m-1)/3 + 1, nil
	case Quarterly:
		return int(p.Ord-int64(p.Year())*4) + 1, nil
	default:
		return 0, fmt.Errorf("model: Quarter undefined for %s period", p.Freq)
	}
}

// String formats the period in the conventional statistical notation:
// "2006-01-02" (daily), "2006-01" (monthly), "2006-Q1" (quarterly),
// "2006" (annual).
func (p Period) String() string {
	switch p.Freq {
	case Daily:
		return p.Date().Format("2006-01-02")
	case Monthly:
		m, _ := p.Month()
		return fmt.Sprintf("%04d-%02d", p.Year(), m)
	case Quarterly:
		q, _ := p.Quarter()
		return fmt.Sprintf("%04d-Q%d", p.Year(), q)
	case Annual:
		return fmt.Sprintf("%04d", p.Year())
	default:
		return "invalid-period"
	}
}

// ParsePeriod parses the String representation back into a Period.
func ParsePeriod(s string) (Period, error) {
	switch {
	case strings.Contains(s, "-Q"):
		parts := strings.SplitN(s, "-Q", 2)
		y, err1 := strconv.Atoi(parts[0])
		q, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || q < 1 || q > 4 {
			return Period{}, fmt.Errorf("model: invalid quarterly period %q", s)
		}
		return NewQuarterly(y, q), nil
	case strings.Count(s, "-") == 2:
		t, err := time.Parse("2006-01-02", s)
		if err != nil {
			return Period{}, fmt.Errorf("model: invalid daily period %q: %v", s, err)
		}
		return NewDaily(t.Year(), t.Month(), t.Day()), nil
	case strings.Count(s, "-") == 1:
		t, err := time.Parse("2006-01", s)
		if err != nil {
			return Period{}, fmt.Errorf("model: invalid monthly period %q: %v", s, err)
		}
		return NewMonthly(t.Year(), t.Month()), nil
	default:
		y, err := strconv.Atoi(s)
		if err != nil {
			return Period{}, fmt.Errorf("model: invalid annual period %q", s)
		}
		return NewAnnual(y), nil
	}
}

// Compare orders periods first by frequency, then chronologically.
func (p Period) Compare(o Period) int {
	if c := cmp.Compare(p.Freq, o.Freq); c != 0 {
		return c
	}
	return cmp.Compare(p.Ord, o.Ord)
}
