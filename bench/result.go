package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"exlengine/internal/obs"
)

const resultSchema = "exlengine-bench/1"

// resultFile is what -out writes: the runs of one or more invocations under
// one seed and sizing, with what is needed to judge whether two files may
// be compared. Invocations given the same -out append their runs, so a set
// of repeated runs builds up in one file for -compare.
type resultFile struct {
	Schema     string  `json:"schema"`
	Comparable bool    `json:"comparable"` // false under the smoke sizing
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds_per_pass"`
	Sizing     sizing  `json:"sizing"`
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Written    string  `json:"written"`
	Noisy      bool    `json:"noisy"`
	// Claim names the end-to-end metric and workload a change claims to
	// move. The benchmark itself claims nothing.
	Claim *string      `json:"claim"`
	Runs  []*runResult `json:"runs"`
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout, or no git
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return &rf, nil
}

// writeResults writes the runs to path, after the runs already there when
// the file holds results of the same seed and sizing.
func (b *bench) writeResults(path string, runs []*runResult) error {
	rf := &resultFile{
		Schema: resultSchema, Comparable: b.sz.Name == fullSizing.Name,
		Seed: b.seed, Seconds: b.seconds, Sizing: b.sz,
		GitSHA: gitSHA(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		Written: time.Now().UTC().Format(time.RFC3339),
	}
	if old, err := readResultFile(path); err == nil {
		if old.Seed != rf.Seed || old.Sizing.Name != rf.Sizing.Name || old.Seconds != rf.Seconds {
			return fmt.Errorf("%s holds runs of another seed, sizing or run length; not appending", path)
		}
		rf.Runs, rf.Noisy = old.Runs, old.Noisy
	} else if !os.IsNotExist(err) {
		return err
	}
	rf.Runs = append(rf.Runs, runs...)
	for _, r := range runs {
		rf.Noisy = rf.Noisy || r.Noisy
	}
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// spanLine is one span in the trace file.
type spanLine struct {
	ID       int64      `json:"id"`
	Parent   int64      `json:"parent,omitempty"`
	Name     string     `json:"name"`
	StartUS  int64      `json:"start_us"` // since the first span of the epoch
	EndUS    int64      `json:"end_us"`
	Workload string     `json:"workload"`
	Epoch    int        `json:"epoch"` // -1: the replayed calls after the epochs
	Step     *int64     `json:"step,omitempty"`
	Attrs    []obs.Attr `json:"attrs,omitempty"`
	Err      string     `json:"err,omitempty"`
}

// writeTrace writes every span of the traced epochs as JSON Lines. Spans
// were kept in memory while the benchmark ran.
func writeTrace(w io.Writer, epochs []tracedEpoch) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, te := range epochs {
		roots := te.tracer.Roots()
		if len(roots) == 0 {
			continue
		}
		base := roots[0].Start
		var emit func(s *obs.Span, parent int64, step *int64) error
		emit = func(s *obs.Span, parent int64, step *int64) error {
			if s.Name == "op" {
				n := attrInt(s, "step")
				step = &n
			}
			line := spanLine{
				ID: s.ID, Parent: parent, Name: s.Name,
				StartUS: s.Start.Sub(base).Microseconds(), EndUS: s.Start.Add(s.Dur).Sub(base).Microseconds(),
				Workload: te.workload, Epoch: te.epoch, Step: step, Attrs: s.Attrs, Err: s.Err,
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
			for _, c := range s.Children() {
				if err := emit(c, s.ID, step); err != nil {
					return err
				}
			}
			return nil
		}
		for _, r := range roots {
			if err := emit(r, 0, nil); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory (the root of the
// checkout) or its parent (when run from this directory, as go test does).
func loadSpec() (*benchmarkSpec, error) {
	var raw []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if raw, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them, so a spread printed here
// is the spread the benchmark's driver will see.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return ratio(q3-q1, median(values))
}

type comparison struct {
	Workload, Metric, Unit, Verdict string
	A, B, Ratio, Spread, Bound      float64
	RunsA, RunsB                    int
}

// verdict judges b against a: worse or better by more than the bound,
// the same within it, or unresolved when either side's own runs spread
// wider than the bound.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (string, float64, float64) {
	ma, mb := median(a), median(b)
	worse := ratio(mb-ma, ma)
	if !lowerIsBetter {
		worse = -worse
	}
	sp := spread(a)
	if s := spread(b); s > sp {
		sp = s
	}
	switch {
	case sp > bound:
		return "unresolved", ratio(mb, ma), sp
	case worse > bound:
		return "worse", ratio(mb, ma), sp
	case worse < -bound:
		return "better", ratio(mb, ma), sp
	}
	return "same", ratio(mb, ma), sp
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether b regressed against a.
func compareFiles(w io.Writer, pathA, pathB string, spec *benchmarkSpec) (bool, error) {
	fa, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	if fa.Seed != fb.Seed || fa.Sizing.Name != fb.Sizing.Name || fa.Seconds != fb.Seconds {
		fmt.Fprintln(w, "warning: the two files differ in seed, sizing or run length")
	}
	collect := func(rf *resultFile, workload, metric string) (vals []float64, attempted, failed int) {
		for _, r := range rf.Runs {
			if r.Workload != workload || r.Traced {
				continue
			}
			attempted += r.Attempted
			failed += r.Failed
			if v, ok := r.Metrics[metric]; ok {
				vals = append(vals, v.Value)
			}
		}
		return vals, attempted, failed
	}
	regressed := false
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "b/a", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		var attA, failA, attB, failB int
		for _, em := range spec.EndToEnd {
			a, aa, af := collect(fa, wl.Name, em.Name)
			bv, ba, bf := collect(fb, wl.Name, em.Name)
			attA, failA, attB, failB = aa, af, ba, bf
			if len(a) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "%-20s %-18s %14s %14s %8s %8s %7.2f  missing\n", wl.Name, em.Name, "-", "-", "-", "-", em.Bound)
				regressed = true
				continue
			}
			v, r, sp := verdict(a, bv, em.Better == "lower", em.Bound)
			fmt.Fprintf(w, "%-20s %-18s %14.4f %14.4f %8.3f %8.3f %7.2f  %s (%d vs %d runs, %s)\n",
				wl.Name, em.Name, median(a), median(bv), r, sp, em.Bound, v, len(a), len(bv), em.Unit)
			regressed = regressed || v == "worse"
		}
		shareA, shareB := ratio(float64(failA), float64(attA)), ratio(float64(failB), float64(attB))
		v := "same"
		if shareB > shareA {
			v, regressed = "worse", true
		}
		fmt.Fprintf(w, "%-20s %-18s %14.4f %14.4f %8s %8s %7s  %s\n", wl.Name, "fail_share", shareA, shareB, "-", "-", "0", v)
	}
	return regressed, nil
}
