package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"exlengine/internal/chase"
	"exlengine/internal/exl"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/store"
	"exlengine/internal/workload"
)

// panelProgram is the four-statement scalar chain over a quarterly panel.
// Every statement is tuple-level, so every fragment can be maintained from
// deltas, and the outputs have a closed form: A=2S, B=3S, C=S, D=S/2.
const panelProgram = `
cube S(q: quarter, r: string) measure v

A := S * 2
B := A + S
C := B - A
D := C * 0.5
`

// sizing fixes the data sizes and step counts. Sizes are part of the
// benchmark's definition: a run under another sizing is not comparable.
type sizing struct {
	Name          string `json:"name"`
	GDPDays       int    `json:"gdp_days"`
	GDPRegions    int    `json:"gdp_regions"`
	GDPRing       int    `json:"gdp_ring"`
	GDPSteps      int    `json:"gdp_steps"`
	ServeDays     int    `json:"serve_days"`
	ServeSteps    int    `json:"serve_steps"`
	ServeClients  int    `json:"serve_clients"`
	PanelQuarters int    `json:"panel_quarters"`
	PanelRegions  int    `json:"panel_regions"`
	PanelSteps    int    `json:"panel_steps"`
	ScalingTuples []int  `json:"scaling_tuples"`
	TargetRuns    int    `json:"target_runs"`
	RefLoopKeys   int    `json:"ref_loop_keys"`
}

var fullSizing = sizing{
	Name:    "full",
	GDPDays: 10000, GDPRegions: 20, GDPRing: 5, GDPSteps: 10,
	ServeDays: 2000, ServeSteps: 10, ServeClients: 2,
	PanelQuarters: 200, PanelRegions: 100, PanelSteps: 10,
	ScalingTuples: []int{5000, 20000, 80000},
	TargetRuns:    3,
	RefLoopKeys:   400_000,
}

// smokeSizing runs every code path in well under a second per workload;
// its numbers mean nothing and its output is marked non-comparable.
var smokeSizing = sizing{
	Name:    "smoke",
	GDPDays: 40, GDPRegions: 5, GDPRing: 2, GDPSteps: 2,
	ServeDays: 20, ServeSteps: 2, ServeClients: 2,
	PanelQuarters: 10, PanelRegions: 20, PanelSteps: 2,
	ScalingTuples: []int{100, 200, 400},
	TargetRuns:    1,
	RefLoopKeys:   4_000,
}

// churnShare is the share of an elementary cube's measures each revision
// replaces.
const churnShare = 0.01

// inputs is everything a workload feeds the program, generated once from
// the seed and replayed identically in every epoch. The cubes are never
// frozen and never read through Tuples() after generation: the store clones
// an unfrozen cube on Put, so every epoch's versions start without a cached
// sort order or memory estimate, as a revision arriving from outside would.
type inputs struct {
	program   string
	programID string
	// base holds the elementary cubes loaded at set-up; revised names the
	// one that gets revisions.
	base      map[string]*model.Cube
	revised   string
	revisions []*model.Cube // step k puts revisions[k%len(revisions)]
	steps     int
	// expected holds the derived cubes after the last step, from a
	// reference the code under test did not produce.
	expected map[string]*model.Cube
	tol      float64
	// revisionCSVBytes is the CSV-encoded size of each revision: the user
	// bytes that write amplification is measured against. Only the durable
	// workloads have it.
	revisionCSVBytes []int64
	// csv holds the CSV bodies the HTTP workload sends.
	baseCSV     map[string][]byte
	revisionCSV [][]byte
}

func (in *inputs) revision(step int) *model.Cube { return in.revisions[step%len(in.revisions)] }

// finalInputs returns the elementary cubes as they stand after the last step.
func (in *inputs) finalInputs() map[string]*model.Cube {
	out := make(map[string]*model.Cube, len(in.base))
	for n, c := range in.base {
		out[n] = c
	}
	out[in.revised] = in.revision(in.steps - 1)
	return out
}

// revise returns a copy of prev in which churnShare of the tuples, at
// positions drawn from rng, carry a new measure.
func revise(prev *model.Cube, tuples []model.Tuple, rng *rand.Rand, newVal func(old float64) float64) *model.Cube {
	out := prev.Clone()
	n := int(float64(len(tuples)) * churnShare)
	if n < 1 {
		n = 1
	}
	for _, pos := range rng.Perm(len(tuples))[:n] {
		dims := tuples[pos].Dims
		old, _ := out.Get(dims)
		if err := out.Replace(dims, newVal(old)); err != nil {
			panic(err) // the position was taken from the cube itself
		}
	}
	return out
}

func revisionChain(base *model.Cube, n int, rng *rand.Rand, newVal func(old float64) float64) []*model.Cube {
	tuples := base.Clone().Tuples() // on a clone: base keeps no cached order
	revs := make([]*model.Cube, n)
	prev := base
	for i := range revs {
		revs[i] = revise(prev, tuples, rng, newVal)
		prev = revs[i]
	}
	return revs
}

func csvBytes(c *model.Cube) []byte {
	var buf bytes.Buffer
	if err := store.WriteCSV(&buf, c.Clone()); err != nil {
		panic(err) // generated measures are finite
	}
	return buf.Bytes()
}

// compileMapping compiles a program outside any engine or cache.
func compileMapping(src string) (*mapping.Mapping, error) {
	prog, err := exl.Parse(src)
	if err != nil {
		return nil, err
	}
	a, err := exl.Analyze(prog, nil)
	if err != nil {
		return nil, err
	}
	return mapping.Generate(a)
}

// genGDP builds the GDP inputs: workload.GDPSource's cubes as the base and
// a chain of PDR revisions. The reference outputs are the chase solution of
// the mapping over the final inputs — the semantics every target must
// reproduce, computed here and not by the engine under test.
func genGDP(seed int64, days, regions, ring, steps int, withCSV bool) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	data := workload.GDPSource(workload.GDPConfig{Days: days, Regions: regions, Seed: seed})
	in := &inputs{
		program: workload.GDPProgram, programID: "gdp",
		base: data, revised: "PDR", steps: steps, tol: 1e-9,
	}
	in.revisions = revisionChain(data["PDR"], ring, rng, func(old float64) float64 {
		return old * (1 + 0.02*(rng.Float64()-0.5))
	})
	m, err := compileMapping(in.program)
	if err != nil {
		return nil, err
	}
	sol, err := chase.New(m).Solve(chase.Instance(in.finalInputs()))
	if err != nil {
		return nil, fmt.Errorf("reference chase: %w", err)
	}
	in.expected = make(map[string]*model.Cube, len(m.Derived))
	for _, name := range m.Derived {
		in.expected[name] = sol[name]
	}
	if withCSV {
		for _, r := range in.revisions {
			body := csvBytes(r)
			in.revisionCSVBytes = append(in.revisionCSVBytes, int64(len(body)))
			in.revisionCSV = append(in.revisionCSV, body)
		}
		in.baseCSV = map[string][]byte{"PDR": csvBytes(data["PDR"]), "RGDPPC": csvBytes(data["RGDPPC"])}
	}
	return in, nil
}

var panelSchema = model.NewSchema("S",
	[]model.Dim{{Name: "q", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "v")

// panelCube builds S(q, r) with measures that are multiples of 1/4 below
// 2^20, so 2S, 3S and S/2 are exact in float64 and the closed form holds
// to the bit.
func panelCube(quarters, regions int, rng *rand.Rand) *model.Cube {
	c := model.NewCube(panelSchema)
	start := model.NewQuarterly(1990, 1)
	for q := 0; q < quarters; q++ {
		for r := 0; r < regions; r++ {
			dims := []model.Value{model.Per(start.Shift(int64(q))), model.Str(fmt.Sprintf("r%03d", r))}
			if err := c.Put(dims, panelValue(rng)); err != nil {
				panic(err) // (q, r) pairs are distinct
			}
		}
	}
	return c
}

func panelValue(rng *rand.Rand) float64 { return float64(1+rng.Intn(1<<22)) / 4 }

func genPanel(seed int64, quarters, regions, steps int, csvSizes bool) *inputs {
	rng := rand.New(rand.NewSource(seed))
	base := panelCube(quarters, regions, rng)
	in := &inputs{
		program: panelProgram, programID: "panel",
		base: map[string]*model.Cube{"S": base}, revised: "S", steps: steps, tol: 0,
	}
	in.revisions = revisionChain(base, steps, rng, func(old float64) float64 {
		v := panelValue(rng)
		if v == old {
			v += 0.25
		}
		return v
	})
	for _, r := range in.revisions {
		if csvSizes {
			in.revisionCSVBytes = append(in.revisionCSVBytes, int64(len(csvBytes(r))))
		}
	}
	in.expected = panelClosedForm(in.revision(steps - 1))
	return in
}

// panelClosedForm computes the panel program's outputs from S by algebra.
func panelClosedForm(s *model.Cube) map[string]*model.Cube {
	factors := map[string]float64{"A": 2, "B": 3, "C": 1, "D": 0.5}
	out := make(map[string]*model.Cube, len(factors))
	for name, f := range factors {
		c := model.NewCube(panelSchema.Rename(name))
		f := f
		err := s.ForEach(func(t model.Tuple) error { return c.Put(t.Dims, t.Measure*f) })
		if err != nil {
			panic(err) // keys come from a cube, so they are distinct
		}
		out[name] = c
	}
	return out
}
