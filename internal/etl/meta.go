// Package etl implements the ETL execution target of Section 5.3: schema
// mappings are translated into metadata-driven ETL jobs — one flow per tgd,
// composed "according to tgds total order" — and executed by a streaming
// runtime in which each step is a goroutine and rows flow through channels
// in batches, in the order a row-at-a-time stream would carry them.
//
// Flow shapes follow the paper's Figure 1: a data source step per lhs atom,
// merge steps joining the streams on dimensions, a calculation step
// implementing the rhs, an aggregation step when grouping is needed, and an
// output step writing the result back. Whole-series operators, which the
// target does not support natively (see ops.Supports), are provided as
// user-defined steps, matching "calculation steps can be easily replaced by
// user-defined steps in order to extend the statistical capabilities".
package etl

import (
	"encoding/json"
	"fmt"
	"strings"

	"exlengine/internal/frame"
	"exlengine/internal/model"
)

// StepType identifies the kind of an ETL step.
type StepType string

// Step types. TableInput folds the per-atom key preparation (renames, key
// shifts, constant filters) into the source step's metadata.
const (
	TableInput  StepType = "table_input"
	MergeJoin   StepType = "merge_join"
	Calculator  StepType = "calculator"
	Aggregator  StepType = "aggregator"
	SeriesCalc  StepType = "series_calc" // user-defined whole-stream step
	PadJoin     StepType = "pad_join"    // outer join with default padding (vsum0/vsub0)
	TableOutput StepType = "table_output"
)

// Calc is one calculated field of a Calculator step. The expression is
// carried in-memory for execution; Display is its textual form for the
// metadata catalog.
type Calc struct {
	Field   string `json:"field"`
	Display string `json:"expr"`

	expr frame.Expr
}

// Step is the metadata of one ETL step.
type Step struct {
	Name string   `json:"name"`
	Type StepType `json:"type"`

	// TableInput / TableOutput.
	Table  string   `json:"table,omitempty"`
	Fields []string `json:"fields,omitempty"` // source columns
	As     []string `json:"as,omitempty"`     // stream names for Fields
	Shifts []int64  `json:"shifts,omitempty"` // per-field key shift (inputs)

	// TableInput constant filter (from constant lhs dimension terms).
	FilterField string `json:"filter_field,omitempty"`
	FilterValue string `json:"filter_value,omitempty"`
	filterVal   model.Value

	// MergeJoin.
	Left  string   `json:"left,omitempty"`
	Right string   `json:"right,omitempty"`
	Keys  []string `json:"keys,omitempty"` // join or group keys

	// Calculator.
	Calcs []Calc `json:"calcs,omitempty"`

	// Aggregator.
	Agg        string `json:"agg,omitempty"`
	ValueField string `json:"value_field,omitempty"`
	OutField   string `json:"out_field,omitempty"`

	// SeriesCalc.
	Op        string    `json:"op,omitempty"`
	Params    []float64 `json:"params,omitempty"`
	TimeField string    `json:"time_field,omitempty"`

	// PadJoin: the right stream's value field and the default substituted
	// for missing tuples (Agg-style fields Left/Right/Keys/ValueField/
	// OutField are reused for the left stream and the output).
	RightField string  `json:"right_field,omitempty"`
	Default    float64 `json:"default,omitempty"`
}

// Hop is a directed edge between two steps of a flow.
type Hop struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// Flow is the translation of one tgd: a small DAG of steps.
type Flow struct {
	TgdID  string `json:"tgd"`
	Target string `json:"target"`
	Steps  []Step `json:"steps"`
	Hops   []Hop  `json:"hops"`
}

// Step returns the step with the given name, or nil.
func (f *Flow) Step(name string) *Step {
	for i := range f.Steps {
		if f.Steps[i].Name == name {
			return &f.Steps[i]
		}
	}
	return nil
}

// Inputs lists the names of the steps feeding the given step, preserving
// hop order.
func (f *Flow) Inputs(name string) []string {
	var out []string
	for _, h := range f.Hops {
		if h.To == name {
			out = append(out, h.From)
		}
	}
	return out
}

// input returns the first step feeding the given step, or "" where none does.
func (f *Flow) input(name string) string {
	for _, h := range f.Hops {
		if h.To == name {
			return h.From
		}
	}
	return ""
}

// Job is a complete ETL job: flows in tgd total order.
type Job struct {
	Name  string  `json:"name"`
	Flows []*Flow `json:"flows"`
}

// MarshalMetadata is the metadata-catalog export of the job as indented
// JSON (the equivalent of feeding Kettle's repository).
func (j *Job) MarshalMetadata() ([]byte, error) {
	return json.MarshalIndent(j, "", "  ")
}

// Summary renders the flow structure compactly, one flow per line, e.g.
//
//	t2 -> RGDP: table_input(RGDPPC), table_input(PQR) | merge_join | calculator | table_output(RGDP)
func (j *Job) Summary() string {
	var b strings.Builder
	for _, f := range j.Flows {
		fmt.Fprintf(&b, "%s -> %s: %s\n", f.TgdID, f.Target, f.structure())
	}
	return b.String()
}

func (f *Flow) structure() string {
	var stages []string
	var inputs []string
	for _, s := range f.Steps {
		stage := string(s.Type)
		switch s.Type {
		case TableInput:
			inputs = append(inputs, fmt.Sprintf("%s(%s)", s.Type, s.Table))
			continue
		case Aggregator:
			stage += "(" + s.Agg + ")"
		case SeriesCalc, PadJoin:
			stage += "(" + s.Op + ")"
		case TableOutput:
			stage += "(" + s.Table + ")"
		}
		stages = append(stages, stage)
	}
	all := append([]string{strings.Join(inputs, ", ")}, stages...)
	return strings.Join(all, " | ")
}
