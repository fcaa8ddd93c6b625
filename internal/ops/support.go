package ops

// Target identifies an execution target system. The paper's EXLEngine
// translates schema mappings for relational databases (SQL), statistical
// tools (R, Matlab — here the frame engine) and ETL tools; the chase is the
// reference executor used to validate the others.
type Target string

// Known execution targets.
const (
	TargetChase Target = "chase"
	TargetSQL   Target = "sql"
	TargetETL   Target = "etl"
	TargetFrame Target = "frame" // the R/Matlab-style data-frame engine
)

// AllTargets lists every execution target, reference chase included.
var AllTargets = []Target{TargetChase, TargetSQL, TargetETL, TargetFrame}

// Supports reports whether the target system natively supports the
// operator, mirroring the paper's technical metadata ("it is not the case
// that all operators are natively supported by all systems"). The chase
// supports everything; SQL supports black boxes through tabular functions;
// the frame engine maps every operator to data-frame primitives; the ETL
// engine has no native whole-series steps, so black-box operators must be
// dispatched elsewhere.
func Supports(t Target, opName string) bool {
	info, ok := infos[opName]
	if !ok {
		// Algebraic operators (add, sub, mul, div, neg) reach here; every
		// target supports tuple-level arithmetic.
		_, err := OpOf(opName)
		return err == nil
	}
	if t == TargetETL && info.Class == ClassBlackBox {
		return false
	}
	// The emitted SQL dialect has no outer joins, so padded vectorial
	// operators cannot be translated for the DBMS target ("depending on
	// the specific operators used in the rhs, the translation may be
	// actually feasible or not", Section 5).
	if t == TargetSQL && info.Class == ClassVector {
		return false
	}
	return true
}

// Preference returns the execution targets for the operator in decreasing
// order of suitability. The determination engine uses it to assign each
// derived cube to "the most suitable target system according to the
// specificity of the involved operators" (Section 6): statistical black
// boxes prefer the matrix-oriented frame engine, aggregations and joins
// prefer the DBMS, plain arithmetic prefers the ETL streamer.
func Preference(opName string) []Target {
	info, ok := infos[opName]
	if !ok {
		return []Target{TargetETL, TargetSQL, TargetFrame, TargetChase}
	}
	switch info.Class {
	case ClassBlackBox:
		return []Target{TargetFrame, TargetSQL, TargetChase}
	case ClassVector:
		return []Target{TargetFrame, TargetETL, TargetChase}
	case ClassAggregation:
		return []Target{TargetSQL, TargetFrame, TargetETL, TargetChase}
	case ClassShift:
		return []Target{TargetSQL, TargetFrame, TargetETL, TargetChase}
	default:
		return []Target{TargetETL, TargetSQL, TargetFrame, TargetChase}
	}
}
