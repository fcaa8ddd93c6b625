// Package backend is the seam between an executable schema mapping and
// the target systems (Sections 5 and 6): Run executes a mapping on one
// target, Render emits the artifact a target would be handed. These are
// the only places that know what either takes on each target; the
// dispatcher, the differential harnesses, the benchmarks and the CLIs call
// them.
package backend

import (
	"context"
	"fmt"

	"exlengine/internal/chase"
	"exlengine/internal/etl"
	"exlengine/internal/frame"
	"exlengine/internal/mapping"
	"exlengine/internal/matlabgen"
	"exlengine/internal/model"
	"exlengine/internal/ops"
	"exlengine/internal/rgen"
	"exlengine/internal/sqlengine"
	"exlengine/internal/sqlgen"
)

// Run executes m on target t over input (cube name → instance) and returns
// exactly the cubes of m.Derived: input twins and auxiliary relations stay
// behind. It holds on every target that an elementary cube missing from
// input is the empty relation; that a mapping the target's language cannot
// express is refused with a typed error (sqlgen.ErrUntranslatable) before
// anything runs; that an egd violation is model.ErrFunctional naming the
// first conflict in cube order; and that ctx is honoured — a cancelled run
// returns the context's error and leaves no goroutine behind.
//
// prev maps a derived cube to its previous version, frozen, where there is
// one; prev may be nil. It never changes what Run returns, only how a result
// is built: the SQL INSERT that fills its table, the ETL sink and
// frame.ToCube build a cube as the revision of prev[name] (model.NewBuilderOn).
// A result that holds its predecessor's dimension tuples, in order, is a
// version on the predecessor's key set (a patch over its column where it
// restates few of its measures), which the store adopts without a merge and
// whose cached partition the next GROUP BY over it reads. Any other result,
// and any result of a predecessor under another schema, is built as with none.
// The chase derives its results from its operands and reads no predecessor.
func Run(ctx context.Context, t ops.Target, m *mapping.Mapping, input, prev map[string]*model.Cube) (map[string]*model.Cube, error) {
	var all map[string]*model.Cube
	switch t {
	case ops.TargetChase:
		sol, err := chase.New(m).SolveContext(ctx, chase.Instance(input))
		if err != nil {
			return nil, err
		}
		all = sol

	case ops.TargetSQL:
		script, err := sqlgen.Translate(m)
		if err != nil {
			return nil, err
		}
		db := sqlengine.NewDB()
		db.Follow(prev)
		for _, name := range m.Elementary {
			if c := input[name]; c != nil {
				err = db.LoadCube(c)
			} else {
				err = db.CreateTableFor(m.Schemas[name])
			}
			if err != nil {
				return nil, err
			}
		}
		if err := sqlgen.ExecuteContext(ctx, script, db); err != nil {
			return nil, err
		}
		all = make(map[string]*model.Cube, len(m.Derived))
		for _, name := range m.Derived {
			if all[name], err = db.ExtractCube(m.Schemas[name]); err != nil {
				return nil, err
			}
		}

	case ops.TargetETL:
		job, err := etl.Translate(m, "run")
		if err != nil {
			return nil, err
		}
		if all, err = etl.RunContext(ctx, job, m, input, prev); err != nil {
			return nil, err
		}

	case ops.TargetFrame:
		script, err := frame.Translate(m)
		if err != nil {
			return nil, err
		}
		if all, err = frame.ExecuteContext(ctx, script, m, input, prev); err != nil {
			return nil, err
		}

	default:
		return nil, fmt.Errorf("backend: unknown target %s", t)
	}
	out := make(map[string]*model.Cube, len(m.Derived))
	for _, name := range m.Derived {
		if c, ok := all[name]; ok {
			out[name] = c
		}
	}
	return out, nil
}

// Artifact kinds for Render.
const (
	ArtifactTgds   = "tgds"
	ArtifactSQL    = "sql"
	ArtifactR      = "r"
	ArtifactMatlab = "matlab"
	ArtifactETL    = "etl"
)

// Render emits m as the artifact of the given kind: the tgds in logic
// notation, a SQL script, R or Matlab source, or the metadata (JSON) of an
// ETL job called name.
func Render(kind string, m *mapping.Mapping, name string) (string, error) {
	switch kind {
	case ArtifactTgds:
		return m.String(), nil
	case ArtifactSQL:
		script, err := sqlgen.Translate(m)
		if err != nil {
			return "", err
		}
		return script.String(), nil
	case ArtifactR:
		return rgen.Translate(m)
	case ArtifactMatlab:
		return matlabgen.Translate(m)
	case ArtifactETL:
		job, err := etl.Translate(m, name)
		if err != nil {
			return "", err
		}
		raw, err := job.MarshalMetadata()
		return string(raw), err
	default:
		return "", fmt.Errorf("backend: unknown artifact kind %q", kind)
	}
}
