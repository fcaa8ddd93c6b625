package engine

import (
	"context"

	"exlengine/internal/exl"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/obs"
)

// Compile parses and analyzes an EXL program against the external cube
// schemas and generates its schema mapping, fused unless fusion is false:
// the paper's Section 4 pipeline, behind a parse, an analyze and a generate
// span.
func Compile(ctx context.Context, src string, external map[string]model.Schema, fusion bool) (*mapping.Mapping, error) {
	prog, err := parse(ctx, src)
	if err != nil {
		return nil, err
	}
	return generate(ctx, prog, external, fusion)
}

// parse parses an EXL program behind a parse span.
func parse(ctx context.Context, src string) (*exl.Program, error) {
	_, span := obs.StartSpan(ctx, "parse")
	prog, err := exl.Parse(src)
	span.EndErr(err)
	return prog, err
}

// generate analyzes a parsed program against the external cube schemas and
// generates its schema mapping, behind an analyze and a generate span. The
// mapping carries the analyzed program.
func generate(ctx context.Context, prog *exl.Program, external map[string]model.Schema, fusion bool) (*mapping.Mapping, error) {
	_, aspan := obs.StartSpan(ctx, "analyze")
	a, err := exl.Analyze(prog, external)
	aspan.EndErr(err)
	if err != nil {
		return nil, err
	}
	_, gspan := obs.StartSpan(ctx, "generate")
	var m *mapping.Mapping
	if fusion {
		m, err = mapping.Generate(a)
	} else {
		m, err = mapping.GenerateNormalized(a)
	}
	if err == nil {
		gspan.SetAttr(obs.Int("tgds", len(m.Tgds)))
	}
	gspan.EndErr(err)
	return m, err
}

// CompileCache does nothing. An engine compiles each program once, when
// it is registered, and caches no compilation. The type exists only
// because bench/epoch.go and bench/layers.go still pass one to
// WithCompileCache.
type CompileCache struct{}

// NewCompileCache does nothing: it returns an inert CompileCache and
// ignores the capacity. It exists only for the call sites in
// bench/epoch.go and bench/layers.go.
func NewCompileCache(int) *CompileCache { return &CompileCache{} }

// WithCompileCache does nothing: the option leaves the engine as it is. It
// exists only for the call sites in bench/epoch.go and bench/layers.go.
func WithCompileCache(*CompileCache) Option { return func(*Engine) {} }
