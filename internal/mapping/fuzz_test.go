package mapping

import (
	"slices"
	"testing"

	"exlengine/internal/exl"
)

// FuzzGenerate holds the front door of the translation: for any source of
// at most 4 KiB that parses and analyzes, Generate and GenerateNormalized
// return without panicking, and the fused and the normalized mapping name
// the same non-auxiliary targets, in the same order.
func FuzzGenerate(f *testing.F) {
	for _, src := range []string{
		gdpSource,
		"cube A(q: quarter) measure v\nB := A + shift(A, 1) + shift(A, 2)\nC := (A + B) * 2 - A / B\n",
		"cube P(q: quarter, r: string) measure p\ncube S(q: quarter) measure s\nR := P / S\nT := sum(P * 2, group by q)\nU := shift(T - S, -1)\n",
		"cube A(t: year) measure v\ncube B(t: year) measure w\nS := vsum0(A + 1, B)\nM := movavg(ln(A) + B, 3)\nG := avg(abs(S), group by t)\n",
		"cube D(d: day, r: string) measure p\nY := max(D, group by year(d) as y, r)\nZ := count(-Y)\n",
	} {
		f.Add(src)
	}
	targets := func(m *Mapping) []string {
		var out []string
		for _, t := range m.Tgds {
			if !t.Auxiliary {
				out = append(out, t.Target())
			}
		}
		return out
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			return
		}
		prog, err := exl.Parse(src)
		if err != nil {
			return
		}
		a, err := exl.Analyze(prog, nil)
		if err != nil {
			return
		}
		fused, ferr := Generate(a)
		norm, nerr := GenerateNormalized(a)
		if (ferr == nil) != (nerr == nil) {
			t.Fatalf("Generate error %v, GenerateNormalized error %v", ferr, nerr)
		}
		if ferr != nil {
			return
		}
		if got, want := targets(fused), targets(norm); !slices.Equal(got, want) {
			t.Fatalf("fused mapping names targets %v, normalized %v", got, want)
		}
	})
}
