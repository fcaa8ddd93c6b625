package mapping

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestFuseIsLinear: fusing one statement costs time proportional to what
// it inlines. A sum of 4 000 cube terms and a sum of a cube with 2 000 of
// its shifts each fuse into a single tgd in well under a second; a pass
// that rescans the growing tgd at every inline takes tens of seconds on
// the first and several on the second. Printing the fused tgd is linear
// as well.
func TestFuseIsLinear(t *testing.T) {
	sum := func(n int, term func(i int) string) string {
		var b strings.Builder
		b.WriteString("cube A(q: quarter) measure v\nB := A")
		for i := 1; i < n; i++ {
			b.WriteString(" + ")
			b.WriteString(term(i))
		}
		b.WriteByte('\n')
		return b.String()
	}
	for _, tc := range []struct {
		name  string
		src   string
		atoms int
	}{
		{"A+A+…", sum(4000, func(int) string { return "A" }), 1},
		{"A+shift(A,1)+…", sum(2001, func(i int) string { return fmt.Sprintf("shift(A, %d)", i) }), 2001},
	} {
		a := analyze(t, tc.src)
		start := time.Now()
		m, err := Generate(a)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Tgds) != 1 || len(m.Tgds[0].Lhs) != tc.atoms {
			t.Fatalf("%s: %d tgds, want one with %d atoms", tc.name, len(m.Tgds), tc.atoms)
		}
		if elapsed > time.Second {
			t.Errorf("%s: Generate took %v, want under 1s", tc.name, elapsed)
		}
		// Printing the tgd — a run fingerprints its statement — is linear
		// too: the measure is written into one builder, not concatenated
		// level by level.
		start = time.Now()
		text := m.Tgds[0].String()
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("%s: printing the %d-byte tgd took %v, want under 1s", tc.name, len(text), elapsed)
		}
	}
}
