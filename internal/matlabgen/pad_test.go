package matlabgen

import (
	"strings"
	"testing"
)

func TestMatlabPadMerge(t *testing.T) {
	m := compile(t, `
cube A(t: year) measure v
cube B(t: year) measure v
S := vsum0(A, B)
`)
	ml, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"outerjoin(", "'MergeKeys', true", "fillmissing("} {
		if !strings.Contains(ml, frag) {
			t.Errorf("Matlab pad output missing %q:\n%s", frag, ml)
		}
	}
}

func TestMatlabFilterAndShiftExpr(t *testing.T) {
	m := compile(t, "cube A(t: quarter) measure v\nB := shift(A, -2)")
	ml, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ml, "- 2") {
		t.Errorf("negative shift missing:\n%s", ml)
	}
}
