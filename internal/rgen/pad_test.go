package rgen

import (
	"strings"
	"testing"
)

func TestRPadMerge(t *testing.T) {
	m := compile(t, `
cube A(t: year) measure v
cube B(t: year) measure v
S := vsum0(A, B)
D := vsub0(A, B)
`)
	r, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"all = TRUE)", // outer merge
		"[is.na(",     // NA fill with the default
		"<- 0",
	} {
		if !strings.Contains(r, frag) {
			t.Errorf("R pad output missing %q:\n%s", frag, r)
		}
	}
	if !strings.Contains(r, "+") || !strings.Contains(r, "-") {
		t.Errorf("R pad output missing operators:\n%s", r)
	}
}

func TestRFilterStep(t *testing.T) {
	m := compile(t, "cube A(t: year) measure v\nB := stl_i(A)")
	r, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r, `"remainder"`) {
		t.Errorf("stl_i component missing:\n%s", r)
	}
}
