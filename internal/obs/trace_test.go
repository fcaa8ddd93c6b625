package obs

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"exlengine/internal/exlerr"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeClock returns a clock that advances one millisecond per reading,
// making span durations deterministic.
func fakeClock() func() time.Time {
	base := time.Unix(0, 0).UTC()
	n := 0
	return func() time.Time {
		t := base.Add(time.Duration(n) * time.Millisecond)
		n++
		return t
	}
}

// buildTrace records a small but representative run trace: nested spans,
// attributes, a failed attempt with a classified error, and a backoff.
func buildTrace() *Tracer {
	tr := NewTracer()
	tr.Now = fakeClock()
	ctx := ContextWithTracer(context.Background(), tr)

	rctx, run := StartSpan(ctx, "run", String("mode", "all"))
	_, det := StartSpan(rctx, "determine", Int("cubes", 5))
	det.SetAttr(Int("fragments", 1))
	det.End()

	fctx, frag := StartSpan(rctx, "fragment", Int("index", 0), Strings("cubes", []string{"GDP", "PQR"}), String("target", "sql"))
	_, att1 := StartSpan(fctx, "attempt", String("target", "sql"), Int("n", 1))
	att1.EndErr(exlerr.New(exlerr.Fatal, errors.New("connection reset")))
	_, back := StartSpan(fctx, "backoff", Dur("delay", 10*time.Millisecond))
	back.End()
	_, att2 := StartSpan(fctx, "attempt", String("target", "sql"), Int("n", 2))
	att2.End()
	frag.SetAttr(String("final", "sql"))
	frag.End()
	run.End()
	return tr
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestWriteTreeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTree(&buf, buildTrace()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tree.golden", buf.Bytes())
}

func TestWriteJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, buildTrace()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "spans.jsonl.golden", buf.Bytes())
}

func TestNoTracerIsNoOp(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "anything", String("k", "v"))
	if s != nil {
		t.Fatal("StartSpan without a tracer must return a nil span")
	}
	if ctx2 != ctx {
		t.Fatal("StartSpan without a tracer must return the context unchanged")
	}
	// All nil-span methods must be safe.
	s.SetAttr(Int("n", 1))
	s.End()
	s.EndErr(errors.New("x"))
	if s.Find("anything") != nil || s.FindAll("x") != nil || s.Children() != nil || s.Parent() != nil {
		t.Fatal("nil span accessors must return zero values")
	}
	if _, ok := s.Attr("k"); ok {
		t.Fatal("nil span has no attributes")
	}
	// Exporters on a nil tracer write nothing.
	var buf bytes.Buffer
	if err := WriteTree(&buf, nil); err != nil || buf.Len() != 0 {
		t.Fatal("WriteTree(nil) must write nothing")
	}
	if err := WriteJSONL(&buf, nil); err != nil || buf.Len() != 0 {
		t.Fatal("WriteJSONL(nil) must write nothing")
	}
}

// TestNoTracerSpanAllocatesNothing: with no tracer in the context, a span
// opened with attributes and ended allocates nothing — the attributes'
// variadic slice stays on the caller's stack, because a tracer copies what
// it keeps.
func TestNoTracerSpanAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		_, s := StartSpan(ctx, "chase.tgd", String("tgd", "A"), String("kind", "scalar"))
		s.End()
	}); n != 0 {
		t.Fatalf("StartSpan with two attributes and no tracer allocates %v times, want 0", n)
	}
}

func TestCurrentSpanAnnotation(t *testing.T) {
	tr := NewTracer()
	ctx := ContextWithTracer(context.Background(), tr)
	ctx, s := StartSpan(ctx, "outer")
	CurrentSpan(ctx).SetAttr(String("deep", "yes"))
	s.End()
	if v, ok := tr.Roots()[0].Attr("deep"); !ok || v != "yes" {
		t.Fatalf("attribute set through CurrentSpan missing: %v %v", v, ok)
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := NewTracer()
	tr.Now = fakeClock()
	ctx := ContextWithTracer(context.Background(), tr)
	_, s := StartSpan(ctx, "x")
	s.End()
	d := tr.Roots()[0].Dur
	s.EndErr(errors.New("late"))
	if tr.Roots()[0].Dur != d || tr.Roots()[0].Err != "" {
		t.Fatal("a second End must not alter the span")
	}
}

func TestCancellationClass(t *testing.T) {
	tr := NewTracer()
	ctx := ContextWithTracer(context.Background(), tr)
	_, s := StartSpan(ctx, "x")
	s.EndErr(context.Canceled)
	if got := tr.Roots()[0].Class; got != "cancelled" {
		t.Fatalf("Class = %q, want cancelled", got)
	}
}

func TestFindAndReset(t *testing.T) {
	tr := buildTrace()
	root := tr.Roots()[0]
	if root.Find("backoff") == nil {
		t.Fatal("Find missed the backoff span")
	}
	if n := len(root.FindAll("attempt")); n != 2 {
		t.Fatalf("FindAll(attempt) = %d spans, want 2", n)
	}
	tr.Reset()
	if len(tr.Roots()) != 0 {
		t.Fatal("Reset must clear the roots")
	}
	ctx := ContextWithTracer(context.Background(), tr)
	_, s := StartSpan(ctx, "fresh")
	s.End()
	if tr.Roots()[0].ID != 1 {
		t.Fatal("Reset must restart span numbering")
	}
}

// TestConcurrentSpans exercises the tracer under parallel span creation,
// annotation and export — run with -race.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	ctx := ContextWithTracer(context.Background(), tr)
	rctx, root := StartSpan(ctx, "run")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sctx, s := StartSpan(rctx, "fragment", Int("index", i))
			for j := 0; j < 8; j++ {
				_, a := StartSpan(sctx, "attempt", Int("n", j+1))
				a.SetAttr(Bool("ok", true))
				a.End()
			}
			s.End()
		}()
	}
	wg.Wait()
	root.End()
	if n := len(root.FindAll("attempt")); n != 16*8 {
		t.Fatalf("recorded %d attempt spans, want %d", n, 16*8)
	}
	var buf bytes.Buffer
	if err := WriteTree(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
}
