package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeIdentity(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total")
	c.Inc()
	r.Counter("a_total").Add(2)
	if got := r.Counter("a_total").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	r.Gauge("g").Set(7)
	if got := r.Gauge("g").Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	r.Histogram("x").ObserveDuration(time.Second)
	if r.Counter("x").Value() != 0 || r.Gauge("x").Value() != 0 || r.Histogram("x").Count() != 0 {
		t.Fatal("nil registry instruments must read zero")
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil WriteText must write nothing")
	}
	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil || strings.TrimSpace(buf.String()) != "{}" {
		t.Fatalf("nil WriteJSON = %q, want {}", buf.String())
	}
	if MetricsFrom(context.Background()) != nil {
		t.Fatal("MetricsFrom of a bare context must be nil")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 90 fast observations and 10 slow ones.
	for i := 0; i < 90; i++ {
		h.Observe(0.8) // bucket le=1
	}
	for i := 0; i < 10; i++ {
		h.Observe(80) // bucket le=100
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 90*0.8+10.0*80; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %v, want ~%v", got, want)
	}
	if p50 := h.Quantile(0.50); p50 != 1 {
		t.Errorf("p50 = %v, want 1", p50)
	}
	if p95 := h.Quantile(0.95); p95 != 100 {
		t.Errorf("p95 = %v, want 100", p95)
	}
	// Overflow bucket reports the largest finite bound.
	h2 := r.Histogram("huge")
	h2.Observe(1e9)
	if q := h2.Quantile(0.5); q != histBounds[len(histBounds)-1] {
		t.Errorf("overflow quantile = %v", q)
	}
	// Empty histogram.
	if q := r.Histogram("empty").Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
}

func TestLabel(t *testing.T) {
	if got := Label("fragments_total", "target", "sql"); got != "fragments_total{target=sql}" {
		t.Fatalf("Label = %q", got)
	}
	if got := Label("x", "a", "1", "b", "2"); got != "x{a=1,b=2}" {
		t.Fatalf("Label = %q", got)
	}
	if got := Label("bare"); got != "bare" {
		t.Fatalf("Label = %q", got)
	}
}

func TestWriteTextSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label(MetricFragments, "target", "sql")).Add(2)
	r.Counter(MetricFallbacks).Inc()
	r.Gauge("engine_plan_cubes").Set(5)
	r.Histogram(Label(MetricTargetLatency, "target", "sql")).Observe(0.9)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := "counter dispatch_fallbacks_total 1\n" +
		"counter dispatch_fragments_total{target=sql} 2\n" +
		"gauge engine_plan_cubes 5\n" +
		"histogram target_latency_ms{target=sql} count=1 sum=0.900 p50=1 p95=1 p99=1\n"
	if buf.String() != want {
		t.Errorf("WriteText:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(4)
	r.Gauge("g").Set(-2)
	r.Histogram("h").Observe(3)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]struct {
			Count   int64   `json:"count"`
			Sum     float64 `json:"sum"`
			Buckets []struct {
				Le float64 `json:"le"`
				N  int64   `json:"n"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if got.Counters["c"] != 4 || got.Gauges["g"] != -2 {
		t.Errorf("snapshot = %+v", got)
	}
	h := got.Histograms["h"]
	if h.Count != 1 || h.Sum != 3 || len(h.Buckets) != 1 || h.Buckets[0].Le != 5 || h.Buckets[0].N != 1 {
		t.Errorf("histogram snapshot = %+v", h)
	}
}

// TestConcurrentMetrics exercises lock-free updates — run with -race.
func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(float64(j % 7))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}
