package obs

import (
	"sync"
	"time"

	"exlengine/internal/exlerr"
)

// Tracer records spans into a tree. It is safe for concurrent use: spans
// of parallel dispatch waves may start, annotate and end concurrently.
//
// The zero value is usable; NewTracer is provided for symmetry with
// NewRegistry.
type Tracer struct {
	// Now is the clock used for span start/end times. Nil means
	// time.Now. Tests inject a deterministic clock to make exported
	// durations reproducible.
	Now func() time.Time

	mu     sync.Mutex
	nextID int64
	roots  []*Span
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

func (t *Tracer) now() time.Time {
	if t.Now != nil {
		return t.Now()
	}
	return time.Now()
}

func (t *Tracer) start(name string, parent *Span, attrs []Attr) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := &Span{
		ID:     t.nextID,
		Name:   name,
		Start:  t.now(),
		Attrs:  attrs,
		tracer: t,
		parent: parent,
	}
	if parent != nil {
		parent.children = append(parent.children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	return s
}

// Roots returns a snapshot of the root spans recorded so far.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// Reset discards every recorded span and restarts span numbering, so one
// tracer can be reused across runs (benchmarks reset between iterations).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roots = nil
	t.nextID = 0
}

// Span is one timed operation in the trace tree. Exported fields are
// read-only for consumers; they must not be mutated after End.
type Span struct {
	ID    int64
	Name  string
	Start time.Time
	Dur   time.Duration
	Attrs []Attr
	// Err and Class describe the failure the span ended with; both are
	// empty for successful spans. Class is the exlerr taxonomy class
	// ("fatal", "egd-violation", "overload") or "cancelled".
	Err   string
	Class string

	tracer   *Tracer
	parent   *Span
	children []*Span
	ended    bool
}

// SetAttr appends attributes to the span. Safe on a nil span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	s.Attrs = append(s.Attrs, attrs...)
}

// End closes the span successfully. Ending twice is a no-op. Safe on a
// nil span.
func (s *Span) End() { s.end(nil) }

// EndErr closes the span, recording the error and its exlerr class when
// err is non-nil. Safe on a nil span.
func (s *Span) EndErr(err error) { s.end(err) }

func (s *Span) end(err error) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.Dur = s.tracer.now().Sub(s.Start)
	if err != nil {
		s.Err = err.Error()
		if exlerr.IsCancellation(err) {
			s.Class = "cancelled"
		} else {
			s.Class = exlerr.ClassOf(err).String()
		}
	}
}

// Children returns a snapshot of the span's child spans, in start order.
// Safe on a nil span.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Parent returns the span's parent, or nil for a root span.
func (s *Span) Parent() *Span {
	if s == nil {
		return nil
	}
	return s.parent
}

// Find returns the first span named name in a depth-first walk of the
// subtree rooted at s (including s itself), or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children() {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// FindAll returns every span named name in a depth-first walk of the
// subtree rooted at s, including s itself.
func (s *Span) FindAll(name string) []*Span {
	if s == nil {
		return nil
	}
	var out []*Span
	if s.Name == name {
		out = append(out, s)
	}
	for _, c := range s.Children() {
		out = append(out, c.FindAll(name)...)
	}
	return out
}

// Attr returns the value of the first attribute with the key, and whether
// it exists.
func (s *Span) Attr(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}
