package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteTree renders the tracer's span tree as indented, human-readable
// text — the format `exlrun -trace` prints:
//
//	run 5ms {mode=all}
//	  determine 1ms {cubes=5 fragments=2}
//	  dispatch 3ms {fragments=2 parallel=true}
//	    fragment 2ms {index=0 cubes=GDP target=sql}
//	      attempt 1ms {target=sql} !fatal: sql engine: no such table
//
// Failed spans carry a `!class: message` suffix. A nil tracer writes
// nothing.
func WriteTree(w io.Writer, t *Tracer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.roots {
		if err := writeTreeSpan(w, r, 0); err != nil {
			return err
		}
	}
	return nil
}

// writeTreeSpan renders one span and its subtree; the caller holds the
// tracer lock.
func writeTreeSpan(w io.Writer, s *Span, depth int) error {
	var b strings.Builder
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.Name)
	b.WriteByte(' ')
	b.WriteString(s.Dur.String())
	if len(s.Attrs) > 0 {
		b.WriteString(" {")
		for i, a := range s.Attrs {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(a.Key)
			b.WriteByte('=')
			b.WriteString(a.Val)
		}
		b.WriteByte('}')
	}
	if s.Err != "" {
		fmt.Fprintf(&b, " !%s: %s", s.Class, s.Err)
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for _, c := range s.children {
		if err := writeTreeSpan(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// spanRecord is the JSONL wire form of one span. Start offsets are
// relative to the first root span's start, so traces are comparable
// across runs (and deterministic under an injected clock).
type spanRecord struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Attrs   []Attr `json:"attrs,omitempty"`
	Err     string `json:"err,omitempty"`
	Class   string `json:"class,omitempty"`
}

// WriteJSONL emits one JSON object per span, pre-order, one per line —
// the format `exlrun -trace=json` prints. A nil tracer writes nothing.
func WriteJSONL(w io.Writer, t *Tracer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.roots) == 0 {
		return nil
	}
	base := t.roots[0].Start
	enc := json.NewEncoder(w)
	for _, r := range t.roots {
		if err := writeJSONLSpan(enc, r, base); err != nil {
			return err
		}
	}
	return nil
}

// writeJSONLSpan encodes one span and its subtree; the caller holds the
// tracer lock.
func writeJSONLSpan(enc *json.Encoder, s *Span, base time.Time) error {
	rec := spanRecord{
		ID:      s.ID,
		Name:    s.Name,
		StartUS: s.Start.Sub(base).Microseconds(),
		DurUS:   s.Dur.Microseconds(),
		Attrs:   s.Attrs,
		Err:     s.Err,
		Class:   s.Class,
	}
	if s.parent != nil {
		rec.Parent = s.parent.ID
	}
	if err := enc.Encode(rec); err != nil {
		return err
	}
	for _, c := range s.children {
		if err := writeJSONLSpan(enc, c, base); err != nil {
			return err
		}
	}
	return nil
}
