package dispatch

import (
	"fmt"
	"strings"
	"time"

	"exlengine/internal/exlerr"
	"exlengine/internal/ops"
)

// Attempt records the one execution attempt of a fragment on a target.
type Attempt struct {
	Target ops.Target
	// Err and Class describe the failure; Err is empty on success.
	Err   string
	Class exlerr.Class
	Panic bool
}

// Modes a successful fragment attempt ran in.
const (
	ModeReused     = "reused"     // nothing the fragment reads moved: previous outputs kept
	ModeMaintained = "maintained" // the chase applied the input deltas to the previous outputs
	ModeFull       = "full"       // recomputed: the whole fragment by the target, or some tgd of it by the chase
)

// FragmentReport describes everything that happened to one fragment:
// every attempt, every fallback target tried, and where it finally ran.
type FragmentReport struct {
	Index     int
	Cubes     []string
	Primary   ops.Target   // the target the determination engine assigned
	Final     ops.Target   // the target that succeeded; empty if the fragment failed
	Attempts  []Attempt    // in execution order, one per target tried
	Fallbacks []ops.Target // fallback targets tried after the primary, in order
	Elapsed   time.Duration
	// Mode is how the successful attempt ran: ModeReused, ModeMaintained
	// or ModeFull (always ModeFull without an incremental plan).
	Mode string
	// Incremental reports that the fragment ran under an incremental plan
	// and its input deltas were applied (or nothing had moved and its
	// outputs were reused) rather than recomputed.
	Incremental bool
	// FellBackFull reports that the fragment ran under an incremental plan
	// but recomputed in full; FallbackReason says why, naming the
	// relation at fault: "input PDR changed without a usable delta", "no
	// previous version of GDP to maintain", or the chase's "1 of 1 tgds
	// recomputed in full: GDPT (blackbox)".
	FellBackFull   bool
	FallbackReason string
}

// Degraded reports whether the fragment completed on a non-primary target.
func (f *FragmentReport) Degraded() bool { return f.Final != "" && f.Final != f.Primary }

// ModeNote renders how a fragment under an incremental plan was brought
// up to date, for appending to its status: " (reused)", " (maintained)"
// or " (full: <reason>)"; empty for a run without a plan.
func (f *FragmentReport) ModeNote() string {
	switch {
	case f.FellBackFull:
		return fmt.Sprintf(" (%s: %s)", f.Mode, f.FallbackReason)
	case f.Incremental:
		return fmt.Sprintf(" (%s)", f.Mode)
	}
	return ""
}

// Report describes a whole dispatch run, one entry per fragment.
type Report struct {
	Fragments []FragmentReport
	Elapsed   time.Duration
}

// Fallbacks totals fallback targets tried across all fragments.
func (r *Report) Fallbacks() int {
	n := 0
	for i := range r.Fragments {
		n += len(r.Fragments[i].Fallbacks)
	}
	return n
}

// String renders the report as the table `exlrun -report` prints. A
// fragment with no attempts was never reached: the run failed first.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dispatch: %d fragment(s), %d fallback(s), %v\n",
		len(r.Fragments), r.Fallbacks(), r.Elapsed)
	for i := range r.Fragments {
		f := &r.Fragments[i]
		if len(f.Attempts) == 0 {
			continue
		}
		status := "ran on " + string(f.Final)
		if f.Final == "" {
			status = "FAILED"
		} else if f.Degraded() {
			status = fmt.Sprintf("ran on %s (degraded from %s)", f.Final, f.Primary)
		}
		status += f.ModeNote()
		fmt.Fprintf(&b, "  fragment %d %v: planned %s, %s, %d attempt(s), %v\n",
			f.Index, f.Cubes, f.Primary, status, len(f.Attempts), f.Elapsed)
		for _, a := range f.Attempts {
			if a.Err == "" {
				fmt.Fprintf(&b, "    %s: ok\n", a.Target)
				continue
			}
			kind := a.Class.String()
			if a.Panic {
				kind += ", panic"
			}
			fmt.Fprintf(&b, "    %s: %s (%s)\n", a.Target, a.Err, kind)
		}
	}
	return b.String()
}
