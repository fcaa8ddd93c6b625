package faults

import (
	"context"
	"strings"
	"testing"
	"time"

	"exlengine/internal/dispatch"
	"exlengine/internal/exlerr"
	"exlengine/internal/model"
	"exlengine/internal/ops"
)

// ok is a Runner that always succeeds.
func ok(ctx context.Context, fr dispatch.Fragment, snap map[string]*model.Cube) (map[string]*model.Cube, error) {
	return map[string]*model.Cube{}, nil
}

func TestInjectErrorMatchesFragmentAndTarget(t *testing.T) {
	in := NewInjector(
		Fault{Fragment: 1, Target: ops.TargetSQL, Kind: Error, Class: exlerr.EgdViolation},
	)
	run := in.Middleware()(ok)

	// Non-matching calls pass through.
	for _, fr := range []dispatch.Fragment{
		{Index: 0, Target: ops.TargetSQL},
		{Index: 1, Target: ops.TargetETL},
	} {
		if _, err := run(context.Background(), fr, nil); err != nil {
			t.Fatalf("fault fired on non-matching %+v: %v", fr, err)
		}
	}
	// The matching call fires once.
	_, err := run(context.Background(), dispatch.Fragment{Index: 1, Target: ops.TargetSQL}, nil)
	if err == nil || exlerr.ClassOf(err) != exlerr.EgdViolation {
		t.Fatalf("err = %v, want the injected egd violation", err)
	}
	// And never again.
	if _, err := run(context.Background(), dispatch.Fragment{Index: 1, Target: ops.TargetSQL}, nil); err != nil {
		t.Fatalf("fault fired twice: %v", err)
	}
	fired := in.Fired()
	if len(fired) != 1 || fired[0].Fragment != 1 || fired[0].Target != ops.TargetSQL {
		t.Errorf("fired log = %+v", fired)
	}
}

func TestInjectPanic(t *testing.T) {
	in := NewInjector(Fault{Fragment: AnyFragment, Kind: Panic})
	run := in.Middleware()(ok)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a panic")
		}
		if !strings.Contains(r.(string), "injected panic") {
			t.Errorf("panic value = %v", r)
		}
	}()
	_, _ = run(context.Background(), dispatch.Fragment{Index: 3, Target: ops.TargetFrame}, nil)
}

func TestInjectDelayRespectsCancellation(t *testing.T) {
	in := NewInjector(Fault{Fragment: AnyFragment, Kind: Delay, Delay: time.Hour})
	run := in.Middleware()(ok)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := run(ctx, dispatch.Fragment{Index: 0}, nil)
	if !exlerr.IsCancellation(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if time.Since(start) > time.Second {
		t.Error("delay fault ignored cancellation")
	}
}
