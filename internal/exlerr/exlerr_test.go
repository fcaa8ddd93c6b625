package exlerr

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"testing"

	"exlengine/internal/model"
)

func TestClassOf(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		err  error
		want Class
	}{
		{New(Fatal, base), Fatal},
		{New(EgdViolation, base), EgdViolation},
		{Fatalf("f %d", 2), Fatal},
		{Overloadf("o %d", 3), Overload},
		{base, Fatal},
		{context.DeadlineExceeded, Fatal},
		{model.ErrFunctional, EgdViolation},
		{fmt.Errorf("put: %w", model.ErrFunctional), EgdViolation},
		{fmt.Errorf("outer: %w", New(Overload, base)), Overload},
	}
	for i, c := range cases {
		if got := ClassOf(c.err); got != c.want {
			t.Errorf("case %d (%v): class %v, want %v", i, c.err, got, c.want)
		}
	}
}

func TestNewNil(t *testing.T) {
	if New(Fatal, nil) != nil {
		t.Error("New(class, nil) must be nil")
	}
}

func TestUnwrap(t *testing.T) {
	base := errors.New("boom")
	err := New(Fatal, fmt.Errorf("wrap: %w", base))
	if !errors.Is(err, base) {
		t.Error("classified error must unwrap to its cause")
	}
}

func TestRecoveredPanic(t *testing.T) {
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = Recovered(r, debug.Stack())
			}
		}()
		panic("kaboom")
	}()
	if err == nil {
		t.Fatal("panic not converted")
	}
	if !IsPanic(err) {
		t.Error("IsPanic must detect a recovered panic")
	}
	if ClassOf(err) != Fatal {
		t.Errorf("recovered panic must be Fatal, got %v", ClassOf(err))
	}
	var p *PanicError
	if !errors.As(err, &p) || p.Value != "kaboom" || len(p.Stack) == 0 {
		t.Errorf("panic payload lost: %+v", p)
	}
}

func TestIsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if !IsCancellation(ctx.Err()) {
		t.Error("context.Canceled must be a cancellation")
	}
	if !IsCancellation(fmt.Errorf("run: %w", context.DeadlineExceeded)) {
		t.Error("wrapped DeadlineExceeded must be a cancellation")
	}
	if IsCancellation(errors.New("boom")) {
		t.Error("ordinary error is not a cancellation")
	}
}

func TestClassString(t *testing.T) {
	if Fatal.String() != "fatal" || EgdViolation.String() != "egd-violation" || Overload.String() != "overload" {
		t.Error("class names changed")
	}
}
