// Package exlerr defines the typed error taxonomy of the dispatcher. Every
// failure surfaced by a target engine is classified as Fatal (this target
// cannot execute the fragment — degrade to the next one the support matrix
// permits), EgdViolation (the data itself violates a functionality egd, so
// every target would fail the same way and fallback cannot help), or
// Overload (the engine shed the work before attempting it).
package exlerr

import (
	"context"
	"errors"
	"fmt"

	"exlengine/internal/model"
)

// Class partitions failures by the recovery action they admit.
type Class int

// Failure classes, ordered by increasing permanence.
const (
	// Fatal failures end the attempt on this target (translation gaps,
	// panics, missing native support, an expired fragment timeout), but
	// another target may succeed.
	Fatal Class = iota
	// EgdViolation means the source data violates a functionality egd;
	// the failure is a property of the data-exchange setting, not of the
	// engine, so no fallback can repair it.
	EgdViolation
	// Overload means the engine shed the work to protect itself:
	// admission queue full, deadline unmeetable, memory budget exceeded,
	// or shutting down. The work was never attempted — the caller may
	// resubmit later, but the engine itself will not degrade it (doing so
	// is what it is shedding).
	Overload
)

// String renders the class for reports and logs.
func (c Class) String() string {
	switch c {
	case Fatal:
		return "fatal"
	case EgdViolation:
		return "egd-violation"
	case Overload:
		return "overload"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Error attaches a Class to an underlying error.
type Error struct {
	Class Class
	Err   error
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Class.String() + ": " + e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// New wraps err with an explicit class. A nil err returns nil.
func New(class Class, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Class: class, Err: err}
}

// Fatalf builds a classified fatal error from a format string.
func Fatalf(format string, args ...any) error {
	return &Error{Class: Fatal, Err: fmt.Errorf(format, args...)}
}

// Overloadf builds a classified overload (load-shed) error from a format
// string.
func Overloadf(format string, args ...any) error {
	return &Error{Class: Overload, Err: fmt.Errorf(format, args...)}
}

// IsOverload reports whether the error is an overload shed: the engine
// rejected or abandoned the work to protect itself, without attempting
// it. Overloaded is the one class a caller can act on mechanically —
// back off and resubmit.
func IsOverload(err error) bool { return ClassOf(err) == Overload }

// PanicError is a panic recovered from a target engine or an ETL step
// goroutine, converted into an ordinary (Fatal) error.
type PanicError struct {
	Value any    // the value passed to panic()
	Stack []byte // the goroutine stack at recovery time
}

// Error implements the error interface.
func (p *PanicError) Error() string { return fmt.Sprintf("panic: %v", p.Value) }

// Recovered converts a recover() value into a classified Fatal error. The
// stack should come from runtime/debug.Stack at the recovery site.
func Recovered(v any, stack []byte) error {
	return &Error{Class: Fatal, Err: &PanicError{Value: v, Stack: stack}}
}

// IsPanic reports whether the error records a recovered panic.
func IsPanic(err error) bool {
	var p *PanicError
	return errors.As(err, &p)
}

// IsCancellation reports whether the error stems from context
// cancellation or deadline expiry. A cancelled run is not a target
// failure: the dispatcher must stop, not degrade.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ClassOf classifies an arbitrary error: explicit Error wrappers keep
// their class, functionality-egd violations (model.ErrFunctional, which
// every engine, the chase included, wraps) are EgdViolation, and everything
// else — including unwrapped engine errors and an expired fragment timeout —
// defaults to Fatal.
func ClassOf(err error) Class {
	var e *Error
	if errors.As(err, &e) {
		return e.Class
	}
	if errors.Is(err, model.ErrFunctional) {
		return EgdViolation
	}
	return Fatal
}
