// Package scanserve is the long-lived, fault-tolerant scan service: a
// durable job API over the streaming off-target search. It owns the job
// lifecycle (queued → running → done/failed/cancelled) persisted through
// the checkpoint journal machinery so a kill -9 mid-job resumes after
// restart with byte-identical output; a bounded worker pool with
// per-tenant token-bucket quotas and fair queuing; admission control
// that sheds load with Retry-After instead of accepting unbounded work;
// per-job retry with exponential backoff and jitter for transient
// failures; panic isolation per job; per-attempt deadlines; a keyed
// resident-genome cache with single-flight loading and LRU eviction;
// and graceful drain on shutdown.
package scanserve

import (
	"context"
	"errors"
)

// Class partitions job failures by what the service should do next.
// The taxonomy is deliberately three-valued: retrying a permanent
// failure wastes quota and delays the terminal state the client is
// polling for, retrying a cancellation resurrects work someone asked to
// stop, and *not* retrying a transient failure turns a blip into an
// outage. Everything the retry loop decides hangs off this one
// classification.
type Class int

const (
	// ClassPermanent failures reproduce on retry: invalid guides, a
	// missing genome, an engine bug. The job fails immediately.
	ClassPermanent Class = iota
	// ClassTransient failures may succeed on retry: injected faults in
	// tests, overload, a flaky filesystem. The job is retried with
	// exponential backoff up to the configured budget.
	ClassTransient
	// ClassCanceled failures mean the work was stopped, not broken:
	// context cancellation (client cancel, drain) or a deadline. The
	// job layer maps the cause to cancelled, re-queued, or failed.
	ClassCanceled
)

// String names the class for job records and metrics labels.
func (c Class) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassCanceled:
		return "canceled"
	default:
		return "permanent"
	}
}

// transienter is the duck-typed marker any error can implement to
// declare itself retryable; faultinject's injectors implement it
// without importing this package.
type transienter interface{ Transient() bool }

// Classify maps an error to its retry class. Cancellation dominates
// (a canceled scan often wraps other errors on the way out), then an
// explicit Transient() marker anywhere in the chain, then the default:
// permanent. Unknown errors defaulting to permanent is the safe side —
// a misclassified transient costs one job, a misclassified permanent
// retry loop costs the whole queue.
func Classify(err error) Class {
	if err == nil {
		return ClassPermanent
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassCanceled
	}
	var t transienter
	if errors.As(err, &t) && t.Transient() {
		return ClassTransient
	}
	return ClassPermanent
}

// markedErr wraps an error with a pinned transience bit.
type markedErr struct {
	err       error
	transient bool
}

func (e *markedErr) Error() string   { return e.err.Error() }
func (e *markedErr) Unwrap() error   { return e.err }
func (e *markedErr) Transient() bool { return e.transient }

// MarkPermanent pins err as non-retryable even if a wrapped cause
// carries a Transient marker: errors.As finds the outermost marker
// first, so the pin wins.
func MarkPermanent(err error) error {
	if err == nil {
		return nil
	}
	return &markedErr{err: err, transient: false}
}
