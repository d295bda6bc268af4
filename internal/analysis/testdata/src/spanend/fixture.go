// Package spanendfix exercises the spanend analyzer: end functions
// returned by the metrics span/phase starters must be called or
// deferred on every path, unless they escape to a caller.
package spanendfix

import (
	"github.com/cap-repro/crisprscan/internal/metrics"
)

func cond() bool { return false }

func runLater(f func()) { f() }

// straightLine is the simplest compliant shape.
func straightLine(rec *metrics.Recorder) {
	end := rec.TraceSpan("phase")
	end()
}

// deferredEnd closes at exit on every path.
func deferredEnd(tr *metrics.SpanTracer) {
	_, end := tr.StartChild("phase")
	defer end()
	if cond() {
		return
	}
}

// immediate invocation is a zero-width span; fine.
func immediate(rec *metrics.Recorder) {
	rec.TraceSpan("phase")()
}

// deferStartAndEnd is the idiomatic one-liner: start now, end at exit.
func deferStartAndEnd(rec *metrics.Recorder) {
	defer rec.TraceSpan("phase")()
}

// discarded drops the end function on the floor.
func discarded(rec *metrics.Recorder) {
	rec.TraceSpan("phase") // want `result of rec\.TraceSpan is discarded`
}

// discardedBlank is the same leak spelled with the blank identifier.
func discardedBlank(rec *metrics.Recorder) {
	_ = rec.TraceSpan("phase") // want `result of rec\.TraceSpan is discarded`
}

// discardedChildEnd keeps the span but drops its end.
func discardedChildEnd(tr *metrics.SpanTracer) {
	sp, _ := tr.StartChild("phase") // want `result of tr\.StartChild is discarded`
	sp.SetAttr("k", "v")
}

// deferredStart runs the START at exit and never the end.
func deferredStart(rec *metrics.Recorder) {
	defer rec.TraceSpan("phase") // want `defer evaluates rec\.TraceSpan at function exit`
}

// earlyReturnLeaks skips the end on the error path.
func earlyReturnLeaks(rec *metrics.Recorder) {
	end := rec.TraceSpan("phase") // want `end function end is not called \(or deferred\) on every path`
	if cond() {
		return
	}
	end()
}

// switchLeaks misses the implicit no-match path (no default clause).
func switchLeaks(rec *metrics.Recorder, n int) {
	end := rec.TraceSpan("phase") // want `end function end is not called \(or deferred\) on every path`
	switch n {
	case 0:
		end()
	}
}

// bothBranches ends on every explicit path; no finding.
func bothBranches(rec *metrics.Recorder) {
	end := rec.TraceSpan("phase")
	if cond() {
		end()
		return
	}
	end()
}

// loopBody opens and closes per iteration; no finding.
func loopBody(rec *metrics.Recorder, names []string) {
	for _, name := range names {
		end := rec.TraceSpan(name)
		end()
	}
}

// loopLeaks opens per iteration but only conditionally closes.
func loopLeaks(rec *metrics.Recorder, names []string) {
	for _, name := range names {
		end := rec.TraceSpan(name) // want `end function end is not called \(or deferred\) on every path`
		if cond() {
			end()
		}
	}
}

// escapeReturned transfers the obligation to the caller; exempt.
func escapeReturned(rec *metrics.Recorder) func() {
	end := rec.TraceSpan("phase")
	return end
}

// escapeArgument hands the end function to another callee; exempt.
func escapeArgument(rec *metrics.Recorder) {
	end := rec.TraceSpan("phase")
	runLater(end)
}

// escapeCapture lets a closure own the close; exempt.
func escapeCapture(rec *metrics.Recorder) func() {
	end := rec.TraceSpan("phase")
	return func() { end() }
}

// holder models the jobTrace.queueEnd hand-off: a field store escapes.
type holder struct {
	end func()
}

func escapeField(rec *metrics.Recorder, h *holder) {
	end := rec.TraceSpan("phase")
	h.end = end
}

// recorderPhases covers the Recorder starters.
func recorderPhases(rec *metrics.Recorder) {
	endLoad := rec.StartPhase(metrics.PhaseLoad)
	endLoad()
	rec.StartChunk("chr1", 1024) // want `result of rec\.StartChunk is discarded`
	endChunk := rec.StartChunk("chr2", 2048)
	endChunk()
	rec.StartSpan(metrics.PhaseVerify, "verify chr1") // want `result of rec\.StartSpan is discarded`
	endVerify := rec.StartSpan(metrics.PhaseVerify, "verify chr2")
	endVerify()
}

// spanChild tracks Span.StartChild the same as the tracer's.
func spanChild(sp *metrics.Span) {
	_, end := sp.StartChild("phase") // want `end function end is not called \(or deferred\) on every path`
	if cond() {
		end()
	}
}

// unrelated same-name methods on foreign types stay invisible.
type otherStarter struct{}

func (otherStarter) StartSpan(name string) func() { return func() {} }

func foreign(o otherStarter) {
	o.StartSpan("phase")
}

// literals are checked independently: the outer function is clean, the
// closure leaks.
func insideLiteral(rec *metrics.Recorder) func() {
	return func() {
		end := rec.TraceSpan("phase") // want `end function end is not called \(or deferred\) on every path`
		if cond() {
			end()
		}
	}
}
