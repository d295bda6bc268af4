package scanserve

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/cap-repro/crisprscan/internal/checkpoint"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// This file threads the hierarchical tracer through the job lifecycle:
// the root "job" span opens at admission, "queue-wait" covers dequeue
// latency, every dispatch adds a sibling "attempt N" span (the ambient
// parent for the engine-side seam spans — compile, per-chromosome
// scans, worker chunks), and the terminal transition seals the trace
// into the flight recorder behind /debug/trace/{jobID}.

// traceIdentity is the persisted trace identity of one job, decided at
// admission.
type traceIdentity struct {
	id   string // 32-hex-char trace ID
	root string // 16-hex-char root span ID
}

// jobTrace owns the live trace of one job between admission and its
// terminal state. A nil *jobTrace (a resumed job whose record holds no
// decodable trace ID) accepts every method as a no-op.
type jobTrace struct {
	tracer *metrics.SpanTracer

	mu       sync.Mutex
	queueEnd func() // guarded by mu; ends the current queue-wait span
}

// root returns the trace's root span (nil-safe).
func (t *jobTrace) root() *metrics.Span {
	if t == nil {
		return nil
	}
	return t.tracer.Root()
}

// beginQueueWait opens a queue-wait span under the root; endQueueWait
// (at dispatch, cancel, or seal) closes it. Re-entrant across requeues:
// each wait gets its own span.
func (t *jobTrace) beginQueueWait() {
	if t == nil {
		return
	}
	_, end := t.tracer.Root().StartChild("queue-wait")
	t.mu.Lock()
	t.queueEnd = end
	t.mu.Unlock()
}

// endQueueWait closes the current queue-wait span, if one is open.
func (t *jobTrace) endQueueWait() {
	if t == nil {
		return
	}
	t.mu.Lock()
	end := t.queueEnd
	t.queueEnd = nil
	t.mu.Unlock()
	if end != nil {
		end()
	}
}

// startAttempt opens the sibling span for dispatch n and installs it as
// the tracer's ambient parent, so every seam span the engines emit
// during this attempt lands under it.
func (t *jobTrace) startAttempt(n int) (*metrics.Span, func()) {
	if t == nil {
		return nil, func() {}
	}
	span, end := t.tracer.Root().StartChild(fmt.Sprintf("attempt %d", n))
	t.tracer.SetAmbient(span)
	return span, end
}

// install attaches the trace's tracer to an attempt's recorder for the
// seam spans. Installing nothing on a nil receiver keeps the
// recorder's nil-tracer fast path.
func (t *jobTrace) install(rec *metrics.Recorder) {
	if t == nil {
		return
	}
	rec.SetTracer(t.tracer)
}

// admitTrace decides the job's trace identity from the inbound
// traceparent header (malformed or absent degrades to a fresh root —
// never a rejection) and starts its tracer.
func (s *Service) admitTrace(tenant, traceparent string) (traceIdentity, *metrics.SpanTracer) {
	tid, parentSpan, _, perr := metrics.ParseTraceparent(traceparent)
	if perr != nil {
		if traceparent != "" {
			s.log.Debug("malformed traceparent; starting fresh trace", "tenant", tenant, "err", perr)
		}
		tid, parentSpan = metrics.NewTraceID(), metrics.SpanID{}
	}
	tr := metrics.NewSpanTracer(tid, "job", parentSpan)
	tr.Root().SetAttr("tenant", tenant)
	return traceIdentity{id: tid.String(), root: tr.Root().ID().String()}, tr
}

// trackTrace registers a freshly admitted trace under its job ID.
// Caller must invoke it before the job becomes dequeueable.
func (s *Service) trackTrace(id string, jt *jobTrace) {
	jt.root().SetAttr("job", id)
	jt.root().Eventf("submitted")
	s.flight.Track(id, jt.tracer)
	s.mu.Lock()
	s.traces[id] = jt
	s.mu.Unlock()
}

// traceOf returns the live trace of a job, or nil.
func (s *Service) traceOf(id string) *jobTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.traces[id]
}

// resumeTrace rebuilds a trace for a job adopted from a previous
// process (crash or drain resume): same trace ID, a fresh
// root parented under the job's original root span, so the resumed run
// stays findable under the inbound trace.
func (s *Service) resumeTrace(job *Job) *jobTrace {
	var tid metrics.TraceID
	if n, err := hex.Decode(tid[:], []byte(job.TraceID)); err != nil || n != len(tid) {
		return nil
	}
	var parent metrics.SpanID
	if job.TraceRoot != "" {
		_, _ = hex.Decode(parent[:], []byte(job.TraceRoot))
	}
	tr := metrics.NewSpanTracer(tid, "job (resumed)", parent)
	tr.Root().SetAttr("tenant", job.Tenant)
	jt := &jobTrace{tracer: tr}
	s.trackTrace(job.ID, jt)
	return jt
}

// sealTrace finalizes a job's trace at its terminal transition: close
// the root, hand it to the flight recorder, and (in serve mode with
// -trace) write the per-job Chrome trace file under the job's spool
// directory.
func (s *Service) sealTrace(id string, st State, retries int) {
	s.mu.Lock()
	jt := s.traces[id]
	delete(s.traces, id)
	s.mu.Unlock()
	if jt == nil {
		return
	}
	jt.endQueueWait()
	jt.tracer.SetAmbient(nil)
	root := jt.root()
	root.SetAttr("state", string(st))
	root.Eventf("finished: %s", st)
	root.End()
	if s.cfg.TraceFile != "" {
		s.writeTraceFile(id, jt.tracer)
	}
	s.flight.Seal(id, st != StateDone || retries > 0)
}

// writeTraceFile renders the trace as a Chrome trace-event file in the
// job's spool directory; the flight recorder's eviction hook removes it
// with the entry.
func (s *Service) writeTraceFile(id string, tr *metrics.SpanTracer) {
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		s.log.Error("rendering trace file", "job", id, "err", err)
		return
	}
	path := filepath.Join(s.store.jobDir(id), s.cfg.TraceFile)
	if err := checkpoint.AtomicWriteFile(path, buf.Bytes()); err != nil {
		s.log.Error("writing trace file", "job", id, "err", err)
	}
}

// removeTraceFile is the flight recorder's eviction hook: a job's
// on-disk trace artifact lives exactly as long as its in-memory entry.
func (s *Service) removeTraceFile(id string) {
	err := os.Remove(filepath.Join(s.store.jobDir(id), s.cfg.TraceFile))
	if err != nil && !os.IsNotExist(err) {
		s.log.Warn("removing trace file", "job", id, "err", err)
	}
}
