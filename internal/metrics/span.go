package metrics

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the tracing subsystem: W3C trace-context identities, a
// SpanTracer that records parent-child span trees through the
// Recorder's span hooks (so engines need no signature changes), and the
// sampling policy that decides which jobs record and which traces the
// flight recorder retains. The nil-receiver convention of the rest of
// the package applies throughout: a nil *SpanTracer or nil *Span is a
// valid no-op.

// TraceID is a 128-bit trace identity, rendered as 32 lowercase hex
// characters per the W3C trace-context spec.
type TraceID [16]byte

// SpanID is a 64-bit span identity, rendered as 16 lowercase hex
// characters per the W3C trace-context spec.
type SpanID [8]byte

// String returns the 32-hex-char form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the ID is the all-zero (invalid) identity.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String returns the 16-hex-char form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the all-zero (invalid) identity.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// idFallback de-duplicates IDs if the system entropy source ever
// fails: a counter mixed with the monotonic clock keeps IDs unique
// within the process, which is all the tracer needs.
var idFallback atomic.Uint64

func fillRandomID(b []byte) {
	if _, err := rand.Read(b); err == nil {
		for _, c := range b {
			if c != 0 {
				return
			}
		}
	}
	v := idFallback.Add(1) ^ uint64(Now())
	for i := range b {
		b[i] = byte(v >> (8 * uint(i%8)))
	}
	b[0] |= 1 // never all-zero
}

// NewTraceID returns a fresh random (non-zero) trace identity.
func NewTraceID() TraceID {
	var id TraceID
	fillRandomID(id[:])
	return id
}

// NewSpanID returns a fresh random (non-zero) span identity.
func NewSpanID() SpanID {
	var id SpanID
	fillRandomID(id[:])
	return id
}

// ParseTraceparent parses a W3C traceparent header
// ("00-<32 hex trace>-<16 hex span>-<2 hex flags>"). It returns the
// trace identity, the caller's span identity, and the sampled flag.
// Malformed input returns an error; callers are expected to degrade to
// a fresh root trace, never to reject the request.
func ParseTraceparent(s string) (TraceID, SpanID, bool, error) {
	var tid TraceID
	var sid SpanID
	s = strings.TrimSpace(s)
	if s == "" {
		return tid, sid, false, fmt.Errorf("metrics: empty traceparent")
	}
	parts := strings.Split(s, "-")
	if len(parts) < 4 {
		return tid, sid, false, fmt.Errorf("metrics: traceparent needs 4 fields, got %d", len(parts))
	}
	ver := parts[0]
	if len(ver) != 2 || !isHex(ver) {
		return tid, sid, false, fmt.Errorf("metrics: traceparent version %q is not 2 hex chars", ver)
	}
	if ver == "ff" {
		return tid, sid, false, fmt.Errorf("metrics: traceparent version ff is forbidden")
	}
	if ver == "00" && len(parts) != 4 {
		return tid, sid, false, fmt.Errorf("metrics: version-00 traceparent must have exactly 4 fields")
	}
	if len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return tid, sid, false, fmt.Errorf("metrics: traceparent field lengths %d-%d-%d, want 32-16-2",
			len(parts[1]), len(parts[2]), len(parts[3]))
	}
	// The W3C spec requires lowercase hex; hex.Decode would accept
	// uppercase, so screen each field first.
	if !isHex(parts[1]) || !isHex(parts[2]) || !isHex(parts[3]) {
		return tid, sid, false, fmt.Errorf("metrics: traceparent fields must be lowercase hex")
	}
	if _, err := hex.Decode(tid[:], []byte(parts[1])); err != nil {
		return TraceID{}, sid, false, fmt.Errorf("metrics: traceparent trace-id: %w", err)
	}
	if _, err := hex.Decode(sid[:], []byte(parts[2])); err != nil {
		return TraceID{}, SpanID{}, false, fmt.Errorf("metrics: traceparent parent-id: %w", err)
	}
	flags, err := hex.DecodeString(parts[3])
	if err != nil {
		return TraceID{}, SpanID{}, false, fmt.Errorf("metrics: traceparent flags: %w", err)
	}
	if tid.IsZero() {
		return TraceID{}, SpanID{}, false, fmt.Errorf("metrics: traceparent trace-id is all zero")
	}
	if sid.IsZero() {
		return TraceID{}, SpanID{}, false, fmt.Errorf("metrics: traceparent parent-id is all zero")
	}
	return tid, sid, flags[0]&0x01 != 0, nil
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// FormatTraceparent renders the version-00 traceparent header for tid
// with sid as the parent span.
func FormatTraceparent(tid TraceID, sid SpanID, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + tid.String() + "-" + sid.String() + "-" + flags
}

// defaultMaxSpans bounds one trace's span count; chunk spans dominate,
// and 4096 covers a whole-genome scan at the default chunk size while
// keeping a runaway trace under ~1 MiB.
const defaultMaxSpans = 4096

// SpanTracer records one request's hierarchical span tree: a service
// job, or one batch scan. Attached to a Recorder, it parents seam spans
// (engine phases, per-chromosome scans, worker chunks) under the
// current ambient span — the attempt span the orchestrator installs
// with SetAmbient — so the whole pipeline joins one tree with no engine
// signature changes. All methods are safe for concurrent use and no-ops
// on a nil receiver.
type SpanTracer struct {
	traceID   TraceID
	wallStart time.Time
	monoStart int64
	root      *Span // immutable after construction

	// ambient is the span new seam spans parent under (the current
	// attempt); nil parents them under the root.
	ambient atomic.Pointer[Span]

	mu      sync.Mutex
	max     int     // guarded by mu
	spans   []*Span // guarded by mu; spans[0] is the root
	dropped int64   // guarded by mu
}

// NewSpanTracer starts a trace tid with a root span named rootName
// whose parent is the (possibly zero) inbound span identity.
func NewSpanTracer(tid TraceID, rootName string, parent SpanID) *SpanTracer {
	t := &SpanTracer{traceID: tid, wallStart: Wall(), monoStart: Now(), max: defaultMaxSpans}
	t.root = &Span{tracer: t, id: NewSpanID(), parent: parent, name: rootName}
	t.mu.Lock()
	t.spans = append(t.spans, t.root)
	t.mu.Unlock()
	return t
}

// SetMaxSpans rebounds the span budget (minimum 2: root plus one).
func (t *SpanTracer) SetMaxSpans(n int) {
	if t == nil {
		return
	}
	if n < 2 {
		n = 2
	}
	t.mu.Lock()
	t.max = n
	t.mu.Unlock()
}

// TraceID returns the trace identity (zero on a nil tracer).
func (t *SpanTracer) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.traceID
}

// Root returns the root span (nil on a nil tracer).
func (t *SpanTracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Dropped returns the number of spans discarded over the span budget.
func (t *SpanTracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SetAmbient installs s as the parent for subsequent seam spans
// (StartChild, which the Recorder's hooks call). Pass nil to fall back
// to the root.
func (t *SpanTracer) SetAmbient(s *Span) {
	if t == nil {
		return
	}
	t.ambient.Store(s)
}

// StartChild starts a span under the current ambient span (the root
// when no ambient is set) and returns it with its end func, which must
// be called (or deferred) exactly once.
func (t *SpanTracer) StartChild(name string) (*Span, func()) {
	if t == nil {
		return nil, func() {}
	}
	parent := t.ambient.Load()
	if parent == nil {
		parent = t.Root()
	}
	return parent.StartChild(name)
}

// register admits s under the span budget.
func (t *SpanTracer) register(s *Span) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.max {
		t.dropped++
		return false
	}
	t.spans = append(t.spans, s)
	return true
}

// SpanAttr is one key/value annotation on a span.
type SpanAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanEvent is one timestamped log line attached to a span — the
// trace-local view of the slog events the service emits.
type SpanEvent struct {
	// OffsetNs is the event time relative to the trace start.
	OffsetNs int64 `json:"offset_ns"`
	// Msg is the event text.
	Msg string `json:"msg"`
}

// Span is one node of a trace. A nil *Span accepts every method as a
// no-op, so callers on unsampled paths never branch.
type Span struct {
	tracer  *SpanTracer
	id      SpanID
	parent  SpanID
	name    string
	startNs int64 // offset from the tracer's monotonic start

	mu     sync.Mutex
	ended  bool        // guarded by mu
	endNs  int64       // guarded by mu
	attrs  []SpanAttr  // guarded by mu
	events []SpanEvent // guarded by mu
}

// ID returns the span identity (zero on a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// StartChild starts a named child span and returns it with its end
// func, which must be called (or deferred) exactly once. Over the
// tracer's span budget the child is dropped and both returns are
// no-ops.
func (s *Span) StartChild(name string) (*Span, func()) {
	if s == nil || s.tracer == nil {
		return nil, func() {}
	}
	t := s.tracer
	c := &Span{tracer: t, id: NewSpanID(), parent: s.id, name: name, startNs: Now() - t.monoStart}
	if !t.register(c) {
		return nil, func() {}
	}
	var once sync.Once
	return c, func() {
		once.Do(func() {
			end := Now() - t.monoStart
			c.mu.Lock()
			c.ended, c.endNs = true, end
			c.mu.Unlock()
		})
	}
}

// End closes the span directly — used for the root, whose lifetime the
// orchestrator owns. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := Now() - s.tracer.monoStart
	s.mu.Lock()
	if !s.ended {
		s.ended, s.endNs = true, end
	}
	s.mu.Unlock()
}

// SetAttr annotates the span; a repeated key overwrites in the
// rendered tree.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, SpanAttr{Key: key, Value: value})
	s.mu.Unlock()
}

// Eventf appends a timestamped log event to the span.
func (s *Span) Eventf(format string, args ...any) {
	if s == nil {
		return
	}
	ev := SpanEvent{OffsetNs: Now() - s.tracer.monoStart, Msg: fmt.Sprintf(format, args...)}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// spanCtxKey keys the current span in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying s as the current span;
// downstream stages start their children under it.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the current span carried by ctx, or nil —
// which, by the nil-receiver convention, is itself a valid no-op span.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// spanView is one span flattened under the tracer lock for rendering.
type spanView struct {
	id, parent SpanID
	name       string
	startNs    int64
	durNs      int64
	open       bool
	attrs      []SpanAttr
	events     []SpanEvent
}

// snapshotViews flattens the span set. Lock order: tracer.mu is
// released before any span.mu is taken.
func (t *SpanTracer) snapshotViews() ([]spanView, int64) {
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	dropped := t.dropped
	t.mu.Unlock()
	nowNs := Now() - t.monoStart
	views := make([]spanView, 0, len(spans))
	for _, s := range spans {
		v := spanView{id: s.id, parent: s.parent, name: s.name, startNs: s.startNs}
		s.mu.Lock()
		if s.ended {
			v.durNs = s.endNs - s.startNs
		} else {
			v.durNs, v.open = nowNs-s.startNs, true
		}
		if len(s.attrs) > 0 {
			v.attrs = append([]SpanAttr(nil), s.attrs...)
		}
		if len(s.events) > 0 {
			v.events = append([]SpanEvent(nil), s.events...)
		}
		s.mu.Unlock()
		if v.durNs < 0 {
			v.durNs = 0
		}
		views = append(views, v)
	}
	return views, dropped
}

// SpanNode is one span of a rendered tree.
type SpanNode struct {
	// SpanID and ParentID are the 16-hex-char span identities; the root's
	// ParentID is the inbound traceparent's span (empty when locally
	// originated).
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	// Name is the span label ("queue-wait", "attempt 2", "hyperscan chr7
	// chunk 3", ...).
	Name string `json:"name"`
	// StartNs is the span start relative to the trace start; DurNs is its
	// duration (elapsed-so-far when Open).
	StartNs int64 `json:"start_ns"`
	DurNs   int64 `json:"dur_ns"`
	// Open marks a span not yet ended at snapshot time.
	Open bool `json:"open,omitempty"`
	// Attrs holds the span annotations (repeated keys collapse to the
	// last write).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Events holds timestamped log lines attached to the span.
	Events []SpanEvent `json:"events,omitempty"`
	// Children are the child spans in start order.
	Children []*SpanNode `json:"children,omitempty"`
}

// SpanTree is the JSON rendering of one trace, served by
// /debug/trace/{jobID}.
type SpanTree struct {
	// TraceID is the 32-hex-char trace identity.
	TraceID string `json:"trace_id"`
	// StartWall stamps the trace start in wall time (RFC 3339).
	StartWall string `json:"start_wall"`
	// DroppedSpans counts spans discarded over the span budget.
	DroppedSpans int64 `json:"dropped_spans,omitempty"`
	// Root is the request root span.
	Root *SpanNode `json:"root"`
}

// Tree renders the current span set as a nested tree. Safe to call
// while spans are still opening; in-flight spans appear with Open set.
func (t *SpanTracer) Tree() *SpanTree {
	if t == nil {
		return nil
	}
	views, dropped := t.snapshotViews()
	nodes := make(map[SpanID]*SpanNode, len(views))
	order := make([]*SpanNode, 0, len(views))
	for _, v := range views {
		n := &SpanNode{
			SpanID: v.id.String(), Name: v.name,
			StartNs: v.startNs, DurNs: v.durNs, Open: v.open,
			Events: v.events,
		}
		if !v.parent.IsZero() {
			n.ParentID = v.parent.String()
		}
		if len(v.attrs) > 0 {
			n.Attrs = make(map[string]string, len(v.attrs))
			for _, a := range v.attrs {
				n.Attrs[a.Key] = a.Value
			}
		}
		nodes[v.id] = n
		order = append(order, n)
	}
	root := order[0]
	for i, v := range views {
		if i == 0 {
			continue
		}
		parent, ok := nodes[v.parent]
		if !ok || parent == order[i] {
			parent = root
		}
		parent.Children = append(parent.Children, order[i])
	}
	for _, n := range order {
		sort.SliceStable(n.Children, func(i, j int) bool {
			return n.Children[i].StartNs < n.Children[j].StartNs
		})
	}
	return &SpanTree{
		TraceID:      t.traceID.String(),
		StartWall:    t.wallStart.UTC().Format(time.RFC3339Nano),
		DroppedSpans: dropped,
		Root:         root,
	}
}

// WriteChrome renders the trace in the Chrome trace-event JSON array
// format (chrome://tracing, Perfetto, speedscope). Overlapping spans
// are assigned greedy lanes so concurrent worker chunks render side by
// side.
func (t *SpanTracer) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	views, _ := t.snapshotViews()
	sort.SliceStable(views, func(i, j int) bool { return views[i].startNs < views[j].startNs })
	laneEnd := make([]int64, 0, 16)
	if _, err := io.WriteString(w, "["); err != nil {
		return err
	}
	for i, v := range views {
		lane := -1
		for li, end := range laneEnd {
			if end <= v.startNs {
				lane = li
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = v.startNs + v.durNs
		args := map[string]string{
			"trace_id": t.traceID.String(),
			"span_id":  v.id.String(),
		}
		for _, a := range v.attrs {
			args[a.Key] = a.Value
		}
		ev := struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			PID  int               `json:"pid"`
			TID  int               `json:"tid"`
			TS   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		}{v.name, "X", 1, lane + 1, float64(v.startNs) / 1e3, float64(v.durNs) / 1e3, args}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == 0 {
			sep = "\n"
		}
		if _, err := io.WriteString(w, sep); err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}
