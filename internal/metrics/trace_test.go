package metrics

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// traceEvent mirrors the Chrome trace-event fields WriteChrome emits.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

// chromeEvents renders tr in Chrome form and parses it back.
func chromeEvents(t *testing.T, tr *SpanTracer) []traceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var events []traceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	return events
}

func TestChromeTracerEmitsValidTraceJSON(t *testing.T) {
	tr := NewSpanTracer(NewTraceID(), "scan", SpanID{})
	_, end := tr.StartChild("compile")
	end()
	_, end = tr.StartChild(`scan "chr1"`) // name needing JSON escaping
	end()
	tr.Root().End()
	events := chromeEvents(t, tr)
	if len(events) != 3 {
		t.Fatalf("got %d events, want the root and 2 spans", len(events))
	}
	if events[0].Name != "scan" || events[1].Name != "compile" || events[1].Ph != "X" {
		t.Errorf("events 0, 1 = %+v, %+v", events[0], events[1])
	}
	if events[2].Name != `scan "chr1"` {
		t.Errorf("escaped name round-trip failed: %+v", events[2])
	}
	for _, ev := range events {
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("negative timestamp: %+v", ev)
		}
	}
}

// TestChromeTracerConcurrentSpans drives chunk spans through a Recorder
// from eight goroutines, as the worker pool does.
func TestChromeTracerConcurrentSpans(t *testing.T) {
	tr := NewSpanTracer(NewTraceID(), "scan", SpanID{})
	r := NewRecorder()
	r.SetTracer(tr)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.StartChunk("chunk", 64)()
			}
		}()
	}
	wg.Wait()
	if got := len(chromeEvents(t, tr)); got != 401 {
		t.Errorf("parsed %d events, want the root and 400 chunks", got)
	}
}

func TestChromeTracerDoubleEndAndLateSpans(t *testing.T) {
	tr := NewSpanTracer(NewTraceID(), "scan", SpanID{})
	_, end := tr.StartChild("once")
	end()
	end() // double end must not duplicate the span or move its end
	_, late := tr.StartChild("late")
	first := chromeEvents(t, tr)
	late() // ended after an export: the next export shows it closed
	second := chromeEvents(t, tr)
	if len(first) != 3 || len(second) != 3 {
		t.Fatalf("exports have %d and %d events, want the root, once and late", len(first), len(second))
	}
	durOf := func(events []traceEvent, name string) float64 {
		for _, ev := range events {
			if ev.Name == name {
				return ev.Dur
			}
		}
		t.Fatalf("no %q span in %+v", name, events)
		return 0
	}
	if a, b := durOf(first, "once"), durOf(second, "once"); a != b {
		t.Errorf("once span changed duration between exports: %v, %v", a, b)
	}
	if durOf(second, "late") < durOf(first, "late") {
		t.Error("late span shrank once ended")
	}
}

// TestRecorderTracerIntegration pins the Recorder's span hooks: phase,
// labeled, custom and chunk spans all land in the attached tracer's
// tree, under the ambient span.
func TestRecorderTracerIntegration(t *testing.T) {
	tr := NewSpanTracer(NewTraceID(), "scan", SpanID{})
	attempt, endAttempt := tr.StartChild("attempt 1")
	tr.SetAmbient(attempt)
	r := NewRecorder()
	r.SetTracer(tr)
	if r.Tracer() != tr || !r.Traced() {
		t.Fatal("recorder does not report the attached tracer")
	}
	r.StartPhase(PhaseCompile)()
	r.StartSpan(PhasePrefilter, "prefilter chr1")()
	r.TraceSpan("custom")()
	r.StartChunk("chunk 0", 64)()
	endAttempt()
	root := tr.Tree().Root
	if len(root.Children) != 1 || root.Children[0].Name != "attempt 1" {
		t.Fatalf("root children = %+v, want the ambient attempt only", root.Children)
	}
	var names []string
	for _, c := range root.Children[0].Children {
		names = append(names, c.Name)
	}
	want := []string{"compile", "prefilter chr1", "custom", "chunk 0"}
	if len(names) != len(want) {
		t.Fatalf("attempt children = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("attempt child %d = %q, want %q", i, names[i], want[i])
		}
	}
}
