package metrics

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	for _, sampled := range []bool{true, false} {
		h := FormatTraceparent(tid, sid, sampled)
		gotT, gotS, gotF, err := ParseTraceparent(h)
		if err != nil {
			t.Fatalf("ParseTraceparent(%q): %v", h, err)
		}
		if gotT != tid || gotS != sid || gotF != sampled {
			t.Fatalf("round trip of %q: got (%s, %s, %v), want (%s, %s, %v)",
				h, gotT, gotS, gotF, tid, sid, sampled)
		}
	}
}

// validTraceparent is the W3C Trace Context specification's example.
const validTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// malformedTraceparents are headers ParseTraceparent must reject.
var malformedTraceparents = []struct {
	name, in string
}{
	{"empty", ""},
	{"whitespace", "   "},
	{"garbage", "not-a-traceparent"},
	{"three fields", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7"},
	{"version ff", strings.Replace(validTraceparent, "00-", "ff-", 1)},
	{"version not hex", strings.Replace(validTraceparent, "00-", "zz-", 1)},
	{"version one char", strings.Replace(validTraceparent, "00-", "0-", 1)},
	{"version 00 extra field", validTraceparent + "-deadbeef"},
	{"short trace id", "00-4bf92f3577b34da6-00f067aa0ba902b7-01"},
	{"short parent id", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa-01"},
	{"long flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0101"},
	{"non-hex trace id", "00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01"},
	{"non-hex parent id", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902zz-01"},
	{"all-zero trace id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"},
	{"all-zero parent id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01"},
}

// futureTraceparent is a future version carrying extra fields; its known
// prefix parses.
var futureTraceparent = strings.Replace(validTraceparent, "00-", "cc-", 1) + "-extra-fields"

func TestParseTraceparentMalformed(t *testing.T) {
	for _, tc := range malformedTraceparents {
		if _, _, _, err := ParseTraceparent(tc.in); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted malformed input", tc.name, tc.in)
		}
	}
	if _, _, sampled, err := ParseTraceparent(futureTraceparent); err != nil || !sampled {
		t.Errorf("future-version traceparent %q: err=%v sampled=%v, want accepted and sampled", futureTraceparent, err, sampled)
	}
	// Surrounding whitespace is trimmed, as proxies sometimes pad.
	if _, _, _, err := ParseTraceparent("  " + validTraceparent + "  "); err != nil {
		t.Errorf("padded traceparent rejected: %v", err)
	}
}

// FuzzParseTraceparent checks the decoder every POST /v1/jobs header
// goes through: it never panics; a rejection carries the metrics:
// prefix and a zero result; an accepted header has nonzero IDs that
// survive FormatTraceparent and a re-parse; and a version-00 header
// with flags 00 or 01 formats back to exactly its trimmed self.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(validTraceparent)
	for _, tc := range malformedTraceparents {
		f.Add(tc.in)
	}
	f.Add(futureTraceparent)
	f.Fuzz(func(t *testing.T, in string) {
		tid, sid, sampled, err := ParseTraceparent(in)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "metrics: ") {
				t.Fatalf("error %q lacks the metrics: prefix", err)
			}
			if !tid.IsZero() || !sid.IsZero() || sampled {
				t.Fatalf("rejected %q but returned (%s, %s, %v)", in, tid, sid, sampled)
			}
			return
		}
		if tid.IsZero() || sid.IsZero() {
			t.Fatalf("accepted %q with a zero ID (%s, %s)", in, tid, sid)
		}
		out := FormatTraceparent(tid, sid, sampled)
		tid2, sid2, sampled2, err := ParseTraceparent(out)
		if err != nil || tid2 != tid || sid2 != sid || sampled2 != sampled {
			t.Fatalf("re-parse of %q (from %q) = (%s, %s, %v, %v), want (%s, %s, %v)",
				out, in, tid2, sid2, sampled2, err, tid, sid, sampled)
		}
		trimmed := strings.TrimSpace(in)
		if strings.HasPrefix(trimmed, "00-") && (strings.HasSuffix(trimmed, "-00") || strings.HasSuffix(trimmed, "-01")) && out != trimmed {
			t.Fatalf("version-00 header %q formats as %q", trimmed, out)
		}
	})
}

func TestSpanTreeHierarchy(t *testing.T) {
	tid := NewTraceID()
	inbound := NewSpanID()
	tr := NewSpanTracer(tid, "job", inbound)
	tr.Root().SetAttr("tenant", "acme")
	tr.Root().SetAttr("tenant", "acme2") // repeated key: last write wins
	tr.Root().Eventf("submitted %d", 1)

	_, endQ := tr.Root().StartChild("queue-wait")
	endQ()
	attempt, endA := tr.Root().StartChild("attempt 1")
	tr.SetAmbient(attempt)
	// Seam spans (the Recorder's hooks) land under the ambient span.
	rec := NewRecorder()
	rec.SetTracer(tr)
	rec.TraceSpan("chunk 0")()
	_, endC := tr.StartChild("chunk 1")
	endC()
	endA()
	tr.SetAmbient(nil)
	tr.Root().End()

	tree := tr.Tree()
	if tree.TraceID != tid.String() {
		t.Fatalf("tree trace id %q, want %q", tree.TraceID, tid.String())
	}
	root := tree.Root
	if root.Name != "job" || root.ParentID != inbound.String() {
		t.Fatalf("root = %q parent %q, want job under inbound %q", root.Name, root.ParentID, inbound.String())
	}
	if root.Open {
		t.Fatal("ended root still marked open")
	}
	if root.Attrs["tenant"] != "acme2" {
		t.Fatalf("root attrs %v: repeated key did not take the last write", root.Attrs)
	}
	if len(root.Events) != 1 || root.Events[0].Msg != "submitted 1" {
		t.Fatalf("root events %v, want one 'submitted 1'", root.Events)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children %v, want queue-wait and attempt 1", len(root.Children), childNames(root))
	}
	if root.Children[0].Name != "queue-wait" || root.Children[1].Name != "attempt 1" {
		t.Fatalf("root children %v not in start order", childNames(root))
	}
	att := root.Children[1]
	if len(att.Children) != 2 || att.Children[0].Name != "chunk 0" || att.Children[1].Name != "chunk 1" {
		t.Fatalf("attempt children %v, want ambient-parented chunks", childNames(att))
	}
	if att.Children[0].SpanID == "" || att.Children[0].ParentID != att.SpanID {
		t.Fatal("chunk span ids do not link to the attempt")
	}
}

func childNames(n *SpanNode) []string {
	out := make([]string, len(n.Children))
	for i, c := range n.Children {
		out[i] = c.Name
	}
	return out
}

func TestSpanBudgetBoundsMemory(t *testing.T) {
	tr := NewSpanTracer(NewTraceID(), "job", SpanID{})
	tr.SetMaxSpans(4)
	for i := 0; i < 10; i++ {
		sp, end := tr.Root().StartChild("c")
		end()
		if i >= 3 && sp != nil {
			t.Fatalf("span %d admitted over the budget", i)
		}
	}
	if d := tr.Dropped(); d != 7 {
		t.Fatalf("dropped = %d, want 7 (10 children, budget 4 incl. root)", d)
	}
	tree := tr.Tree()
	if tree.DroppedSpans != 7 || len(tree.Root.Children) != 3 {
		t.Fatalf("tree dropped=%d children=%d, want 7 and 3", tree.DroppedSpans, len(tree.Root.Children))
	}
}

func TestOpenSpansRenderAsOpen(t *testing.T) {
	tr := NewSpanTracer(NewTraceID(), "job", SpanID{})
	_, _ = tr.Root().StartChild("in-flight") // deliberately never ended
	tree := tr.Tree()
	if !tree.Root.Open {
		t.Fatal("un-ended root not marked open")
	}
	if len(tree.Root.Children) != 1 || !tree.Root.Children[0].Open {
		t.Fatal("in-flight child not marked open")
	}
	if tree.Root.Children[0].DurNs < 0 {
		t.Fatal("open span has negative duration")
	}
}

func TestWriteChromeIsValidTraceEventJSON(t *testing.T) {
	tr := NewSpanTracer(NewTraceID(), "job", SpanID{})
	_, end := tr.Root().StartChild("attempt 1")
	end()
	tr.Root().SetAttr("state", "done")
	tr.Root().End()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TID  int               `json:"tid"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome export is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("chrome export has %d events, want 2", len(events))
	}
	for _, ev := range events {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want complete-event X", ev.Name, ev.Ph)
		}
		if ev.Args["trace_id"] != tr.TraceID().String() || ev.Args["span_id"] == "" {
			t.Fatalf("event %q lacks trace/span identity args: %v", ev.Name, ev.Args)
		}
		if ev.TID < 1 {
			t.Fatalf("event %q has lane %d, want >= 1", ev.Name, ev.TID)
		}
	}
	if events[0].Args["state"] != "done" {
		t.Fatalf("root attrs not exported as args: %v", events[0].Args)
	}

	// The nil tracer still writes a syntactically valid (empty) export.
	buf.Reset()
	var nilTr *SpanTracer
	if err := nilTr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var empty []any
	if err := json.Unmarshal(buf.Bytes(), &empty); err != nil || len(empty) != 0 {
		t.Fatalf("nil-tracer export %q: err=%v", buf.String(), err)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var tr *SpanTracer
	var sp *Span
	tr.SetMaxSpans(8)
	tr.SetAmbient(nil)
	if got := tr.TraceID(); !got.IsZero() {
		t.Fatal("nil tracer returned a trace id")
	}
	if tr.Root() != nil || tr.Dropped() != 0 || tr.Tree() != nil {
		t.Fatal("nil tracer accessors not zero")
	}
	_, end := tr.StartChild("x")
	end()
	_, end = sp.StartChild("x")
	end()
	sp.End()
	sp.SetAttr("k", "v")
	sp.Eventf("e")
	if sp.ID() != (SpanID{}) {
		t.Fatal("nil span returned an id")
	}
}

func TestContextCarriesSpan(t *testing.T) {
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("empty context produced a span")
	}
	tr := NewSpanTracer(NewTraceID(), "job", SpanID{})
	ctx := ContextWithSpan(context.Background(), tr.Root())
	if SpanFromContext(ctx) != tr.Root() {
		t.Fatal("context did not round-trip the span")
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewSpanTracer(NewTraceID(), "job", SpanID{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp, end := tr.StartChild("chunk")
				sp.SetAttr("k", "v")
				sp.Eventf("tick")
				end()
			}
		}()
	}
	// Concurrent readers must see consistent snapshots.
	for i := 0; i < 10; i++ {
		_ = tr.Tree()
		_ = tr.WriteChrome(&bytes.Buffer{})
	}
	wg.Wait()
	tree := tr.Tree()
	if got := len(tree.Root.Children); got != 400 {
		t.Fatalf("tree has %d chunk spans, want 400", got)
	}
}
