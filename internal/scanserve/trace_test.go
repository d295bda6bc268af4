package scanserve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/cap-repro/crisprscan/internal/faultinject"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

var hex32 = regexp.MustCompile(`^[0-9a-f]{32}$`)
var hex16 = regexp.MustCompile(`^[0-9a-f]{16}$`)

// postJobTraced is postJob with an inbound traceparent header.
func postJobTraced(t *testing.T, base, tenant string, spec JobSpec, traceparent string) (*http.Response, Job) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job Job
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
	}
	return resp, job
}

// flightTree fetches a job's span tree straight from the flight
// recorder (the in-process view the /debug/trace handler serves).
func flightTree(t *testing.T, s *Service, id string) *metrics.SpanTree {
	t.Helper()
	tr, ok := s.flight.Get(id)
	if !ok {
		t.Fatalf("job %s has no flight-recorder entry", id)
	}
	return tr.Tree()
}

// findSpans walks a tree and returns every node whose name has the
// given prefix, in encounter (start) order.
func findSpans(root *metrics.SpanNode, prefix string) []*metrics.SpanNode {
	if root == nil {
		return nil
	}
	var out []*metrics.SpanNode
	if strings.HasPrefix(root.Name, prefix) {
		out = append(out, root)
	}
	for _, c := range root.Children {
		out = append(out, findSpans(c, prefix)...)
	}
	return out
}

// TestTraceparentMalformedNeverRejects is the degradation contract: a
// broken inbound traceparent yields a fresh locally-minted trace, never
// a 4xx. The spec explicitly forbids rejecting requests over tracing.
func TestTraceparentMalformedNeverRejects(t *testing.T) {
	s := testService(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	inboundID := "4bf92f3577b34da6a3ce929d0e0e4736"
	malformed := []string{
		"garbage",
		"00-" + inboundID,                       // missing span and flags
		"00-" + inboundID + "-00f067aa0ba902b7", // missing flags
		"00-" + inboundID[:30] + "-00f067aa0ba902b7-01",             // short trace ID
		"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01",    // all-zero trace ID
		"00-" + inboundID + "-" + strings.Repeat("0", 16) + "-01",   // all-zero span ID
		"00-" + strings.ToUpper(inboundID) + "-00f067aa0ba902b7-01", // uppercase hex
		"ff-" + inboundID + "-00f067aa0ba902b7-01",                  // forbidden version
		"00-" + inboundID + "-00f067aa0ba902b7-01-extra",            // v00 with trailing field
		"0-" + inboundID + "-00f067aa0ba902b7-01",                   // short version
		"00-xyzw2f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // non-hex trace ID
	}
	for _, h := range malformed {
		resp, job := postJobTraced(t, srv.URL, "alice", oneGuide(), h)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("traceparent %q: status %d, want 202 (malformed headers must degrade, not reject)", h, resp.StatusCode)
		}
		if !hex32.MatchString(job.TraceID) {
			t.Fatalf("traceparent %q: job trace ID %q is not 32 hex chars", h, job.TraceID)
		}
		if job.TraceID == inboundID {
			t.Fatalf("traceparent %q: malformed header's trace ID was adopted", h)
		}
	}
}

// TestTraceparentInheritanceAndEcho: a valid inbound traceparent seeds
// the job's trace ID, the response echoes the job's position in that
// trace, and the span tree's root is parented at the inbound span.
func TestTraceparentInheritanceAndEcho(t *testing.T) {
	s := testService(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	inboundID := "4bf92f3577b34da6a3ce929d0e0e4736"
	inboundSpan := "00f067aa0ba902b7"
	resp, job := postJobTraced(t, srv.URL, "alice", oneGuide(), "00-"+inboundID+"-"+inboundSpan+"-01")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	if job.TraceID != inboundID {
		t.Fatalf("job trace ID = %q, want inherited %q", job.TraceID, inboundID)
	}
	if !hex16.MatchString(job.TraceRoot) || job.TraceRoot == inboundSpan {
		t.Fatalf("job root span = %q, want a fresh 16-hex span", job.TraceRoot)
	}
	if got, want := resp.Header.Get("traceparent"), "00-"+inboundID+"-"+job.TraceRoot+"-01"; got != want {
		t.Fatalf("response traceparent = %q, want %q", got, want)
	}
	waitTerminal(t, s, job.ID)
	tree := flightTree(t, s, job.ID)
	if tree.TraceID != inboundID {
		t.Fatalf("tree trace ID = %q, want %q", tree.TraceID, inboundID)
	}
	if tree.Root.ParentID != inboundSpan {
		t.Fatalf("root parent = %q, want the inbound span %q", tree.Root.ParentID, inboundSpan)
	}
	if tree.Root.Open {
		t.Fatal("root span still open after the terminal state sealed the trace")
	}
}

// TestRetryAttemptsAreSiblingSpans: each dispatch of a transiently
// failing job gets its own "attempt N" span under the root, so a
// retried job's trace shows every try side by side.
func TestRetryAttemptsAreSiblingSpans(t *testing.T) {
	flaky := &faultinject.Flaky{Fails: 2, Err: errors.New("engine hiccup")}
	s := testService(t, Config{
		MaxRetries: 3,
		RetryBase:  time.Millisecond,
		RetryMax:   time.Millisecond,
		RunScan:    func(ctx context.Context, job Job) error { return flaky.Next() },
	})
	job, err := s.SubmitTraced("alice", oneGuide(), "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, job.ID)
	if final.State != StateDone || final.Retries != 2 {
		t.Fatalf("job = %s retries %d, want done after 2 retries", final.State, final.Retries)
	}
	tree := flightTree(t, s, job.ID)
	attempts := findSpans(tree.Root, "attempt ")
	if len(attempts) != 3 {
		t.Fatalf("found %d attempt spans, want 3 (2 failures + success)", len(attempts))
	}
	names := map[string]bool{}
	for _, a := range attempts {
		if a.Open {
			t.Fatalf("attempt span %q still open", a.Name)
		}
		names[a.Name] = true
	}
	if len(names) != 3 {
		t.Fatalf("attempt span names %v are not distinct siblings", names)
	}
	if qw := findSpans(tree.Root, "queue-wait"); len(qw) == 0 {
		t.Fatal("no queue-wait span recorded")
	}
	if adm := findSpans(tree.Root, "admission"); len(adm) != 1 {
		t.Fatalf("found %d admission spans, want 1", len(adm))
	}
	if st := tree.Root.Attrs["state"]; st != string(StateDone) {
		t.Fatalf("root state attr = %q, want done", st)
	}
}

// TestTracedScanSpanTree is the end-to-end acceptance check: a real
// scan through the production path (genome cache, engine compile,
// per-chromosome streaming) yields a span tree rooted at the inbound
// trace with queue-wait, attempt, cache-load, compile, and one scan
// span per chromosome — served over /debug/trace in both formats.
func TestTracedScanSpanTree(t *testing.T) {
	genomePath, spec := scanFixture(t)
	s, err := New(Config{Dir: t.TempDir(), DefaultGenome: genomePath, QuotaRate: -1, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(10 * time.Second)
	api := httptest.NewServer(s.Handler())
	defer api.Close()
	debug := httptest.NewServer(s.TraceHandler())
	defer debug.Close()

	inboundID := "0af7651916cd43dd8448eb211c80319c"
	inboundSpan := "b7ad6b7169203331"
	resp, job := postJobTraced(t, api.URL, "alice", spec, "00-"+inboundID+"-"+inboundSpan+"-01")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	final := waitTerminal(t, s, job.ID)
	if final.State != StateDone {
		t.Fatalf("job = %s (err %q), want done", final.State, final.Error)
	}

	tresp, err := http.Get(debug.URL + "/debug/trace/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch = %d, want 200", tresp.StatusCode)
	}
	var tree metrics.SpanTree
	if err := json.NewDecoder(tresp.Body).Decode(&tree); err != nil {
		t.Fatalf("decoding span tree: %v", err)
	}
	if tree.TraceID != inboundID {
		t.Fatalf("tree trace ID = %q, want inbound %q", tree.TraceID, inboundID)
	}
	if tree.Root.ParentID != inboundSpan {
		t.Fatalf("root parent = %q, want inbound span %q", tree.Root.ParentID, inboundSpan)
	}
	if len(findSpans(tree.Root, "queue-wait")) == 0 {
		t.Fatal("no queue-wait span")
	}
	attempts := findSpans(tree.Root, "attempt ")
	if len(attempts) != 1 {
		t.Fatalf("found %d attempt spans, want 1", len(attempts))
	}
	cache := findSpans(attempts[0], "cache-load")
	if len(cache) != 1 {
		t.Fatalf("found %d cache-load spans under the attempt, want 1", len(cache))
	}
	if got := cache[0].Attrs["cache"]; got != "miss" {
		t.Fatalf("first job's cache-load attr = %q, want miss", got)
	}
	if len(findSpans(attempts[0], "compile")) != 1 {
		t.Fatal("no compile span under the attempt")
	}
	if scans := findSpans(attempts[0], "scan "); len(scans) != 3 {
		t.Fatalf("found %d per-chromosome scan spans, want 3", len(scans))
	}

	// Chrome export: a JSON array of trace events, offered as a download.
	cresp, err := http.Get(debug.URL + "/debug/trace/" + job.ID + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("chrome fetch = %d, want 200", cresp.StatusCode)
	}
	if cd := cresp.Header.Get("Content-Disposition"); !strings.Contains(cd, "attachment") {
		t.Fatalf("Content-Disposition = %q, want an attachment", cd)
	}
	var events []map[string]any
	if err := json.NewDecoder(cresp.Body).Decode(&events); err != nil {
		t.Fatalf("chrome export is not a JSON array: %v", err)
	}
	if len(events) < 5 {
		t.Fatalf("chrome export has %d events, want at least root+queue-wait+attempt+cache+scan", len(events))
	}

	// Second job against the resident genome: the cache-load span flips
	// to a hit, which is exactly what the annotation is for.
	_, job2 := postJobTraced(t, api.URL, "alice", spec, "")
	waitTerminal(t, s, job2.ID)
	tree2 := flightTree(t, s, job2.ID)
	cache2 := findSpans(tree2.Root, "cache-load")
	if len(cache2) != 1 || cache2[0].Attrs["cache"] != "hit" {
		t.Fatalf("second job's cache-load = %+v, want a hit annotation", cache2)
	}
}

// TestAttemptSpanCountsCommits: a job over 32 contigs that finishes
// well inside the one-second group-commit budget journals every contig
// with at most two durable commits (the first contig, then the rest at
// the end), and its attempt span on /debug/trace says how many.
func TestAttemptSpanCountsCommits(t *testing.T) {
	genomePath, spec := scanFixtureOf(t, 32, 2000, 4)
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, DefaultGenome: genomePath, QuotaRate: -1, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(10 * time.Second)
	debug := httptest.NewServer(s.TraceHandler())
	defer debug.Close()

	job, err := s.SubmitTraced("", spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, s, job.ID); final.State != StateDone {
		t.Fatalf("job = %s (err %q), want done", final.State, final.Error)
	}
	resp, err := http.Get(debug.URL + "/debug/trace/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tree metrics.SpanTree
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		t.Fatal(err)
	}
	attempts := findSpans(tree.Root, "attempt ")
	if len(attempts) != 1 {
		t.Fatalf("found %d attempt spans, want 1", len(attempts))
	}
	if scans := findSpans(attempts[0], "scan "); len(scans) != 32 {
		t.Fatalf("found %d per-contig scan spans, want 32", len(scans))
	}
	commits, err := strconv.Atoi(attempts[0].Attrs["commits"])
	if err != nil {
		t.Fatalf("attempt span commits attribute: %v", err)
	}
	// Each full second of scanning may add one budget commit.
	if limit := 2 + int(attempts[0].DurNs/int64(time.Second)); commits < 1 || commits > limit {
		t.Fatalf("attempt made %d durable commits in %.3fs, want 1..%d", commits, float64(attempts[0].DurNs)/1e9, limit)
	}
	if doc := readJournal(t, filepath.Join(dir, job.ID, "scan.ckpt")); len(doc.Entries) != 32 {
		t.Fatalf("journal lists %d contigs, want 32", len(doc.Entries))
	}
}

// TestTraceEndpoint404Variants: the debug endpoint distinguishes an
// unknown job from a trace the flight recorder dropped — two different
// operator answers.
func TestTraceEndpoint404Variants(t *testing.T) {
	get := func(t *testing.T, base, id string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + "/debug/trace/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body["error"]
	}

	t.Run("unknown job", func(t *testing.T) {
		s := testService(t, Config{})
		srv := httptest.NewServer(s.TraceHandler())
		defer srv.Close()
		code, msg := get(t, srv.URL, "nope")
		if code != http.StatusNotFound || !strings.Contains(msg, "unknown job") {
			t.Fatalf("got %d %q", code, msg)
		}
	})

	t.Run("dropped by retention", func(t *testing.T) {
		// A one-entry ring evicts the first healthy job's sealed trace
		// when the second job is admitted.
		s := testService(t, Config{FlightEntries: 1})
		srv := httptest.NewServer(s.TraceHandler())
		defer srv.Close()
		job, err := s.SubmitTraced("alice", oneGuide(), "")
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, job.ID)
		next, err := s.SubmitTraced("alice", oneGuide(), "")
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, next.ID)
		code, msg := get(t, srv.URL, job.ID)
		if code != http.StatusNotFound || !strings.Contains(msg, "dropped") {
			t.Fatalf("got %d %q", code, msg)
		}
	})
}

// TestOlderRecordsResumeWithATrace: job records written while traces
// were sampled carry "trace_sampled" — true with a root span, or false
// without one. Either record still loads, resumes, and gets a trace
// under its persisted trace ID.
func TestOlderRecordsResumeWithATrace(t *testing.T) {
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	for _, sampled := range []bool{true, false} {
		dir := t.TempDir()
		rec := map[string]any{
			"id": "j000000", "tenant": "alice", "spec": oneGuide(), "state": "running",
			"trace_id": traceID, "trace_sampled": sampled,
			"created_unix": 1, "updated_unix": 1,
		}
		if sampled {
			rec["trace_root"] = "00f067aa0ba902b7"
		}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, "j000000"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "j000000", jobRecordName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := testService(t, Config{Dir: dir})
		if final := waitTerminal(t, s, "j000000"); final.State != StateDone {
			t.Fatalf("trace_sampled=%v: resumed job = %s (err %q), want done", sampled, final.State, final.Error)
		}
		tree := flightTree(t, s, "j000000")
		if tree.TraceID != traceID {
			t.Fatalf("trace_sampled=%v: resumed trace %s, want %s", sampled, tree.TraceID, traceID)
		}
		if len(findSpans(tree.Root, "attempt ")) != 1 {
			t.Fatalf("trace_sampled=%v: resumed trace has no attempt span", sampled)
		}
	}
}

// TestTraceFlightGaugeExported: the flight-recorder depth is visible on
// /metrics.
func TestTraceFlightGaugeExported(t *testing.T) {
	s := testService(t, Config{})
	job, err := s.SubmitTraced("alice", oneGuide(), "")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, job.ID)
	if text := promText(t, s); !strings.Contains(text, "crisprscan_trace_flight_entries 1") {
		t.Fatalf("metrics missing flight gauge:\n%s", text)
	}
}

// TestTraceFileWrittenAndEvictedWithEntry: with TraceFile set, a
// sealed job's Chrome trace lands in its spool directory and lives
// exactly as long as its flight-recorder entry.
func TestTraceFileWrittenAndEvictedWithEntry(t *testing.T) {
	s := testService(t, Config{TraceFile: "trace.json", FlightEntries: 1})
	job1, err := s.SubmitTraced("alice", oneGuide(), "")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, job1.ID)
	path1 := filepath.Join(s.store.jobDir(job1.ID), "trace.json")
	raw, err := os.ReadFile(path1)
	if err != nil {
		t.Fatalf("per-job trace file not written: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil || len(events) == 0 {
		t.Fatalf("trace file is not a non-empty Chrome event array (err %v, %d events)", err, len(events))
	}

	// A second job over the 1-entry ring evicts the first trace — and
	// with it the on-disk artifact.
	job2, err := s.SubmitTraced("alice", oneGuide(), "")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, job2.ID)
	if _, err := os.Stat(path1); !os.IsNotExist(err) {
		t.Fatalf("evicted job's trace file still on disk (err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(s.store.jobDir(job2.ID), "trace.json")); err != nil {
		t.Fatalf("retained job's trace file missing: %v", err)
	}
}
