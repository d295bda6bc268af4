package scanserve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// postJob submits a spec over the API and decodes the response.
func postJob(t *testing.T, base, tenant string, spec JobSpec) (*http.Response, Job) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
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

func TestHTTPJobLifecycle(t *testing.T) {
	genomePath, spec := scanFixture(t)
	s, err := New(Config{Dir: t.TempDir(), DefaultGenome: genomePath, QuotaRate: -1, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(10 * time.Second)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, job := postJob(t, srv.URL, "alice", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+job.ID {
		t.Fatalf("Location = %q", loc)
	}
	if job.Tenant != "alice" {
		t.Fatalf("tenant = %q, want alice", job.Tenant)
	}

	// Output before completion: 409, not a partial file.
	if or, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/output"); err != nil {
		t.Fatal(err)
	} else {
		or.Body.Close()
		if or.StatusCode != http.StatusConflict && or.StatusCode != http.StatusOK {
			t.Fatalf("early output = %d, want 409 (or 200 if already done)", or.StatusCode)
		}
	}

	// Poll to done.
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	var final jobView
	for {
		gr, err := http.Get(srv.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if gr.StatusCode != http.StatusOK {
			t.Fatalf("poll = %d, want 200", gr.StatusCode)
		}
		final = jobView{}
		if err := json.NewDecoder(gr.Body).Decode(&final); err != nil {
			t.Fatal(err)
		}
		gr.Body.Close()
		if final.State.Terminal() {
			break
		}
		select {
		case <-deadline.C:
			t.Fatalf("job stuck in %s", final.State)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if final.State != StateDone {
		t.Fatalf("job = %s (err %q), want done", final.State, final.Error)
	}

	// Download and compare with the on-disk artifact.
	or, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	defer or.Body.Close()
	if or.StatusCode != http.StatusOK {
		t.Fatalf("output = %d, want 200", or.StatusCode)
	}
	if ct := or.Header.Get("Content-Type"); !strings.Contains(ct, "tab-separated") {
		t.Fatalf("output Content-Type = %q", ct)
	}
	body, err := io.ReadAll(or.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "\t") || len(body) == 0 {
		t.Fatalf("output body is not TSV (%d bytes)", len(body))
	}

	// Listing includes the job.
	lr, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Body.Close()
	var list struct {
		Jobs []Job `json:"jobs"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID {
		t.Fatalf("list = %+v, want the one job", list.Jobs)
	}
}

func TestHTTPBackpressureAndErrors(t *testing.T) {
	release := make(chan struct{})
	s := testService(t, Config{
		Workers:  1,
		MaxQueue: 1,
		RunScan: func(ctx context.Context, job Job) error {
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	defer close(release)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Bad JSON → 400.
	br, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	br.Body.Close()
	if br.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d, want 400", br.StatusCode)
	}

	// One body, one spec: a second value or trailing garbage → 400, not
	// a job built from the first value.
	for _, body := range []string{
		`{"guides":[{"spacer":"ACGTACGTACGTACGTACGT"}],"k":1} {"k":9}`,
		`{"guides":[{"spacer":"ACGTACGTACGTACGTACGT"}],"k":1} garbage`,
	} {
		tr, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		tr.Body.Close()
		if tr.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q = %d, want 400", body, tr.StatusCode)
		}
	}

	// Invalid spec → 400.
	if resp, _ := postJob(t, srv.URL, "", JobSpec{K: 1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no-guides spec = %d, want 400", resp.StatusCode)
	}
	// An engine outside the registry (misspelt, or removed) → 400, not
	// a job that fails once it runs.
	for _, engine := range []string{"hyperscan-dfa", "hyperscn"} {
		spec := oneGuide()
		spec.Engine = engine
		if resp, _ := postJob(t, srv.URL, "", spec); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("engine %q = %d, want 400", engine, resp.StatusCode)
		}
	}

	// A body over the 1 MiB limit → 413, not a truncated-JSON 400.
	huge := `{"guides":[{"spacer":"` + strings.Repeat("A", maxSubmitBytes) + `"}]}`
	hr, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", hr.StatusCode)
	}

	// Fill the worker and the queue, then overload → 429 + Retry-After.
	resp, first := postJob(t, srv.URL, "", oneGuide())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	deadline := time.NewTimer(5 * time.Second)
	defer deadline.Stop()
	for {
		if job, _ := s.Get(first.ID); job.State == StateRunning {
			break
		}
		select {
		case <-deadline.C:
			t.Fatal("first job never started")
		case <-time.After(time.Millisecond):
		}
	}
	if resp, _ := postJob(t, srv.URL, "", oneGuide()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d", resp.StatusCode)
	}
	resp, _ = postJob(t, srv.URL, "", oneGuide())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Unknown job → 404 on get, output, cancel.
	for _, path := range []string{"/v1/jobs/j999999", "/v1/jobs/j999999/output"} {
		gr, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		gr.Body.Close()
		if gr.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, gr.StatusCode)
		}
	}
	cr, err := http.Post(srv.URL+"/v1/jobs/j999999/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()
	if cr.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown = %d, want 404", cr.StatusCode)
	}

	// Draining → 503.
	s.Drain(100 * time.Millisecond)
	resp, _ = postJob(t, srv.URL, "", oneGuide())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
}

func TestHTTPCancel(t *testing.T) {
	started := make(chan struct{})
	s := testService(t, Config{
		Workers: 1,
		RunScan: func(ctx context.Context, job Job) error {
			close(started)
			<-ctx.Done()
			return ctx.Err()
		},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, job := postJob(t, srv.URL, "", oneGuide())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	<-started
	cr, err := http.Post(srv.URL+"/v1/jobs/"+job.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()
	if cr.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d, want 202", cr.StatusCode)
	}
	if final := waitTerminal(t, s, job.ID); final.State != StateCancelled {
		t.Fatalf("cancelled job = %s", final.State)
	}
}
