package scanserve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// FuzzJobRecord checks the job-record decoder a restart trusts: any
// bytes in a job's job.json either fail New with a scanserve: error or
// load the job in one of the five states with no negative count, a
// running record demoted to queued — never a panic, and never a job
// that is neither queued nor terminal.
func FuzzJobRecord(f *testing.F) {
	base := Job{
		ID: "j000001", Tenant: "default", Spec: oneGuide(), State: StateQueued,
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", TraceRoot: "00f067aa0ba902b7",
		CreatedUnix: 1700000000, UpdatedUnix: 1700000000,
	}
	for _, edit := range []func(*Job){
		func(*Job) {},
		func(j *Job) { j.State, j.Attempts = StateRunning, 1 },
		func(j *Job) { j.State, j.Attempts, j.Sites = StateDone, 1, 12 },
		func(j *Job) {
			j.State, j.Attempts, j.Retries = StateFailed, 1, 3
			j.Error, j.ErrorClass = "scanserve: scan failed", "transient"
		},
		func(j *Job) { j.State = StateCancelled },
		func(j *Job) { j.State = "bogus" },
		func(j *Job) { j.State, j.Attempts = StateRunning, -1 },
		func(j *Job) { j.ID = "j000002" },
	} {
		j := base
		edit(&j)
		data, err := json.MarshalIndent(&j, "", "  ")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"id":"j000001","state":"bogus"}`))
	f.Add([]byte(`{"id":"j000001","state":"running","sites":-4}`))
	f.Add([]byte(`{"id":"j000001","st`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, "j000001"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "j000001", jobRecordName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Dir: dir, Log: quietLogger(), RunScan: func(context.Context, Job) error { return nil }})
		if err != nil {
			if !strings.HasPrefix(err.Error(), "scanserve:") {
				t.Fatalf("error %q lacks the scanserve: prefix", err)
			}
			return
		}
		job, ok := s.Get("j000001")
		if !ok {
			t.Fatal("New loaded the directory but not its job")
		}
		if !slices.Contains(states, job.State) || job.State == StateRunning {
			t.Fatalf("loaded job in state %q, want queued or terminal", job.State)
		}
		if job.Attempts < 0 || job.Retries < 0 || job.Sites < 0 {
			t.Fatalf("loaded job with a negative count: %+v", job)
		}
		var in Job
		if err := json.Unmarshal(data, &in); err != nil {
			t.Fatalf("New accepted a record that does not decode: %v", err)
		}
		if in.State == StateRunning && job.State != StateQueued {
			t.Fatalf("running record loaded as %q, want it demoted to queued", job.State)
		}
	})
}

// FuzzSubmitBody checks the job-submission decoder: any POST /v1/jobs
// body gets 202, 400 or 413 and never a panic; a 202 answers a body
// that is exactly one JSON value, and its job record round-trips
// through JSON with a spec that passes validate.
func FuzzSubmitBody(f *testing.F) {
	s, err := New(Config{
		Dir: f.TempDir(), Log: quietLogger(), QuotaRate: -1, MaxQueue: 1 << 30,
		RunScan: func(context.Context, Job) error { return nil },
	})
	if err != nil {
		f.Fatal(err)
	}
	s.Start()
	f.Cleanup(func() { s.Drain(5 * time.Second) })
	h := s.Handler()

	valid, err := json.Marshal(oneGuide())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"guides":[{"name":"a","spacer":"ACGTACGTACGTACGTACGT"},{"spacer":"TTTTACGTACGTACGTACGA"}],"k":3,"pam":"NRG","alt_pams":["NAG"],"pam5":false,"plus_only":true,"engine":"cas-offinder","workers":2,"bed":true}`))
	f.Add(append(valid, ` {"k":9}`...))
	f.Add(append(valid, ` garbage`...))
	f.Add([]byte(`{"guides":[],"k":1}`))
	f.Add([]byte(`{"guides":[{"spacer":"ACGT"}],"k":-1}`))
	f.Add([]byte(`{"guides":[{"spacer":"ACGT"}],"engine":"hyperscn"}`))
	f.Add([]byte(`{"guides":[{"spacer":"ACGT"}],"genome":"x.fa"}`))
	f.Add([]byte(`{"guides":[{"spacer":"ACGT"}],"tenant":"x"}`))
	f.Add([]byte(`{nope`))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		case http.StatusAccepted:
		default:
			t.Fatalf("status %d, want 202, 400 or 413", rec.Code)
		}
		if !json.Valid(body) {
			t.Fatalf("accepted a body that is not exactly one JSON value: %q", body)
		}
		var job Job
		if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
			t.Fatalf("202 body is not a job record: %v", err)
		}
		again, err := json.Marshal(&job)
		if err != nil {
			t.Fatal(err)
		}
		var back Job
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, job) {
			t.Fatalf("job record does not round-trip:\n got %+v\nwant %+v", back, job)
		}
		if err := job.Spec.validate(); err != nil {
			t.Fatalf("accepted a spec that fails validate: %v", err)
		}
		if job.ID == "" || job.State != StateQueued {
			t.Fatalf("accepted job %q in state %q, want an ID and queued", job.ID, job.State)
		}
	})
}
