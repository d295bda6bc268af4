package scanserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"

	"github.com/cap-repro/crisprscan/internal/metrics"
)

// maxSubmitBytes bounds a job-submission body; a spec is a few guides
// and scalar knobs, never megabytes. A larger body is refused with 413.
const maxSubmitBytes = 1 << 20

// tenantHeader names the submitting tenant; absent means "default".
const tenantHeader = "X-Tenant"

// Handler returns the versioned job API:
//
//	POST   /v1/jobs             submit a JobSpec, 202 + job record
//	GET    /v1/jobs             list job records
//	GET    /v1/jobs/{id}        one job record (+ live progress)
//	GET    /v1/jobs/{id}/output stream the finished TSV/BED artifact
//	POST   /v1/jobs/{id}/cancel request cancellation
//
// Admission rejections surface as structured backpressure: 429 with a
// Retry-After header for quota/queue shedding, 503 while draining —
// load is shed at the edge, visibly, instead of absorbed until the
// process falls over.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/output", s.handleJobOutput)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	return mux
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// minimum 1 — a 0 would tell clients to hammer immediately).
func retryAfterSeconds(d float64) string {
	sec := int64(math.Ceil(d))
	if sec < 1 {
		sec = 1
	}
	return strconv.FormatInt(sec, 10)
}

func (s *Service) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var spec JobSpec
	if err := decodeSpec(http.MaxBytesReader(w, req.Body, maxSubmitBytes), &spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "job spec exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	job, err := s.SubmitTraced(req.Header.Get(tenantHeader), spec, req.Header.Get("traceparent"))
	if err != nil {
		var ra *RetryAfterError
		switch {
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.ShedRetryAfter.Seconds()))
			httpError(w, http.StatusServiceUnavailable, "%v", err)
		case errors.As(err, &ra):
			w.Header().Set("Retry-After", retryAfterSeconds(ra.RetryAfter.Seconds()))
			httpError(w, http.StatusTooManyRequests, "%v", err)
		default:
			httpError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	// Emit the job's position in the trace: same trace ID as the inbound
	// header (or the freshly minted one), parented at the job root span.
	if job.TraceID != "" && job.TraceRoot != "" {
		w.Header().Set("traceparent", "00-"+job.TraceID+"-"+job.TraceRoot+"-01")
	}
	writeJSON(w, http.StatusAccepted, job)
}

// decodeSpec decodes a body holding exactly one job spec: an unknown
// field, a second value or trailing garbage is an error, not silently
// dropped.
func decodeSpec(r io.Reader, spec *JobSpec) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return err
	}
	switch err := dec.Decode(new(json.RawMessage)); {
	case errors.Is(err, io.EOF):
		return nil
	case err == nil:
		return errors.New("scanserve: trailing data after the job spec")
	default:
		return fmt.Errorf("scanserve: trailing data after the job spec: %w", err)
	}
}

// TraceHandler returns the flight-recorder endpoint:
//
//	GET /debug/trace/{id}                the job's JSON span tree
//	GET /debug/trace/{id}?format=chrome  downloadable Chrome trace
//
// Traces are served for live jobs and, after the terminal state, for as
// long as the flight recorder retains them (failed and retried jobs are
// kept preferentially; see Config.FlightEntries).
func (s *Service) TraceHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	return mux
}

func (s *Service) handleTrace(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	tr, ok := s.flight.Get(id)
	if !ok {
		if _, exists := s.Get(id); !exists {
			httpError(w, http.StatusNotFound, "unknown job %s", id)
		} else {
			httpError(w, http.StatusNotFound, "trace of job %s was dropped by flight-recorder retention", id)
		}
		return
	}
	if req.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", "attachment; filename="+strconv.Quote(id+"-trace.json"))
		_ = tr.WriteChrome(w)
		return
	}
	writeJSON(w, http.StatusOK, tr.Tree())
}

func (s *Service) handleJobList(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []Job `json:"jobs"`
	}{Jobs: s.List()})
}

// jobView is a job record plus, while running, its live progress.
type jobView struct {
	Job
	Progress *metrics.ProgressSnapshot `json:"progress,omitempty"`
}

func (s *Service) handleJobGet(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	job, ok := s.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	view := jobView{Job: job}
	if snap, live := s.Progress(id); live {
		view.Progress = &snap
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleJobOutput(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	path, job, ok := s.OutputPath(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	if job.State != StateDone {
		// 409: the resource exists but is not in a downloadable state.
		httpError(w, http.StatusConflict, "job %s is %s, output is available when done", id, job.State)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "opening output of job %s: %v", id, err)
		return
	}
	defer f.Close()
	if job.Spec.BED {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
	}
	if fi, serr := f.Stat(); serr == nil {
		w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	}
	w.Header().Set("Content-Disposition", "attachment; filename="+strconv.Quote(id+"-"+job.outName()))
	_, _ = io.Copy(w, f)
}

func (s *Service) handleJobCancel(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	job, err := s.Cancel(id)
	if err != nil {
		if errors.Is(err, ErrUnknownJob) {
			httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

// WriteMetrics emits the service's Prometheus families — the overload
// counters the acceptance criteria require to be observable (shed and
// throttle totals, queue depth) plus lifecycle and cache counters. The
// caller owns the encoder (the admin endpoint appends these after the
// scan families).
func (s *Service) WriteMetrics(e *metrics.PromEncoder) {
	e.Family("crisprscan_jobs_submitted_total", "Jobs accepted by the scan service.", "counter")
	e.Sample("crisprscan_jobs_submitted_total", nil, float64(s.submitted.Load()))
	e.Family("crisprscan_jobs_finished_total", "Jobs reaching a terminal state, by state.", "counter")
	for _, st := range []State{StateDone, StateFailed, StateCancelled} {
		e.Sample("crisprscan_jobs_finished_total",
			[]metrics.Label{{Name: "state", Value: string(st)}},
			float64(s.finished[terminalIndex(st)].Load()))
	}
	e.Family("crisprscan_jobs_retried_total", "Transient-failure retries consumed across all jobs.", "counter")
	e.Sample("crisprscan_jobs_retried_total", nil, float64(s.retried.Load()))
	e.Family("crisprscan_jobs_shed_total", "Submissions rejected because the queue was full.", "counter")
	e.Sample("crisprscan_jobs_shed_total", nil, float64(s.shed.Load()))
	e.Family("crisprscan_jobs_throttled_total", "Submissions rejected by per-tenant quota.", "counter")
	e.Sample("crisprscan_jobs_throttled_total", nil, float64(s.throttled.Load()))
	e.Family("crisprscan_jobs_queued", "Jobs waiting for a worker.", "gauge")
	e.Sample("crisprscan_jobs_queued", nil, float64(s.queuedGa.Load()))
	e.Family("crisprscan_jobs_running", "Jobs currently dispatched to workers.", "gauge")
	e.Sample("crisprscan_jobs_running", nil, float64(s.runningGa.Load()))
	accepting := 0.0
	if s.Accepting() {
		accepting = 1
	}
	e.Family("crisprscan_service_accepting", "1 while the service admits jobs, 0 while draining.", "gauge")
	e.Sample("crisprscan_service_accepting", nil, accepting)
	e.Family("crisprscan_trace_flight_entries", "Traces retained in the flight recorder.", "gauge")
	e.Sample("crisprscan_trace_flight_entries", nil, float64(s.flight.Len()))
	cs := s.cache.stats()
	e.Family("crisprscan_genome_cache_hits_total", "Genome cache hits.", "counter")
	e.Sample("crisprscan_genome_cache_hits_total", nil, float64(cs.Hits))
	e.Family("crisprscan_genome_cache_misses_total", "Genome cache misses (loads).", "counter")
	e.Sample("crisprscan_genome_cache_misses_total", nil, float64(cs.Misses))
	e.Family("crisprscan_genome_cache_evictions_total", "Genomes evicted by LRU capacity.", "counter")
	e.Sample("crisprscan_genome_cache_evictions_total", nil, float64(cs.Evictions))
	e.Family("crisprscan_genome_cache_resident", "Genomes currently resident in the cache.", "gauge")
	e.Sample("crisprscan_genome_cache_resident", nil, float64(cs.Resident))
}
