package scanserve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cap-repro/crisprscan"
	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// Config parameterizes a Service. The zero value is unusable: Dir is
// required, and either DefaultGenome or GenomeDir must be set for the
// default scan path (a RunScan hook lifts that requirement in tests).
type Config struct {
	// Dir is the durable job-state directory.
	Dir string
	// DefaultGenome is the reference used when a job names none.
	DefaultGenome string
	// GenomeDir, when set, allows jobs to name a genome by relative
	// path resolved under it; escapes and absolute paths are rejected.
	GenomeDir string
	// Workers bounds concurrent jobs (default 2).
	Workers int
	// MaxQueue bounds jobs waiting for a worker (default 64); beyond
	// it submissions are shed with Retry-After.
	MaxQueue int
	// QuotaRate is each tenant's sustained admission rate in jobs per
	// second: 0 selects the default of 1, and a negative rate disables
	// quotas.
	QuotaRate float64
	// QuotaBurst is each tenant's bucket size (default 8).
	QuotaBurst int
	// MaxRetries bounds transient-failure re-runs per job (default 3).
	MaxRetries int
	// RetryBase and RetryMax shape the exponential backoff between
	// retries (defaults 200ms and 5s); jitter in [0, backoff/2) is
	// added from the seeded source.
	RetryBase time.Duration
	RetryMax  time.Duration
	// AttemptTimeout bounds each attempt (0 = none). Because attempts
	// resume from the checkpoint journal, a timed-out attempt retries
	// transiently: progress accrues across attempts instead of being
	// lost, and the retry budget bounds the total.
	AttemptTimeout time.Duration
	// CacheGenomes bounds the resident-genome cache (default 2).
	CacheGenomes int
	// ShedRetryAfter is the Retry-After hint when the queue is full
	// (default 1s).
	ShedRetryAfter time.Duration
	// Seed drives backoff jitter deterministically.
	Seed int64
	// Log receives service events (default slog.Default()).
	Log *slog.Logger

	// FlightEntries bounds the in-memory flight recorder behind
	// /debug/trace (default 64 traces).
	FlightEntries int
	// TraceFile, when set, writes each finished job's Chrome trace to
	// this file name inside the job's spool directory; the file is
	// removed when the job's flight-recorder entry is evicted. Path
	// components are stripped.
	TraceFile string

	// RunScan, when non-nil, replaces the whole scan attempt — the
	// deterministic-test seam (pair with faultinject). The production
	// path (genome cache, checkpointed streaming scan, watermarked
	// output) runs when nil.
	RunScan func(ctx context.Context, job Job) error
	// Sleep, when non-nil, replaces the backoff wait (tests record
	// durations instead of sleeping). It must honor ctx.
	Sleep func(ctx context.Context, d time.Duration) error
	// LoadGenome, when non-nil, replaces the genome cache's loader
	// (default crisprscan.LoadGenome).
	LoadGenome func(path string) (*crisprscan.Genome, error)
	// OnScanStart, when non-nil, observes every attempt's recorder and
	// progress tracker — the admin endpoint's registry hook. The
	// returned func is called when the attempt finishes.
	OnScanStart func(job Job, rec *metrics.Recorder, prog *metrics.Progress) func()
}

// Service is the long-lived scan daemon: a durable job store, a bounded
// fair-queued worker pool, per-tenant admission control, a resident
// genome cache, and graceful drain. Construct with New, call Start,
// submit with SubmitTraced, stop with Drain.
type Service struct {
	cfg    Config
	log    *slog.Logger
	store  *store
	cache  *genomeCache
	quota  *quotas
	flight *metrics.FlightRecorder

	jitterMu sync.Mutex
	jitter   *rand.Rand // guarded by jitterMu

	mu        sync.Mutex
	queues    map[string][]string // guarded by mu; tenant → queued job IDs
	ring      []string            // guarded by mu; tenants with queued work, round-robin order
	rrNext    int                 // guarded by mu
	running   map[string]*runningJob
	traces    map[string]*jobTrace // guarded by mu; live (unsealed) job traces
	accepting bool                 // guarded by mu
	started   bool                 // guarded by mu

	wake    chan struct{} // 1-buffered worker doorbell
	quit    chan struct{} // closed by Drain: workers stop picking jobs
	workers sync.WaitGroup

	submitted  atomic.Int64
	finished   [3]atomic.Int64 // indexed by terminalIndex
	retried    atomic.Int64
	shed       atomic.Int64
	throttled  atomic.Int64
	queuedGa   atomic.Int64
	runningGa  atomic.Int64
	drainedReq atomic.Int64 // jobs re-queued by drain/crash for resume
}

// runningJob tracks one dispatched job. userCancel and prog are
// written and read under the owning Service's mutex; cancel is
// immutable after construction and safe to call anywhere.
type runningJob struct {
	cancel     context.CancelFunc
	userCancel bool
	prog       *metrics.Progress
}

// terminalIndex maps a terminal state to its finished-counter slot.
func terminalIndex(st State) int {
	switch st {
	case StateDone:
		return 0
	case StateFailed:
		return 1
	default:
		return 2 // cancelled
	}
}

// New validates the config, opens the job store, and re-queues any jobs
// a previous process left queued or running (crash recovery). The
// service is not accepting or scanning until Start.
func New(cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.QuotaBurst <= 0 {
		cfg.QuotaBurst = 8
	}
	if cfg.QuotaRate == 0 {
		cfg.QuotaRate = 1
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	} else if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 200 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 5 * time.Second
	}
	if cfg.CacheGenomes <= 0 {
		cfg.CacheGenomes = 2
	}
	if cfg.ShedRetryAfter <= 0 {
		cfg.ShedRetryAfter = time.Second
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	if cfg.TraceFile != "" {
		cfg.TraceFile = filepath.Base(cfg.TraceFile)
	}
	if cfg.RunScan == nil && cfg.DefaultGenome == "" && cfg.GenomeDir == "" {
		return nil, fmt.Errorf("scanserve: neither a default genome nor a genome directory is configured")
	}
	st, recovered, err := openStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:     cfg,
		log:     cfg.Log,
		store:   st,
		cache:   newGenomeCache(cfg.CacheGenomes, cfg.LoadGenome),
		quota:   newQuotas(cfg.QuotaRate, cfg.QuotaBurst, nil),
		flight:  metrics.NewFlightRecorder(cfg.FlightEntries),
		jitter:  rand.New(rand.NewSource(cfg.Seed)),
		queues:  make(map[string][]string),
		running: make(map[string]*runningJob),
		traces:  make(map[string]*jobTrace),
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
	}
	if cfg.TraceFile != "" {
		s.flight.OnEvict(s.removeTraceFile)
	}
	// Requeue every non-terminal job in creation order: queued jobs
	// from a clean drain plus running jobs the crash recovery demoted.
	for _, j := range st.list() {
		if j.State == StateQueued {
			s.enqueueLocked(j.Tenant, j.ID)
			s.queuedGa.Add(1)
		}
	}
	if len(recovered) > 0 {
		s.log.Info("recovered interrupted jobs", "jobs", recovered)
	}
	return s, nil
}

// Start begins accepting submissions and launches the worker pool.
func (s *Service) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.accepting = true
	s.mu.Unlock()
	for i := 0; i < s.cfg.Workers; i++ {
		s.workers.Add(1)
		go s.workerLoop(i)
	}
	s.log.Info("scan service started",
		"workers", s.cfg.Workers, "max_queue", s.cfg.MaxQueue,
		"quota_rate", s.cfg.QuotaRate, "quota_burst", s.cfg.QuotaBurst)
}

// Accepting reports whether submissions are currently admitted — the
// /readyz signal for serve mode: initialized and not draining.
func (s *Service) Accepting() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.started && s.accepting
}

// Admission errors. ErrThrottled and ErrOverloaded carry Retry-After.
var (
	// ErrDraining rejects submissions during shutdown (HTTP 503).
	ErrDraining = errors.New("scanserve: service is draining")
	// ErrUnknownJob reports a job ID with no record (HTTP 404).
	ErrUnknownJob = errors.New("scanserve: unknown job")
)

// RetryAfterError is an admission rejection with backpressure advice;
// HTTP maps it to 429 + Retry-After.
type RetryAfterError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("scanserve: %s (retry after %s)", e.Reason, e.RetryAfter)
}

// SubmitTraced validates, admits, persists and enqueues one job.
// Admission control is strictly ordered: drain state, then spec
// validity, then the tenant's token bucket, then global queue depth —
// so a draining service never spends quota and a throttled tenant
// cannot probe queue depth. The job's trace joins the inbound W3C
// traceparent, so the submitter's own tracing system and
// /debug/trace/{jobID} tell one story; an empty or malformed header
// starts a fresh root trace — never a rejection.
func (s *Service) SubmitTraced(tenant string, spec JobSpec, traceparent string) (Job, error) {
	if tenant == "" {
		tenant = "default"
	}
	if !s.Accepting() {
		return Job{}, ErrDraining
	}
	if err := spec.validate(); err != nil {
		return Job{}, err
	}
	genomePath, err := s.resolveGenome(spec.Genome)
	if err != nil {
		return Job{}, err
	}
	if ok, retryAfter := s.quota.allow(tenant); !ok {
		s.throttled.Add(1)
		return Job{}, &RetryAfterError{Reason: fmt.Sprintf("tenant %s over quota", tenant), RetryAfter: retryAfter}
	}
	s.mu.Lock()
	depth := 0
	for _, q := range s.queues {
		depth += len(q)
	}
	if depth >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.shed.Add(1)
		return Job{}, &RetryAfterError{Reason: fmt.Sprintf("queue full (%d jobs)", depth), RetryAfter: s.cfg.ShedRetryAfter}
	}
	s.mu.Unlock()
	ident, tr := s.admitTrace(tenant, traceparent)
	// The admission span covers the durable create: the fsync'd record
	// write is the admission cost worth seeing in a trace.
	_, admitEnd := tr.Root().StartChild("admission")
	job, err := s.store.create(tenant, spec, genomePath, ident)
	admitEnd()
	if err != nil {
		return Job{}, err
	}
	jt := &jobTrace{tracer: tr}
	s.trackTrace(job.ID, jt)
	jt.beginQueueWait()
	s.mu.Lock()
	s.enqueueLocked(tenant, job.ID)
	s.mu.Unlock()
	s.submitted.Add(1)
	s.queuedGa.Add(1)
	s.ding()
	s.log.Info("job submitted", "job", job.ID, "tenant", tenant,
		"guides", len(spec.Guides), "k", spec.K, "trace", job.TraceID)
	return job, nil
}

// resolveGenome maps the spec's genome name to a validated path.
func (s *Service) resolveGenome(name string) (string, error) {
	if name == "" {
		if s.cfg.DefaultGenome == "" && s.cfg.RunScan == nil {
			return "", fmt.Errorf("scanserve: job names no genome and the service has no default")
		}
		return s.cfg.DefaultGenome, nil
	}
	if s.cfg.GenomeDir == "" {
		return "", fmt.Errorf("scanserve: per-job genomes require a configured genome directory")
	}
	if filepath.IsAbs(name) {
		return "", fmt.Errorf("scanserve: genome path %q must be relative to the genome directory", name)
	}
	clean := filepath.Clean(name)
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("scanserve: genome path %q escapes the genome directory", name)
	}
	return filepath.Join(s.cfg.GenomeDir, clean), nil
}

// enqueueLocked appends the job to its tenant's queue and registers the
// tenant in the round-robin ring. Caller holds mu.
func (s *Service) enqueueLocked(tenant, id string) {
	if _, ok := s.queues[tenant]; !ok {
		s.ring = append(s.ring, tenant)
	}
	s.queues[tenant] = append(s.queues[tenant], id)
}

// ding wakes one idle worker (non-blocking: the doorbell is level, not
// edge — workers re-scan the queues whenever they drain it).
func (s *Service) ding() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// nextJob blocks until a job is available or the service quits. Fair
// queuing: tenants take turns in ring order, so one tenant's burst of
// queued jobs cannot starve another's single job no matter the
// submission order.
func (s *Service) nextJob() (string, bool) {
	for {
		s.mu.Lock()
		for i := 0; i < len(s.ring); i++ {
			t := s.ring[(s.rrNext+i)%len(s.ring)]
			q := s.queues[t]
			if len(q) == 0 {
				continue
			}
			id := q[0]
			s.queues[t] = q[1:]
			if len(s.queues[t]) == 0 {
				delete(s.queues, t)
				s.ring = removeString(s.ring, t)
				if len(s.ring) > 0 {
					s.rrNext = s.rrNext % len(s.ring)
				} else {
					s.rrNext = 0
				}
			} else {
				s.rrNext = (s.rrNext + i + 1) % len(s.ring)
			}
			s.mu.Unlock()
			return id, true
		}
		s.mu.Unlock()
		select {
		case <-s.wake:
		case <-s.quit:
			return "", false
		}
	}
}

func removeString(ss []string, v string) []string {
	for i, x := range ss {
		if x == v {
			return append(ss[:i:i], ss[i+1:]...)
		}
	}
	return ss
}

// workerLoop drains jobs until Drain closes quit. Workers check quit
// before every dispatch, so drain stops new work immediately while
// in-flight jobs get the drain window to finish.
func (s *Service) workerLoop(idx int) {
	defer s.workers.Done()
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		id, ok := s.nextJob()
		if !ok {
			return
		}
		s.queuedGa.Add(-1)
		s.runJob(id)
		// Another job may be waiting and every sibling might be mid-job:
		// re-ring the doorbell so the queue keeps draining.
		s.ding()
	}
}

// Get returns a job record; the bool reports existence.
func (s *Service) Get(id string) (Job, bool) { return s.store.get(id) }

// List returns every job record in creation order.
func (s *Service) List() []Job { return s.store.list() }

// Progress returns the live progress snapshot of a running job.
func (s *Service) Progress(id string) (metrics.ProgressSnapshot, bool) {
	s.mu.Lock()
	rj, ok := s.running[id]
	s.mu.Unlock()
	if !ok || rj.prog == nil {
		return metrics.ProgressSnapshot{}, false
	}
	return rj.prog.Snapshot(), true
}

// Cancel requests cancellation: a queued job is cancelled in place, a
// running job's context is cancelled (its worker records the terminal
// state), and a terminal job is left as-is. The returned record is the
// job's state as of the request.
func (s *Service) Cancel(id string) (Job, error) {
	job, ok := s.store.get(id)
	if !ok {
		return Job{}, fmt.Errorf("%w %s", ErrUnknownJob, id)
	}
	if job.State.Terminal() {
		return job, nil
	}
	s.mu.Lock()
	if rj, running := s.running[id]; running {
		rj.userCancel = true
		s.mu.Unlock()
		rj.cancel()
		s.log.Info("cancel requested for running job", "job", id)
		return job, nil
	}
	// Queued (or recovering): pull it out of its tenant queue.
	q := s.queues[job.Tenant]
	for i, qid := range q {
		if qid == id {
			s.queues[job.Tenant] = append(q[:i:i], q[i+1:]...)
			s.queuedGa.Add(-1)
			break
		}
	}
	s.mu.Unlock()
	// Removed from its queue under the lock, the job cannot be
	// dispatched anymore; this cancel owns the terminal transition, so
	// seal the trace before publishing it (same ordering as finish).
	s.sealTrace(id, StateCancelled, job.Retries)
	updated, err := s.store.update(id, func(j *Job) {
		if !j.State.Terminal() {
			j.State = StateCancelled
		}
	})
	if err != nil {
		return Job{}, err
	}
	if updated.State == StateCancelled {
		s.finished[terminalIndex(StateCancelled)].Add(1)
	}
	s.log.Info("job cancelled before dispatch", "job", id)
	return updated, nil
}

// Drain gracefully shuts the service down: stop admitting, stop
// dispatching, give in-flight jobs the window to finish, then cancel
// whatever remains so it checkpoints and re-queues for the next
// process. It returns the number of jobs that were re-queued (0 means
// every in-flight job completed).
func (s *Service) Drain(window time.Duration) int {
	s.mu.Lock()
	if !s.started || !s.accepting {
		// Not started, or a concurrent Drain already owns shutdown.
		s.mu.Unlock()
		return 0
	}
	s.accepting = false
	s.mu.Unlock()
	close(s.quit)
	s.log.Info("draining", "window", window, "running", s.runningGa.Load())

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	t := time.NewTimer(window)
	select {
	case <-done:
		t.Stop()
	case <-t.C:
		// Window expired: cancel the stragglers. Their scans stop at the
		// next chunk boundary, each attempt's exit commits the
		// chromosomes it completed to the journal, and the workers
		// re-queue the jobs for resume.
		s.mu.Lock()
		for id, rj := range s.running {
			s.log.Warn("drain window expired; checkpointing job", "job", id)
			rj.cancel()
		}
		s.mu.Unlock()
		<-done
	}
	requeued := int(s.drainedReq.Load())
	s.log.Info("drain complete", "requeued", requeued)
	return requeued
}

// backoff computes the exponential backoff before retry n (1-based),
// with deterministic jitter in [0, base*2^(n-1)/2).
func (s *Service) backoff(n int) time.Duration {
	d := s.cfg.RetryBase
	for i := 1; i < n && d < s.cfg.RetryMax; i++ {
		d *= 2
	}
	if d > s.cfg.RetryMax {
		d = s.cfg.RetryMax
	}
	s.jitterMu.Lock()
	j := time.Duration(s.jitter.Int63n(int64(d)/2 + 1))
	s.jitterMu.Unlock()
	return d + j
}

// sleep waits d honoring ctx, through the configurable hook.
func (s *Service) sleep(ctx context.Context, d time.Duration) error {
	if s.cfg.Sleep != nil {
		return s.cfg.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runJob owns one dispatched job end to end: the retry loop, error
// classification, panic isolation, and every persisted state
// transition.
func (s *Service) runJob(id string) {
	job, ok := s.store.get(id)
	if !ok || job.State != StateQueued {
		return // cancelled between dequeue and dispatch
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj := &runningJob{cancel: cancel}
	s.mu.Lock()
	s.running[id] = rj
	s.mu.Unlock()
	s.runningGa.Add(1)
	defer func() {
		s.mu.Lock()
		delete(s.running, id)
		s.mu.Unlock()
		s.runningGa.Add(-1)
	}()

	jt := s.traceOf(id)
	if jt == nil && job.TraceID != "" {
		// Job adopted from a previous process (crash or drain resume):
		// rebuild its trace under the same trace ID.
		jt = s.resumeTrace(&job)
	}
	jt.endQueueWait()

	if _, err := s.store.update(id, func(j *Job) { j.State = StateRunning; j.Attempts++ }); err != nil {
		s.log.Error("persisting running state", "job", id, "err", err)
	}
	log := s.log.With("job", id, "tenant", job.Tenant)

	for {
		job, _ = s.store.get(id)
		attemptErr := s.attempt(baseCtx, &job, rj)
		if attemptErr == nil {
			s.finish(id, StateDone, nil)
			log.Info("job done", "attempts", job.Attempts, "retries", job.Retries)
			return
		}
		switch Classify(attemptErr) {
		case ClassCanceled:
			s.mu.Lock()
			user := rj.userCancel
			s.mu.Unlock()
			switch {
			case user:
				s.finish(id, StateCancelled, attemptErr)
				log.Info("job cancelled", "err", attemptErr)
				return
			case baseCtx.Err() == nil && errors.Is(attemptErr, context.DeadlineExceeded):
				// The attempt's own deadline fired. Progress up to the last
				// committed chromosome is journaled, so retrying resumes
				// rather than repeats — treat it like a transient failure
				// and let the retry budget bound the total.
				if s.retryable(baseCtx, id, &job, attemptErr, log) {
					continue
				}
				s.finish(id, StateFailed, attemptErr)
				log.Warn("job failed: deadline exceeded, retries exhausted", "err", attemptErr)
				return
			default:
				// Drain (or process shutdown): park the job for resume.
				s.requeueForResume(id)
				log.Info("job checkpointed for resume", "err", attemptErr)
				return
			}
		case ClassTransient:
			if s.retryable(baseCtx, id, &job, attemptErr, log) {
				continue
			}
			s.finish(id, StateFailed, attemptErr)
			log.Warn("job failed: transient error, retries exhausted", "retries", job.Retries, "err", attemptErr)
			return
		default:
			s.finish(id, StateFailed, attemptErr)
			log.Warn("job failed", "class", "permanent", "err", attemptErr)
			return
		}
	}
}

// retryable consumes one retry from the job's budget if any remains,
// persists the accounting, and performs the backoff sleep under the
// job's context. It returns false when the budget is exhausted or the
// sleep was cancelled (drain or user cancel).
func (s *Service) retryable(ctx context.Context, id string, job *Job, cause error, log *slog.Logger) bool {
	if job.Retries >= s.cfg.MaxRetries {
		return false
	}
	updated, err := s.store.update(id, func(j *Job) {
		j.Retries++
		j.Error = cause.Error()
		j.ErrorClass = Classify(cause).String()
	})
	if err != nil {
		log.Error("persisting retry", "err", err)
		return false
	}
	*job = updated
	s.retried.Add(1)
	d := s.backoff(job.Retries)
	s.traceOf(id).root().Eventf("retry %d after %s: %v", job.Retries, d, cause)
	log.Info("retrying after transient failure", "retry", job.Retries, "backoff", d, "err", cause)
	return s.sleep(ctx, d) == nil
}

// requeueForResume parks a drained job back in the queued state; the
// next Start (this process does not restart workers after Drain) or the
// next process picks it up and resumes from its checkpoint.
func (s *Service) requeueForResume(id string) {
	if _, err := s.store.update(id, func(j *Job) { j.State = StateQueued }); err != nil {
		s.log.Error("re-queueing drained job", "job", id, "err", err)
		return
	}
	jt := s.traceOf(id)
	jt.root().Eventf("checkpointed for resume")
	jt.beginQueueWait()
	s.drainedReq.Add(1)
}

// finish records a terminal state. The trace is sealed and the
// finished counter bumped before the terminal state is published, so a
// client that has observed a terminal record never reads a still-open
// root span (or a missing per-job trace file) from /debug/trace, nor a
// /metrics scrape that has not counted the job.
func (s *Service) finish(id string, st State, cause error) {
	retries := 0
	if job, ok := s.store.get(id); ok {
		retries = job.Retries
	}
	s.sealTrace(id, st, retries)
	s.finished[terminalIndex(st)].Add(1)
	_, err := s.store.update(id, func(j *Job) {
		j.State = st
		if cause != nil {
			j.Error = cause.Error()
			j.ErrorClass = Classify(cause).String()
		} else {
			j.Error = ""
			j.ErrorClass = ""
		}
	})
	if err != nil {
		s.log.Error("persisting terminal state", "job", id, "state", st, "err", err)
	}
}

// attempt executes one scan attempt under panic isolation and the
// configured deadline.
func (s *Service) attempt(baseCtx context.Context, job *Job, rj *runningJob) error {
	ctx := baseCtx
	if s.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.AttemptTimeout)
		defer cancel()
	}
	rec := metrics.NewRecorder()
	prog := metrics.NewProgress()
	s.mu.Lock()
	rj.prog = prog
	s.mu.Unlock()
	// Each dispatch is a sibling "attempt N" span under the job root; it
	// becomes the ambient parent, so the seam spans the engines emit
	// (compile, per-chromosome scans, worker chunks) land under it with
	// no engine signature changes.
	jt := s.traceOf(job.ID)
	// Attempts counts dispatches and Retries counts in-dispatch re-runs;
	// their sum is the unique ordinal that keeps sibling attempt spans
	// distinct across both retries and crash-resume re-dispatches.
	aspan, attemptEnd := jt.startAttempt(job.Attempts + job.Retries)
	defer attemptEnd()
	jt.install(rec)
	ctx = metrics.ContextWithSpan(ctx, aspan)
	var finish func()
	if s.cfg.OnScanStart != nil {
		finish = s.cfg.OnScanStart(*job, rec, prog)
	}
	if finish != nil {
		defer finish()
	}
	err := arch.Recovered(rec, func(r any) error {
		return MarkPermanent(fmt.Errorf("scanserve: job %s panicked: %v", job.ID, r))
	}, func() error {
		if s.cfg.RunScan != nil {
			return s.cfg.RunScan(ctx, *job)
		}
		return s.scanAttempt(ctx, job, rec, prog)
	})
	if err != nil {
		aspan.SetAttr("error", err.Error())
	}
	return err
}
