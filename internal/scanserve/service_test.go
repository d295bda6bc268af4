package scanserve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cap-repro/crisprscan/internal/faultinject"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// quietLogger discards service logs in tests.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// testService builds a started service with test-friendly defaults:
// quotas disabled, instant backoff sleeps, and a RunScan hook (so no
// genome is needed) unless the config supplies its own.
func testService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Log == nil {
		cfg.Log = quietLogger()
	}
	if cfg.QuotaRate == 0 {
		cfg.QuotaRate = -1 // disabled unless the test opts in
	}
	if cfg.Sleep == nil {
		cfg.Sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	}
	if cfg.RunScan == nil {
		cfg.RunScan = func(ctx context.Context, job Job) error { return nil }
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() { s.Drain(5 * time.Second) })
	return s
}

// oneGuide is a minimal valid job spec.
func oneGuide() JobSpec {
	return JobSpec{Guides: []GuideSpec{{Name: "g0", Spacer: "ACGTACGTACGTACGTACGT"}}, K: 1}
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, s *Service, id string) Job {
	t.Helper()
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	for {
		if job, ok := s.Get(id); ok && job.State.Terminal() {
			return job
		}
		select {
		case <-deadline.C:
			job, _ := s.Get(id)
			t.Fatalf("job %s did not reach a terminal state (now %s)", id, job.State)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// promText renders the service's metrics families.
func promText(t *testing.T, s *Service) string {
	t.Helper()
	var buf bytes.Buffer
	e := metrics.NewPromEncoder(&buf)
	s.WriteMetrics(e)
	if err := e.Err(); err != nil {
		t.Fatalf("encoding metrics: %v", err)
	}
	return buf.String()
}

func TestJobLifecycleDone(t *testing.T) {
	s := testService(t, Config{})
	job, err := s.SubmitTraced("alice", oneGuide(), "")
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateQueued {
		t.Fatalf("submitted job state = %s, want queued", job.State)
	}
	final := waitTerminal(t, s, job.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (err %q), want done", final.State, final.Error)
	}
	if final.Attempts != 1 || final.Retries != 0 {
		t.Fatalf("attempts/retries = %d/%d, want 1/0", final.Attempts, final.Retries)
	}
	if got := promText(t, s); !strings.Contains(got, `crisprscan_jobs_finished_total{state="done"} 1`) {
		t.Fatalf("metrics missing done counter:\n%s", got)
	}
}

func TestTransientFailureRetriesExactlyK(t *testing.T) {
	const k = 2
	flaky := &faultinject.Flaky{Fails: k, Err: errors.New("engine hiccup")}
	var sleeps []time.Duration
	var mu sync.Mutex
	s := testService(t, Config{
		MaxRetries: 3,
		RetryBase:  100 * time.Millisecond,
		RetryMax:   time.Second,
		RunScan:    func(ctx context.Context, job Job) error { return flaky.Next() },
		Sleep: func(ctx context.Context, d time.Duration) error {
			mu.Lock()
			sleeps = append(sleeps, d)
			mu.Unlock()
			return nil
		},
	})
	job, err := s.SubmitTraced("", oneGuide(), "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, job.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (err %q), want done after retries", final.State, final.Error)
	}
	if final.Retries != k {
		t.Fatalf("job retries = %d, want exactly %d", final.Retries, k)
	}
	if flaky.Calls() != k+1 {
		t.Fatalf("attempts executed = %d, want %d", flaky.Calls(), k+1)
	}
	if got := promText(t, s); !strings.Contains(got, "crisprscan_jobs_retried_total 2") {
		t.Fatalf("metrics missing retried counter = 2:\n%s", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sleeps) != k {
		t.Fatalf("backoff sleeps = %d, want %d", len(sleeps), k)
	}
	// Exponential with jitter in [0, d/2]: retry n waits in [base*2^(n-1),
	// 1.5*base*2^(n-1)].
	if sleeps[0] < 100*time.Millisecond || sleeps[0] > 150*time.Millisecond {
		t.Fatalf("first backoff %v outside [100ms,150ms]", sleeps[0])
	}
	if sleeps[1] < 200*time.Millisecond || sleeps[1] > 300*time.Millisecond {
		t.Fatalf("second backoff %v outside [200ms,300ms]", sleeps[1])
	}
}

func TestPermanentFailureDoesNotRetry(t *testing.T) {
	calls := 0
	var mu sync.Mutex
	s := testService(t, Config{
		MaxRetries: 3,
		RunScan: func(ctx context.Context, job Job) error {
			mu.Lock()
			calls++
			mu.Unlock()
			return errors.New("scanserve: bad PAM syntax")
		},
	})
	job, err := s.SubmitTraced("", oneGuide(), "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, job.ID)
	if final.State != StateFailed {
		t.Fatalf("final state = %s, want failed", final.State)
	}
	if final.ErrorClass != "permanent" {
		t.Fatalf("error class = %q, want permanent", final.ErrorClass)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry on permanent errors)", calls)
	}
	if got := promText(t, s); !strings.Contains(got, "crisprscan_jobs_retried_total 0") {
		t.Fatalf("metrics show retries for a permanent failure:\n%s", got)
	}
}

func TestTransientBudgetExhaustionFails(t *testing.T) {
	flaky := &faultinject.Flaky{Fails: 100}
	s := testService(t, Config{
		MaxRetries: 2,
		RunScan:    func(ctx context.Context, job Job) error { return flaky.Next() },
	})
	job, err := s.SubmitTraced("", oneGuide(), "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, job.ID)
	if final.State != StateFailed {
		t.Fatalf("final state = %s, want failed", final.State)
	}
	if final.Retries != 2 {
		t.Fatalf("retries = %d, want the full budget of 2", final.Retries)
	}
	if final.ErrorClass != "transient" {
		t.Fatalf("error class = %q, want transient", final.ErrorClass)
	}
}

func TestPanicIsolation(t *testing.T) {
	first := true
	var mu sync.Mutex
	s := testService(t, Config{
		Workers: 1,
		RunScan: func(ctx context.Context, job Job) error {
			mu.Lock()
			mine := first
			first = false
			mu.Unlock()
			if mine {
				panic("worker bug")
			}
			return nil
		},
	})
	bad, err := s.SubmitTraced("", oneGuide(), "")
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, s, bad.ID); final.State != StateFailed {
		t.Fatalf("panicked job state = %s, want failed", final.State)
	} else if !strings.Contains(final.Error, "panicked") {
		t.Fatalf("panicked job error = %q, want a panic message", final.Error)
	}
	// The pool must survive the panic and run the next job.
	good, err := s.SubmitTraced("", oneGuide(), "")
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, s, good.ID); final.State != StateDone {
		t.Fatalf("job after panic = %s, want done", final.State)
	}
}

func TestQuotaThrottlesWithRetryAfter(t *testing.T) {
	s := testService(t, Config{QuotaRate: 0.001, QuotaBurst: 1})
	if _, err := s.SubmitTraced("alice", oneGuide(), ""); err != nil {
		t.Fatalf("first submit within burst: %v", err)
	}
	_, err := s.SubmitTraced("alice", oneGuide(), "")
	var ra *RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("second submit err = %v, want RetryAfterError", err)
	}
	if ra.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", ra.RetryAfter)
	}
	// Quotas are per tenant: bob is unaffected by alice's burst.
	if _, err := s.SubmitTraced("bob", oneGuide(), ""); err != nil {
		t.Fatalf("other tenant throttled: %v", err)
	}
	if got := promText(t, s); !strings.Contains(got, "crisprscan_jobs_throttled_total 1") {
		t.Fatalf("metrics missing throttle counter:\n%s", got)
	}
}

func TestQueueFullSheds(t *testing.T) {
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
	first, err := s.SubmitTraced("", oneGuide(), "")
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to take the first job off the queue.
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
	if _, err := s.SubmitTraced("", oneGuide(), ""); err != nil {
		t.Fatalf("queueing within capacity: %v", err)
	}
	_, err = s.SubmitTraced("", oneGuide(), "")
	var ra *RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("over-capacity submit err = %v, want RetryAfterError (shed)", err)
	}
	if got := promText(t, s); !strings.Contains(got, "crisprscan_jobs_shed_total 1") {
		t.Fatalf("metrics missing shed counter:\n%s", got)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := testService(t, Config{
		Workers: 1,
		RunScan: func(ctx context.Context, job Job) error {
			started <- job.ID
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	defer close(release)
	running, err := s.SubmitTraced("", oneGuide(), "")
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.SubmitTraced("", oneGuide(), "")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-started:
		if id != running.ID {
			t.Fatalf("started %s, want %s", id, running.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first job never started")
	}
	// Cancel the queued job: terminal immediately, worker never sees it.
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if job := waitTerminal(t, s, queued.ID); job.State != StateCancelled {
		t.Fatalf("queued cancel = %s, want cancelled", job.State)
	}
	// Cancel the running job: its context aborts the scan.
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	if job := waitTerminal(t, s, running.ID); job.State != StateCancelled {
		t.Fatalf("running cancel = %s, want cancelled", job.State)
	}
	// Cancelling a terminal job is a no-op, not an error.
	if job, err := s.Cancel(running.ID); err != nil || job.State != StateCancelled {
		t.Fatalf("re-cancel = %s, %v", job.State, err)
	}
}

func TestFairQueuingAcrossTenants(t *testing.T) {
	var order []string
	var mu sync.Mutex
	gate := make(chan struct{})
	warmRunning := make(chan struct{})
	s := testService(t, Config{
		Workers: 1,
		RunScan: func(ctx context.Context, job Job) error {
			if job.Tenant == "warm" {
				close(warmRunning)
				<-gate
				return nil
			}
			mu.Lock()
			order = append(order, job.Tenant)
			mu.Unlock()
			return nil
		},
	})
	// Pin the single worker on a warm-up job so the real submissions all
	// queue before any dispatch — then fairness, not arrival order,
	// decides execution order.
	warm, err := s.SubmitTraced("warm", oneGuide(), "")
	if err != nil {
		t.Fatal(err)
	}
	<-warmRunning
	var ids []string
	for _, tenant := range []string{"alice", "alice", "alice", "bob"} {
		job, err := s.SubmitTraced(tenant, oneGuide(), "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	close(gate)
	waitTerminal(t, s, warm.ID)
	for _, id := range ids {
		waitTerminal(t, s, id)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"alice", "bob", "alice", "alice"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order %v; fair round-robin wants %v (bob's single job must not wait behind alice's backlog)", order, want)
	}
}

// TestDrainCheckpointsInFlightJobs is the graceful-drain regression:
// in-flight jobs that cannot finish inside the window are re-queued for
// resume, workers exit, and no goroutines leak. Run under -race in CI.
func TestDrainCheckpointsInFlightJobs(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	s := testService(t, Config{
		Dir:     dir,
		Workers: 2,
		RunScan: func(ctx context.Context, job Job) error {
			<-ctx.Done() // holds the worker until drain cancels it
			return ctx.Err()
		},
	})
	var ids []string
	for i := 0; i < 2; i++ {
		job, err := s.SubmitTraced("", oneGuide(), "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	// Wait until both are dispatched.
	deadline := time.NewTimer(5 * time.Second)
	defer deadline.Stop()
	for {
		running := 0
		for _, id := range ids {
			if job, _ := s.Get(id); job.State == StateRunning {
				running++
			}
		}
		if running == 2 {
			break
		}
		select {
		case <-deadline.C:
			t.Fatal("jobs never started")
		case <-time.After(time.Millisecond):
		}
	}
	if requeued := s.Drain(50 * time.Millisecond); requeued != 2 {
		t.Fatalf("Drain requeued %d jobs, want 2", requeued)
	}
	if s.Accepting() {
		t.Fatal("service still accepting after drain")
	}
	if _, err := s.SubmitTraced("", oneGuide(), ""); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain err = %v, want ErrDraining", err)
	}
	for _, id := range ids {
		if job, _ := s.Get(id); job.State != StateQueued {
			t.Fatalf("drained job %s state = %s, want queued (parked for resume)", id, job.State)
		}
	}
	// A successor service on the same directory adopts the parked jobs.
	s2, err := New(Config{
		Dir: dir, Log: quietLogger(), QuotaRate: -1,
		RunScan: func(ctx context.Context, job Job) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer s2.Drain(5 * time.Second)
	for _, id := range ids {
		if job := waitTerminal(t, s2, id); job.State != StateDone {
			t.Fatalf("resumed job %s = %s, want done", id, job.State)
		}
	}
	// Goroutine hygiene: everything the first service started must be
	// gone (poll briefly; runtime bookkeeping lags the exits).
	for wait := 0; ; wait++ {
		if runtime.NumGoroutine() <= before+4 || wait > 500 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+4 {
		t.Fatalf("goroutines after drain = %d, started with %d: leak", n, before)
	}
}

func TestCrashRecoveryRequeuesRunningJobs(t *testing.T) {
	dir := t.TempDir()
	blocked := make(chan struct{})
	s := testService(t, Config{
		Dir:     dir,
		Workers: 1,
		RunScan: func(ctx context.Context, job Job) error {
			close(blocked)
			<-ctx.Done()
			return ctx.Err()
		},
	})
	job, err := s.SubmitTraced("", oneGuide(), "")
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	// Simulate kill -9: no drain, just a new service over the same state.
	// The persisted record still says running; openStore must demote it.
	s2, err := New(Config{
		Dir: dir, Log: quietLogger(), QuotaRate: -1,
		RunScan: func(ctx context.Context, job Job) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer s2.Drain(5 * time.Second)
	if final := waitTerminal(t, s2, job.ID); final.State != StateDone {
		t.Fatalf("recovered job = %s, want done", final.State)
	}
	s.Drain(time.Second) // release the first service's worker
}

func TestSubmitValidation(t *testing.T) {
	s := testService(t, Config{})
	if _, err := s.SubmitTraced("", JobSpec{K: 1}, ""); err == nil {
		t.Fatal("no-guides spec accepted")
	}
	if _, err := s.SubmitTraced("", JobSpec{Guides: []GuideSpec{{Spacer: "  "}}}, ""); err == nil {
		t.Fatal("blank spacer accepted")
	}
	spec := oneGuide()
	spec.K = -1
	if _, err := s.SubmitTraced("", spec, ""); err == nil {
		t.Fatal("negative k accepted")
	}
	spec = oneGuide()
	spec.Genome = "../../etc/passwd"
	if _, err := s.SubmitTraced("", spec, ""); err == nil {
		t.Fatal("escaping genome path accepted")
	}
}
