// Package faultinject supplies deterministic failure machinery for the
// robustness tests: a seedable io.Reader that delivers short reads,
// transient stalls, and a mid-stream error at an exact byte offset; an
// arch.Engine wrapper that errors or panics on a chosen chromosome; a
// transient-failure injector (Flaky, FlakyEngine) that fails a counted
// number of times and then recovers, for driving retry/backoff paths;
// and a latency injector (LatencyEngine) that holds scans open for
// drain and overload tests. All are pure test doubles — nothing in the
// production pipeline imports them — but they live outside _test files
// so every package's tests (core, the CLI, the service, the public API)
// can share one implementation.
//
// Determinism matters here: a fault that moves between runs turns a
// red test into a flake. Every failure behavior is driven by the
// configured seed and counters, never by wall-clock or scheduler
// timing; for injected latency, prefer the Gate channel (explicit
// release) over Delay when a test needs exact sequencing.
package faultinject

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"time"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/genome"
)

// ErrInjected is the default error the Reader and Engine deliver.
var ErrInjected = errors.New("faultinject: injected fault")

// ReaderConfig configures a faulty Reader. The zero value injects
// nothing (the Reader degenerates to a pass-through).
type ReaderConfig struct {
	// Seed drives the short-read length sequence.
	Seed int64
	// MaxRead, when > 0, caps each Read at a random length in
	// [1, MaxRead] — the short, ragged reads a slow pipe or network
	// filesystem produces.
	MaxRead int
	// StallEvery, when > 0, makes every Nth Read return (0, nil) — a
	// transient stall. Well-behaved callers (bufio included) retry.
	StallEvery int
	// FailAfter, when > 0, injects Err once that many bytes have been
	// delivered (the reader truncates the preceding Read so the failure
	// lands at the exact offset); subsequent Reads keep failing. Zero
	// means never.
	FailAfter int64
	// Err is the injected error (default ErrInjected).
	Err error
}

// Reader wraps an io.Reader with deterministic fault injection.
type Reader struct {
	src       io.Reader
	cfg       ReaderConfig
	rng       *rand.Rand
	delivered int64
	reads     int
}

// NewReader wraps src with the configured faults; the zero config is a
// pass-through.
func NewReader(src io.Reader, cfg ReaderConfig) *Reader {
	if cfg.Err == nil {
		cfg.Err = ErrInjected
	}
	return &Reader{src: src, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Read implements io.Reader with the configured faults.
func (r *Reader) Read(p []byte) (int, error) {
	r.reads++
	if r.cfg.FailAfter > 0 && r.delivered >= r.cfg.FailAfter {
		return 0, r.cfg.Err
	}
	if r.cfg.StallEvery > 0 && r.reads%r.cfg.StallEvery == 0 {
		return 0, nil
	}
	if r.cfg.MaxRead > 0 && len(p) > r.cfg.MaxRead {
		p = p[:1+r.rng.Intn(r.cfg.MaxRead)]
	}
	if r.cfg.FailAfter > 0 && int64(len(p)) > r.cfg.FailAfter-r.delivered {
		p = p[:r.cfg.FailAfter-r.delivered]
	}
	n, err := r.src.Read(p)
	r.delivered += int64(n)
	return n, err
}

// Delivered returns the bytes passed through so far.
func (r *Reader) Delivered() int64 { return r.delivered }

// ReaderAt wraps an io.ReaderAt and fails deterministically: the Nth
// ReadAt call (1-based FailOnCall) and every one after it returns Err.
// It exercises random-access loaders (the genome seed index) the way
// Reader exercises streams. Wrap Err with Transient to drive the
// transient-classification path.
type ReaderAt struct {
	// Inner is the wrapped source.
	Inner io.ReaderAt
	// FailOnCall, when > 0, is the 1-based ReadAt call index at which
	// injection starts. Zero never injects.
	FailOnCall int
	// Err is the injected error (default ErrInjected).
	Err error

	mu    sync.Mutex
	calls int
}

// ReadAt implements io.ReaderAt with the configured fault.
func (r *ReaderAt) ReadAt(p []byte, off int64) (int, error) {
	r.mu.Lock()
	r.calls++
	calls := r.calls
	r.mu.Unlock()
	if r.FailOnCall > 0 && calls >= r.FailOnCall {
		err := r.Err
		if err == nil {
			err = ErrInjected
		}
		return 0, err
	}
	return r.Inner.ReadAt(p, off)
}

// Calls returns how many ReadAt calls have been observed.
func (r *ReaderAt) Calls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

// Engine wraps an arch.Engine and sabotages the Nth chromosome scan:
// either by returning an error or, when Panic is set, by panicking in
// the caller's goroutine — exactly the failure the orchestrator's
// recover path must absorb. Scans before and after the Nth pass
// through untouched, so tests can assert partial progress.
type Engine struct {
	Inner arch.Engine
	// FailOn is the 1-based ScanChrom invocation to sabotage
	// (0 = never).
	FailOn int
	// Panic selects panic(Err) over returning Err.
	Panic bool
	// Err is the injected failure (default ErrInjected).
	Err error

	mu    sync.Mutex
	calls int // guarded by mu
}

// Name implements arch.Engine.
func (e *Engine) Name() string { return e.Inner.Name() }

// Calls returns how many chromosome scans have been attempted.
func (e *Engine) Calls() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.calls
}

// ScanChrom implements arch.Engine.
func (e *Engine) ScanChrom(ctx context.Context, c *genome.Chromosome, emit func(automata.Report)) error {
	if err := e.arm(); err != nil {
		return err
	}
	return arch.ScanChrom(ctx, e.Inner, c, emit)
}

// transientErr marks an injected failure as transient via the
// duck-typed Transient() method the scan service's error taxonomy
// recognizes (no import in either direction, so test doubles and the
// production classifier stay decoupled).
type transientErr struct{ err error }

func (e transientErr) Error() string   { return e.err.Error() }
func (e transientErr) Unwrap() error   { return e.err }
func (e transientErr) Transient() bool { return true }

// Transient wraps err so retry-aware callers classify it as a
// transient (retryable) failure. A nil err returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return transientErr{err: err}
}

// Flaky is the transient-failure injector: an operation that fails its
// first Fails invocations with a transient-classified error and
// succeeds forever after — the canonical shape for driving retry and
// backoff paths deterministically. The zero value never fails.
type Flaky struct {
	// Fails is how many leading invocations fail.
	Fails int
	// Err is the underlying injected error (default ErrInjected); it is
	// delivered wrapped by Transient.
	Err error

	mu    sync.Mutex
	calls int // guarded by mu
}

// Next records one invocation and returns the injected transient error
// while the failure budget lasts, nil afterwards.
func (f *Flaky) Next() error {
	f.mu.Lock()
	f.calls++
	fire := f.calls <= f.Fails
	f.mu.Unlock()
	if !fire {
		return nil
	}
	err := f.Err
	if err == nil {
		err = ErrInjected
	}
	return Transient(err)
}

// Calls returns how many invocations have been observed.
func (f *Flaky) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// FlakyEngine wraps an arch.Engine with a Flaky gate: the first
// Flaky.Fails chromosome scans fail transiently, later ones pass
// through — an engine that recovers after retries.
type FlakyEngine struct {
	Inner arch.Engine
	Flaky Flaky
}

// Name implements arch.Engine.
func (e *FlakyEngine) Name() string { return e.Inner.Name() }

// ScanChrom implements arch.Engine.
func (e *FlakyEngine) ScanChrom(ctx context.Context, c *genome.Chromosome, emit func(automata.Report)) error {
	if err := e.Flaky.Next(); err != nil {
		return err
	}
	return arch.ScanChrom(ctx, e.Inner, c, emit)
}

// LatencyEngine is the latency injector: it delays every chromosome
// scan, either by a fixed Delay or — for fully deterministic
// sequencing — until the test sends on Gate, whichever is configured.
// Waiting respects ctx, so a delayed scan still cancels promptly: the
// tool for pinning jobs in the running state while a test exercises
// drain, overload, or deadline paths.
type LatencyEngine struct {
	Inner arch.Engine
	// Delay, when > 0, is waited before each scan.
	Delay time.Duration
	// Gate, when non-nil, must deliver one value per scan before the
	// scan proceeds (send to release, close to release everything).
	Gate chan struct{}
}

// Name implements arch.Engine.
func (e *LatencyEngine) Name() string { return e.Inner.Name() }

// ScanChrom implements arch.Engine; the injected wait aborts with
// ctx.Err() on cancellation, like a real slow scan would at its next
// chunk boundary.
func (e *LatencyEngine) ScanChrom(ctx context.Context, c *genome.Chromosome, emit func(automata.Report)) error {
	if err := e.wait(ctx); err != nil {
		return err
	}
	return arch.ScanChrom(ctx, e.Inner, c, emit)
}

func (e *LatencyEngine) wait(ctx context.Context) error {
	if e.Delay > 0 {
		t := time.NewTimer(e.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if e.Gate != nil {
		select {
		case <-e.Gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// arm advances the call counter and triggers the configured fault when
// the Nth scan arrives.
func (e *Engine) arm() error {
	e.mu.Lock()
	e.calls++
	fire := e.FailOn > 0 && e.calls == e.FailOn
	e.mu.Unlock()
	if !fire {
		return nil
	}
	err := e.Err
	if err == nil {
		err = ErrInjected
	}
	if e.Panic {
		panic(err)
	}
	return err
}
