// Package arch defines the abstractions shared by every execution
// platform in the study: the scan-engine interface the orchestrator
// drives, the timing breakdown every platform reports, and resource
// accounting for spatial architectures.
//
// There is one scan contract. Every engine implements Engine, whose
// ScanChrom takes the caller's context and stops within DefaultChunk
// positions of a cancel, and every scan starts through the package's
// ScanChrom, which turns a panic on the calling goroutine into an
// error. ChunkScan gives the data-parallel engines both properties for
// their worker goroutines.
//
// The paper evaluates six systems. Two baselines (Cas-OFFinder, CasOT)
// and the automata CPU engine (the HyperScan stand-in) execute for real
// and are wall-clock measured. The accelerator platforms (Micron AP,
// FPGA, iNFAnt2 and Cas-OFFinder on GPU) are cost models only: a
// Modeled prices the reference scan's input length and event count
// with device constants from published specifications, and never scans
// anything itself — a platform can differ in timing, never in matches.
package arch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// PatternSpec is the engine-independent description of one search
// pattern: a spacer matched with up to K mismatches plus an exactly
// matched PAM. Code is the event code reported for matches (the
// orchestrator assigns guideIndex*2 + strand).
//
// Both fields are in plus-strand window order. A plus-strand site reads
// spacer-then-PAM; a minus-strand site's plus-strand window reads
// revcomp(PAM)-then-revcomp(spacer), which the orchestrator expresses as
// a spec with PAMLeft set and both parts reverse-complemented. Engines
// therefore scan the forward genome once and cover both strands.
type PatternSpec struct {
	Spacer dna.Pattern
	PAM    dna.Pattern
	// PAMLeft places the PAM before the spacer in the window
	// (minus-strand patterns).
	PAMLeft bool
	K       int
	Code    int32
}

// SiteLen returns the full window length (spacer plus PAM).
func (p PatternSpec) SiteLen() int { return len(p.Spacer) + len(p.PAM) }

// Window returns the full degenerate window pattern in scan order.
func (p PatternSpec) Window() dna.Pattern {
	if p.PAMLeft {
		return append(append(dna.Pattern{}, p.PAM...), p.Spacer...)
	}
	return append(append(dna.Pattern{}, p.Spacer...), p.PAM...)
}

// SpacerOffset returns the window index where the spacer begins.
func (p PatternSpec) SpacerOffset() int {
	if p.PAMLeft {
		return len(p.PAM)
	}
	return 0
}

// PAMOffset returns the window index where the PAM begins.
func (p PatternSpec) PAMOffset() int {
	if p.PAMLeft {
		return 0
	}
	return len(p.Spacer)
}

// MinusSpec derives the minus-strand spec for a plus-strand spec: both
// parts reverse-complemented, PAM side flipped, and the code set to the
// given value.
func (p PatternSpec) MinusSpec(code int32) PatternSpec {
	return PatternSpec{
		Spacer:  p.Spacer.ReverseComplement(),
		PAM:     p.PAM.ReverseComplement(),
		PAMLeft: !p.PAMLeft,
		K:       p.K,
		Code:    code,
	}
}

// Engine scans chromosomes and emits match events. Event codes are
// assigned by the caller at compile time (conventionally
// guideIndex*2 + strand). It is the one scan contract every engine
// implements; start a scan through the package-level ScanChrom, which
// guards it.
type Engine interface {
	// Name identifies the engine in tables ("hyperscan", "casot", ...).
	Name() string
	// ScanChrom scans one chromosome and emits every match event. End
	// positions are 0-based indices of the last matched base. The scan
	// checks ctx at least every DefaultChunk positions; once ctx is done
	// it stops and returns an error wrapping ctx.Err(). An engine may
	// emit before it fails, so a caller discards the events of a scan
	// that returns an error.
	ScanChrom(ctx context.Context, c *genome.Chromosome, emit func(automata.Report)) error
}

// ScanChrom runs one chromosome scan of e: the one call every scan
// starts through. A panic on the calling goroutine becomes an error
// naming the engine and chromosome, so a buggy engine fails its search
// instead of crashing the process (ChunkScan already recovers panics
// in its workers).
func ScanChrom(ctx context.Context, e Engine, c *genome.Chromosome, emit func(automata.Report)) error {
	return Recovered(nil, func(r any) error {
		return fmt.Errorf("arch: engine %s panicked scanning %s: %v", e.Name(), c.Name, r)
	}, func() error {
		return e.ScanChrom(ctx, c, emit)
	})
}

// Instrumented is implemented by engines that report execution metrics
// (counters, per-chunk latency) into a shared recorder. The orchestrator installs its recorder on every
// engine that supports it before scanning starts.
type Instrumented interface {
	Engine
	// SetMetrics installs the recorder the engine reports into; nil
	// detaches instrumentation. Must be called before scanning starts
	// (engines read the recorder without synchronization).
	SetMetrics(*metrics.Recorder)
}

// SetMetrics installs rec on e when the engine is Instrumented and is
// a no-op otherwise.
func SetMetrics(e Engine, rec *metrics.Recorder) {
	if ie, ok := e.(Instrumented); ok {
		ie.SetMetrics(rec)
	}
}

// DefaultChunk is the work-unit size, in input positions, that
// ChunkScan hands to pool workers. It bounds both cancellation latency
// (ctx is checked between chunks) and the blast radius of a worker
// panic (the error names one chunk).
const DefaultChunk = 1 << 16

// ChunkScan partitions the position range [0, total) into fixed-size
// chunks and drains them through a pool of worker goroutines. It is the
// one place the data-parallel CPU engines spawn goroutines, so the
// robustness invariants live here once:
//
//   - ctx is checked before every chunk; once it is done, workers stop
//     and the pool returns an error wrapping ctx.Err();
//   - a panic inside scan is recovered, converted to an error carrying
//     the offending chunk's coordinates, and cancels the sibling
//     workers — a scan bug degrades to an error, never a process crash;
//   - on success the per-chunk event batches are returned in chunk
//     order, so emission order is deterministic regardless of worker
//     interleaving. On any error no events are returned.
//
// It is also the pool's single instrumentation point: when rec is
// non-nil every chunk dispatch is counted, its latency lands in the
// recorder's histogram sketch (and, with a tracer attached, as one
// span per chunk), and recovered worker panics are counted. A nil rec
// costs one nil check per chunk.
//
// scan is called with [lo, hi) chunk bounds and appends its events to
// *out; it must not retain out across calls.
func ChunkScan(ctx context.Context, label string, workers, total, chunkSize int, rec *metrics.Recorder, scan func(lo, hi int, out *[]automata.Report) error) ([][]automata.Report, error) {
	if total <= 0 {
		return nil, nil
	}
	if chunkSize <= 0 {
		chunkSize = DefaultChunk
	}
	n := (total + chunkSize - 1) / chunkSize
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	traced := rec.Traced()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([][]automata.Report, n)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := cctx.Err(); err != nil {
					errs[w] = fmt.Errorf("arch: %s canceled at chunk %d/%d: %w", label, i, n, err)
					return
				}
				lo := i * chunkSize
				hi := lo + chunkSize
				if hi > total {
					hi = total
				}
				chunkLabel := label
				if traced {
					chunkLabel = fmt.Sprintf("%s chunk %d", label, i)
				}
				endChunk := rec.StartChunk(chunkLabel, int64(hi-lo))
				err := runChunk(label, i, lo, hi, rec, scan, &out[i])
				endChunk()
				if err != nil {
					errs[w] = err
					cancel()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := firstScanError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// Recovered runs fn under the module's one panic guard: a panic inside
// fn is counted in rec (CounterPanicsRecovered) and converted to the
// error wrap builds from the recovered value, so a scan bug degrades to
// an error instead of a process crash. ChunkScan routes every worker
// chunk through it; the scan service reuses it for whole-job isolation.
func Recovered(rec *metrics.Recorder, wrap func(r any) error, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			rec.Add(metrics.CounterPanicsRecovered, 1)
			err = wrap(r)
		}
	}()
	return fn()
}

// runChunk executes one chunk under the shared panic guard.
func runChunk(label string, idx, lo, hi int, rec *metrics.Recorder, scan func(lo, hi int, out *[]automata.Report) error, out *[]automata.Report) error {
	return Recovered(rec, func(r any) error {
		return fmt.Errorf("arch: %s: worker panic on chunk %d [%d:%d): %v", label, idx, lo, hi, r)
	}, func() error {
		return scan(lo, hi, out)
	})
}

// firstScanError picks the error to surface from a pool run: a real
// failure (panic or scan error) beats the cancellation errors the
// sibling workers report after cancel() fires.
func firstScanError(errs []error) error {
	var ctxErr error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded) {
			if ctxErr == nil {
				ctxErr = e
			}
			continue
		}
		return e
	}
	return ctxErr
}

// Modeled is a platform cost model: it predicts device timing
// analytically from the work of one reference scan. It is not an
// Engine; the orchestrator runs the reference scan and charges the
// model per chromosome.
type Modeled interface {
	// Name identifies the modeled platform ("ap", "fpga-stride2", ...).
	Name() string
	// EstimateBreakdown predicts the device-time breakdown for scanning
	// inputLen bases producing reportCount match events.
	EstimateBreakdown(inputLen, reportCount int) Breakdown
	// Resources reports spatial resource usage after compilation.
	Resources() ResourceUsage
}

// Breakdown is the per-phase time decomposition the paper's end-to-end
// figures use. All values are seconds of modeled (or measured) time.
type Breakdown struct {
	Compile  float64 // pattern compilation / synthesis / placement
	Transfer float64 // host-to-device input streaming overhead
	Kernel   float64 // the scan itself
	Report   float64 // report extraction and post-processing
}

// Total sums every phase.
func (b Breakdown) Total() float64 {
	return b.Compile + b.Transfer + b.Kernel + b.Report
}

// Online returns the on-line time (everything but the one-time compile)
// without transfer overlap: transfer + kernel + report.
func (b Breakdown) Online() float64 { return b.Transfer + b.Kernel + b.Report }

// OnlineOverlapped returns the on-line time assuming the host streams
// input concurrently with kernel execution (double buffering) — one of
// the paper's proposed improvements for the spatial platforms, whose
// transfer often rivals their kernel (E6). The slower of the two
// pipelines binds; reports drain afterwards.
func (b Breakdown) OnlineOverlapped() float64 {
	slower := b.Transfer
	if b.Kernel > slower {
		slower = b.Kernel
	}
	return slower + b.Report
}

// String renders the breakdown compactly for tables.
func (b Breakdown) String() string {
	return fmt.Sprintf("compile=%s transfer=%s kernel=%s report=%s total=%s",
		Seconds(b.Compile), Seconds(b.Transfer), Seconds(b.Kernel), Seconds(b.Report), Seconds(b.Total()))
}

// Seconds formats a float second count using time.Duration rendering.
func Seconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// ResourceUsage reports how much of a spatial device a compiled workload
// occupies.
type ResourceUsage struct {
	// States is the automaton state count mapped onto the device
	// (STEs on the AP, LUT/FF pairs on the FPGA).
	States int
	// Capacity is the device's total state capacity per pass.
	Capacity int
	// Passes is ceil(States / Capacity): how many times the input must
	// be streamed because the workload exceeds one configuration.
	Passes int
	// ReportStates counts reporting states (the AP's output resource).
	ReportStates int
}

// Utilization is the occupied fraction of the final pass's device.
func (r ResourceUsage) Utilization() float64 {
	if r.Capacity == 0 {
		return 0
	}
	return float64(r.States) / float64(r.Capacity*maxInt(r.Passes, 1))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
