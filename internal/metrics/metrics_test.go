package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	// Every method must be a safe no-op on nil.
	r.Add(CounterBytesScanned, 5)
	r.AddPhaseNanos(PhasePrefilter, 10)
	r.SetTracer(nil)
	r.SetModeledSeconds("kernel", 1)
	r.AddModeledSeconds("kernel", 1)
	r.StartPhase(PhaseCompile)()
	r.StartSpan(PhasePrefilter, "x")()
	r.TraceSpan("x")()
	r.StartChunk("x", 1)()
	r.SetProgress(nil)
	if got := r.PhaseNanos(PhaseCompile); got != 0 {
		t.Errorf("nil recorder PhaseNanos = %d", got)
	}
	if got := r.CounterValue(CounterBytesScanned); got != 0 {
		t.Errorf("nil recorder CounterValue = %d", got)
	}
	if s := r.Snapshot(); s != nil {
		t.Errorf("nil recorder Snapshot = %+v, want nil", s)
	}
}

func TestRecorderCountersAndPhases(t *testing.T) {
	r := NewRecorder()
	r.Add(CounterBytesScanned, 100)
	r.Add(CounterBytesScanned, 23)
	r.Add(CounterSitesEmitted, 7)
	r.AddPhaseNanos(PhaseVerify, 2_000_000_000)
	stop := r.StartPhase(PhaseCompile)
	stop()
	s := r.Snapshot()
	if s.Counters.BytesScanned != 123 {
		t.Errorf("BytesScanned = %d, want 123", s.Counters.BytesScanned)
	}
	if s.Counters.SitesEmitted != 7 {
		t.Errorf("SitesEmitted = %d, want 7", s.Counters.SitesEmitted)
	}
	if s.Phases.Verify != 2.0 {
		t.Errorf("Verify = %v, want 2.0", s.Phases.Verify)
	}
	if s.Phases.Compile < 0 {
		t.Errorf("Compile = %v, want >= 0", s.Phases.Compile)
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add(CounterCandidateWindows, 2)
				r.AddPhaseNanos(PhasePrefilter, 3)
				end := r.StartChunk("chunk", 64)
				end()
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters.CandidateWindows != 16000 {
		t.Errorf("CandidateWindows = %d, want 16000", s.Counters.CandidateWindows)
	}
	if s.Phases.Prefilter != 24000e-9 {
		t.Errorf("Prefilter = %v, want 24000ns", s.Phases.Prefilter)
	}
	if s.Counters.ChunksDispatched != 8000 || s.ChunkLatency.Count != 8000 {
		t.Errorf("chunks=%d latency count=%d, want 8000/8000",
			s.Counters.ChunksDispatched, s.ChunkLatency.Count)
	}
}

func TestModeledSeconds(t *testing.T) {
	r := NewRecorder()
	r.SetModeledSeconds("compile", 45)
	r.SetModeledSeconds("compile", 45) // idempotent overwrite
	r.AddModeledSeconds("kernel", 0.5)
	r.AddModeledSeconds("kernel", 0.25)
	s := r.Snapshot()
	if s.ModeledSec["compile"] != 45 {
		t.Errorf("modeled compile = %v, want 45", s.ModeledSec["compile"])
	}
	if s.ModeledSec["kernel"] != 0.75 {
		t.Errorf("modeled kernel = %v, want 0.75", s.ModeledSec["kernel"])
	}
	// The snapshot must be a copy, not an aliased map.
	r.AddModeledSeconds("kernel", 1)
	if s.ModeledSec["kernel"] != 0.75 {
		t.Errorf("snapshot aliased the live modeled map")
	}
}

func TestPhaseAndCounterNames(t *testing.T) {
	wantPhases := []string{"load", "compile", "prefilter", "verify", "report"}
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() != wantPhases[p] {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), wantPhases[p])
		}
	}
	wantCounters := []string{
		"bytes_scanned", "candidate_windows", "prefilter_hits", "verifications",
		"sites_emitted", "chunks_dispatched", "panics_recovered",
	}
	for c := Counter(0); c < NumCounters; c++ {
		if c.String() != wantCounters[c] {
			t.Errorf("Counter(%d).String() = %q, want %q", c, c.String(), wantCounters[c])
		}
	}
	if !strings.Contains(Phase(99).String(), "99") || !strings.Contains(Counter(99).String(), "99") {
		t.Error("out-of-range enum String() should embed the raw value")
	}
}

func TestSnapshotString(t *testing.T) {
	r := NewRecorder()
	r.Add(CounterBytesScanned, 42)
	r.AddModeledSeconds("kernel", 0.5)
	got := r.Snapshot().String()
	for _, want := range []string{"bytes=42", "phases[", "modeled_kernel"} {
		if !strings.Contains(got, want) {
			t.Errorf("Snapshot.String() = %q, missing %q", got, want)
		}
	}
	var nilSnap *Snapshot
	if nilSnap.String() != "<nil>" {
		t.Errorf("nil Snapshot.String() = %q", nilSnap.String())
	}
}

func TestStopwatchAndMeasure(t *testing.T) {
	sw := NewStopwatch()
	if sw.ElapsedNanos() < 0 {
		t.Error("stopwatch went backwards")
	}
	sec, err := MeasureSeconds(func() error { return nil })
	if err != nil || sec < 0 {
		t.Errorf("MeasureSeconds = %v, %v", sec, err)
	}
	if Now() < 0 {
		t.Error("Now() negative")
	}
	if Wall().IsZero() {
		t.Error("Wall() zero")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.MeanSec != 0 {
		t.Errorf("empty histogram snapshot = %+v", s)
	}
	// 100 observations at ~1ms, one outlier at ~1s.
	for i := 0; i < 100; i++ {
		h.Observe(1_000_000)
	}
	h.Observe(1_000_000_000)
	s := h.Snapshot()
	if s.Count != 101 {
		t.Errorf("Count = %d, want 101", s.Count)
	}
	if s.MaxSec != 1.0 {
		t.Errorf("MaxSec = %v, want 1.0", s.MaxSec)
	}
	// p50 must land in the ~1ms bucket (2x relative error bound).
	if s.P50Sec < 0.5e-3 || s.P50Sec > 2e-3 {
		t.Errorf("P50Sec = %v, want ~1ms", s.P50Sec)
	}
	// p99 rank (99th of 101) is still within the 1ms observations.
	if s.P99Sec > 2e-3 {
		t.Errorf("P99Sec = %v, want ~1ms", s.P99Sec)
	}
	if s.MeanSec < 1e-3 || s.MeanSec > 20e-3 {
		t.Errorf("MeanSec = %v", s.MeanSec)
	}
	h.Observe(-5) // clamps, does not panic
	if got := h.Snapshot().Count; got != 102 {
		t.Errorf("Count after clamp = %d, want 102", got)
	}
}
