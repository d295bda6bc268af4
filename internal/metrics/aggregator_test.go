package metrics

import (
	"sync"
	"testing"
)

// scanSnapshot fabricates one scan's snapshot through a real recorder,
// so merge tests exercise the same field paths production uses.
func scanSnapshot(chunks int, latNs int64) *Snapshot {
	r := NewRecorder()
	r.Add(CounterBytesScanned, 1000)
	r.Add(CounterSitesEmitted, 3)
	r.AddPhaseNanos(PhasePrefilter, 2e9)
	r.AddModeledSeconds("kernel", 0.5)
	for i := 0; i < chunks; i++ {
		r.chunkLat.Observe(latNs)
	}
	return r.Snapshot()
}

func TestAggregatorNilIsSafe(t *testing.T) {
	var a *Aggregator
	a.Observe(scanSnapshot(1, 10))
	if s := a.MergedWith(); s != nil {
		t.Errorf("nil aggregator snapshot = %+v", s)
	}
}

func TestAggregatorMergesScans(t *testing.T) {
	var a Aggregator
	a.Observe(scanSnapshot(4, 1000))
	a.Observe(scanSnapshot(6, 1_000_000))
	s := a.MergedWith()
	if s.Counters.BytesScanned != 2000 || s.Counters.SitesEmitted != 6 {
		t.Errorf("counters = %+v", s.Counters)
	}
	if s.Phases.Prefilter != 4.0 {
		t.Errorf("prefilter sec = %v, want 4", s.Phases.Prefilter)
	}
	if s.ChunkLatency.Count != 10 {
		t.Errorf("merged hist count = %d, want 10", s.ChunkLatency.Count)
	}
	if s.ModeledSec["kernel"] != 1.0 {
		t.Errorf("modeled kernel = %v, want 1", s.ModeledSec["kernel"])
	}
	// Two distinct latency magnitudes must survive as distinct buckets.
	if len(s.ChunkLatency.Buckets) != 2 {
		t.Errorf("merged buckets = %+v, want 2 buckets", s.ChunkLatency.Buckets)
	}
	var total int64
	for _, b := range s.ChunkLatency.Buckets {
		total += b.Count
	}
	if total != s.ChunkLatency.Count {
		t.Errorf("bucket counts sum to %d, hist count %d", total, s.ChunkLatency.Count)
	}
}

func TestAggregatorMergedWithLive(t *testing.T) {
	var a Aggregator
	a.Observe(scanSnapshot(2, 1000))
	live := scanSnapshot(3, 1000)
	s := a.MergedWith(live, nil)
	if s.Counters.BytesScanned != 2000 {
		t.Errorf("bytes = %d, want 2000", s.Counters.BytesScanned)
	}
	if s.ChunkLatency.Count != 5 {
		t.Errorf("count = %d, want 5", s.ChunkLatency.Count)
	}
	// The merged view must not leak aggregator state: mutating it may
	// not change a later snapshot.
	s.ModeledSec["kernel"] = 99
	if got := a.MergedWith().ModeledSec["kernel"]; got != 0.5 {
		t.Errorf("aggregator state mutated through merged view: %v", got)
	}
}

func TestAggregatorConcurrentObserve(t *testing.T) {
	var a Aggregator
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a.Observe(scanSnapshot(1, 1000))
				_ = a.MergedWith()
			}
		}()
	}
	wg.Wait()
	if got := a.MergedWith().Counters.BytesScanned; got != 400*1000 {
		t.Errorf("bytes = %d, want 400000", got)
	}
}

func TestHistogramSnapshotMerge(t *testing.T) {
	var h1, h2 Histogram
	h1.Observe(100)
	h1.Observe(100)
	h2.Observe(1_000_000)
	m := h1.Snapshot().Merge(h2.Snapshot())
	if m.Count != 3 {
		t.Fatalf("count = %d", m.Count)
	}
	if m.MaxSec != secondsOf(1_000_000) {
		t.Errorf("max = %v", m.MaxSec)
	}
	wantMean := (100 + 100 + 1_000_000) / 3.0 / 1e9
	if diff := m.MeanSec - wantMean; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("mean = %v, want %v", m.MeanSec, wantMean)
	}
	// Merge with an empty side is the identity.
	empty := HistogramSnapshot{}
	if got := m.Merge(empty); got.Count != 3 {
		t.Errorf("merge with empty changed count: %+v", got)
	}
	if got := empty.Merge(m); got.Count != 3 {
		t.Errorf("empty.Merge changed count: %+v", got)
	}
}
