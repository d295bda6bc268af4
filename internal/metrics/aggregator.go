package metrics

import "sync"

// Aggregator accumulates Snapshots across scans into one
// process-lifetime view — the backing store for the admin endpoint's
// /metrics exposition, where Prometheus expects counters to be
// monotonic across scrapes for as long as the process lives. A typical
// serving loop observes each completed scan's final snapshot; an
// in-flight scan's live recorder is merged per scrape via MergedWith.
//
// The zero value is an empty aggregator. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Aggregator struct {
	mu sync.Mutex
	// acc is the running merged snapshot. guarded by mu
	acc Snapshot // guarded by mu
}

// Observe folds one completed scan's snapshot into the lifetime
// totals. A nil snapshot adds nothing.
func (a *Aggregator) Observe(s *Snapshot) {
	if a == nil || s == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.acc = mergeSnapshots(a.acc, *s)
}

// MergedWith returns the lifetime snapshot with any number of live
// snapshots (in-flight scans' recorders) merged on top — the exact
// document a /metrics scrape should expose: completed plus in-flight
// work, never double-counted as long as a scan's final snapshot is
// observed only after it leaves the live set.
func (a *Aggregator) MergedWith(live ...*Snapshot) *Snapshot {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	out := cloneSnapshot(a.acc)
	a.mu.Unlock()
	for _, s := range live {
		if s != nil {
			out = mergeSnapshots(out, *s)
		}
	}
	return &out
}

// mergeSnapshots adds b onto a field-wise: phase seconds and counters
// sum, the chunk-latency sketches merge, modeled steps add.
func mergeSnapshots(a, b Snapshot) Snapshot {
	a.Phases.Load += b.Phases.Load
	a.Phases.Compile += b.Phases.Compile
	a.Phases.Prefilter += b.Phases.Prefilter
	a.Phases.Verify += b.Phases.Verify
	a.Phases.Report += b.Phases.Report
	a.Counters.BytesScanned += b.Counters.BytesScanned
	a.Counters.CandidateWindows += b.Counters.CandidateWindows
	a.Counters.PrefilterHits += b.Counters.PrefilterHits
	a.Counters.Verifications += b.Counters.Verifications
	a.Counters.SitesEmitted += b.Counters.SitesEmitted
	a.Counters.ChunksDispatched += b.Counters.ChunksDispatched
	a.Counters.PanicsRecovered += b.Counters.PanicsRecovered
	a.ChunkLatency = a.ChunkLatency.Merge(b.ChunkLatency)
	if len(b.ModeledSec) > 0 {
		if a.ModeledSec == nil {
			a.ModeledSec = make(map[string]float64, len(b.ModeledSec))
		}
		for k, v := range b.ModeledSec {
			a.ModeledSec[k] += v
		}
	}
	return a
}

// cloneSnapshot deep-copies the mutable parts so callers can't alias
// the aggregator's internal state.
func cloneSnapshot(s Snapshot) Snapshot {
	s.ChunkLatency.Buckets = append([]HistogramBucket(nil), s.ChunkLatency.Buckets...)
	if s.ModeledSec != nil {
		m := make(map[string]float64, len(s.ModeledSec))
		for k, v := range s.ModeledSec {
			m[k] = v
		}
		s.ModeledSec = m
	}
	return s
}
