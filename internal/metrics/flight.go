package metrics

import "sync"

// FlightRecorder is the bounded in-memory ring of recent job traces
// behind /debug/trace/{jobID}. Entries are tracked at admission (while
// the trace is still live) and sealed at the job's terminal state;
// eviction over the capacity prefers dropping healthy history — oldest
// sealed non-failed entries first, then oldest sealed failed ones —
// and never touches a live entry, so failed and retried jobs stay
// inspectable the longest. All methods are safe for concurrent use and
// no-ops on a nil receiver.
type FlightRecorder struct {
	mu      sync.Mutex
	cap     int                     // guarded by mu
	entries map[string]*flightEntry // guarded by mu
	order   []string                // guarded by mu; insertion order, oldest first
	onEvict func(key string)        // guarded by mu (set once before use)
}

// flightEntry is one tracked trace; all fields are guarded by the
// recorder's mu.
type flightEntry struct {
	tracer *SpanTracer
	sealed bool
	failed bool
}

// defaultFlightEntries bounds the ring when the caller passes no
// capacity: enough recent history to debug a burst without letting
// trace retention grow with uptime.
const defaultFlightEntries = 64

// NewFlightRecorder returns a ring retaining up to capacity traces
// (<= 0 selects the default).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = defaultFlightEntries
	}
	return &FlightRecorder{cap: capacity, entries: make(map[string]*flightEntry)}
}

// OnEvict installs a callback observing evicted keys — the hook that
// deletes a job's on-disk trace file with its in-memory entry. Set it
// once, before Track is first called; the callback runs with the
// recorder locked and must not call back into it.
func (f *FlightRecorder) OnEvict(fn func(key string)) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.onEvict = fn
	f.mu.Unlock()
}

// Track registers (or, on resume, re-registers) the live trace of key.
func (f *FlightRecorder) Track(key string, tr *SpanTracer) {
	if f == nil || tr == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if e, ok := f.entries[key]; ok {
		e.tracer, e.sealed, e.failed = tr, false, false
		return
	}
	f.entries[key] = &flightEntry{tracer: tr}
	f.order = append(f.order, key)
	f.evictLocked()
}

// Seal marks key's trace terminal. failed records whether the job
// failed or retried (eviction spares those longest).
func (f *FlightRecorder) Seal(key string, failed bool) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.entries[key]
	if !ok {
		return
	}
	e.sealed, e.failed = true, failed
}

// Get returns the trace tracked for key, live or sealed.
func (f *FlightRecorder) Get(key string) (*SpanTracer, bool) {
	if f == nil {
		return nil, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.entries[key]
	if !ok {
		return nil, false
	}
	return e.tracer, true
}

// Len returns the number of tracked traces.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.entries)
}

// evictLocked enforces the capacity: oldest sealed non-failed first,
// then oldest sealed failed. Live entries are never evicted, so the
// ring can transiently exceed capacity by the number of in-flight jobs
// (itself bounded by the service's queue and worker limits).
func (f *FlightRecorder) evictLocked() {
	for len(f.entries) > f.cap {
		victim := ""
		for _, k := range f.order {
			if e := f.entries[k]; e != nil && e.sealed && !e.failed {
				victim = k
				break
			}
		}
		if victim == "" {
			for _, k := range f.order {
				if e := f.entries[k]; e != nil && e.sealed {
					victim = k
					break
				}
			}
		}
		if victim == "" {
			return
		}
		f.removeLocked(victim)
	}
}

// removeLocked deletes key and fires the eviction hook.
func (f *FlightRecorder) removeLocked(key string) {
	if _, ok := f.entries[key]; !ok {
		return
	}
	delete(f.entries, key)
	for i, k := range f.order {
		if k == key {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	if f.onEvict != nil {
		f.onEvict(key)
	}
}
