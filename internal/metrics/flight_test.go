package metrics

import "testing"

func newFlightTracer() *SpanTracer {
	return NewSpanTracer(NewTraceID(), "job", SpanID{})
}

func TestFlightRecorderTrackSealGet(t *testing.T) {
	f := NewFlightRecorder(4)
	tr := newFlightTracer()
	f.Track("j1", tr)
	if got, ok := f.Get("j1"); !ok || got != tr {
		t.Fatal("live entry not retrievable")
	}
	f.Seal("j1", false)
	if got, ok := f.Get("j1"); !ok || got != tr {
		t.Fatal("sealed retained entry not retrievable")
	}
	if _, ok := f.Get("missing"); ok {
		t.Fatal("unknown key reported present")
	}
	if f.Len() != 1 {
		t.Fatalf("len = %d, want 1", f.Len())
	}
}

func TestFlightRecorderPrefersEvictingHealthyHistory(t *testing.T) {
	f := NewFlightRecorder(3)
	var evicted []string
	f.OnEvict(func(key string) { evicted = append(evicted, key) })
	f.Track("ok1", newFlightTracer())
	f.Seal("ok1", false)
	f.Track("bad1", newFlightTracer())
	f.Seal("bad1", true)
	f.Track("ok2", newFlightTracer())
	f.Seal("ok2", false)
	// Over capacity: the oldest sealed healthy trace goes first, not the
	// older failed one.
	f.Track("ok3", newFlightTracer())
	f.Seal("ok3", false)
	if len(evicted) != 1 || evicted[0] != "ok1" {
		t.Fatalf("evicted %v, want [ok1] (oldest healthy)", evicted)
	}
	if _, ok := f.Get("bad1"); !ok {
		t.Fatal("failed trace evicted while healthy history remained")
	}
	// With only failed sealed entries left, the oldest failed one goes.
	f.Track("bad2", newFlightTracer())
	f.Seal("bad2", true)
	f.Track("bad3", newFlightTracer())
	f.Seal("bad3", true)
	f.Track("bad4", newFlightTracer())
	if _, ok := f.Get("bad1"); ok {
		t.Fatal("oldest failed trace survived once healthy history ran out")
	}
}

func TestFlightRecorderNeverEvictsLiveEntries(t *testing.T) {
	f := NewFlightRecorder(2)
	f.Track("live1", newFlightTracer())
	f.Track("live2", newFlightTracer())
	f.Track("live3", newFlightTracer())
	// All three are live: the ring transiently exceeds capacity rather
	// than dropping an in-flight trace.
	if f.Len() != 3 {
		t.Fatalf("len = %d, want 3 (live entries are never evicted)", f.Len())
	}
	f.Seal("live1", false)
	f.Track("live4", newFlightTracer())
	if _, ok := f.Get("live1"); ok {
		t.Fatal("sealed entry not evicted once a victim existed")
	}
	for _, k := range []string{"live2", "live3", "live4"} {
		if _, ok := f.Get(k); !ok {
			t.Fatalf("live entry %s evicted", k)
		}
	}
}

func TestFlightRecorderResumeReregisters(t *testing.T) {
	f := NewFlightRecorder(4)
	first := newFlightTracer()
	f.Track("j1", first)
	f.Seal("j1", true)
	// A resumed job re-tracks under the same ID with a fresh tracer; the
	// entry must be live (unsealed) again.
	second := newFlightTracer()
	f.Track("j1", second)
	if got, _ := f.Get("j1"); got != second {
		t.Fatal("resume did not replace the tracer")
	}
	// Being live again, it must not be evictable.
	f.Track("j2", newFlightTracer())
	f.Track("j3", newFlightTracer())
	f.Track("j4", newFlightTracer())
	f.Track("j5", newFlightTracer())
	if _, ok := f.Get("j1"); !ok {
		t.Fatal("re-tracked (live) entry was evicted")
	}
}

func TestFlightRecorderNilSafety(t *testing.T) {
	var f *FlightRecorder
	f.OnEvict(func(string) {})
	f.Track("j", newFlightTracer())
	f.Seal("j", false)
	if _, ok := f.Get("j"); ok || f.Len() != 0 {
		t.Fatal("nil recorder not a no-op")
	}
}
