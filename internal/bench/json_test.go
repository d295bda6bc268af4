package bench

import (
	"bytes"
	"testing"

	"github.com/cap-repro/crisprscan/internal/core"
)

// unitScale is a miniature profile so the matrix runs in well under a
// second inside go test.
var unitScale = Scale{
	Name: "unit", GenomeLen: 20_000,
	GenomeSet: []int{10_000, 20_000},
	GuideSet:  []int{2, 4}, Guides: 2,
	KSet: []int{2, 3}, K: 2,
}

func TestMatrixCoversAllEngines(t *testing.T) {
	cases := Matrix(unitScale)
	seen := map[core.EngineKind]bool{}
	for _, mc := range cases {
		seen[mc.Engine] = true
	}
	for _, e := range core.AllEngines {
		if !seen[e] {
			t.Errorf("matrix misses engine %s", e)
		}
	}
	// The sweep dimensions must each contribute distinct cells.
	keys := map[string]bool{}
	for _, mc := range cases {
		e := BenchEntry{Engine: mc.Label(), GenomeLen: mc.GenomeLen, Guides: mc.Guides, K: mc.K}
		k := e.Key()
		if keys[k] {
			t.Errorf("duplicate matrix cell %s", k)
		}
		keys[k] = true
	}
	// One non-default value per sweep set, plus the prebuilt seed-index
	// cell.
	want := len(core.AllEngines) + 1 + 1 + 1 + 1
	if len(cases) != want {
		t.Fatalf("matrix has %d cells, want %d", len(cases), want)
	}
	if !keys["seed-index-prebuilt/n20000/g2/k2"] {
		t.Error("matrix misses the prebuilt seed-index cell")
	}
}

func TestRunMatrixReportSchema(t *testing.T) {
	rep, err := RunMatrix(unitScale, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != BenchSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, BenchSchema)
	}
	if rep.Scale != "unit" || rep.GoVersion == "" || rep.GeneratedAt == "" {
		t.Fatalf("incomplete report header: %+v", rep)
	}
	modeled := map[string]bool{
		string(core.EngineAP): true, string(core.EngineFPGA): true,
		string(core.EngineInfant): true, string(core.EngineCasOffinderGPU): true,
	}
	for _, e := range rep.Entries {
		if e.Seconds <= 0 {
			t.Errorf("%s: non-positive seconds %v", e.Key(), e.Seconds)
		}
		if e.MBPerSec <= 0 {
			t.Errorf("%s: non-positive throughput %v", e.Key(), e.MBPerSec)
		}
		if got := e.Counters.BytesScanned; got != int64(e.GenomeLen) {
			t.Errorf("%s: bytes_scanned = %d, want %d", e.Key(), got, e.GenomeLen)
		}
		// Every measured engine must carry a per-phase breakdown whose
		// dominant component is the scan itself.
		if e.Phases.Prefilter <= 0 {
			t.Errorf("%s: zero prefilter phase", e.Key())
		}
		if modeled[e.Engine] && len(e.ModeledSec) == 0 {
			t.Errorf("%s: modeled engine without modeled_sec steps", e.Key())
		}
		if !modeled[e.Engine] && len(e.ModeledSec) != 0 {
			t.Errorf("%s: measured engine carries modeled_sec %v", e.Key(), e.ModeledSec)
		}
		if e.AllocBytes < 0 || e.AllocObjects < 0 {
			t.Errorf("%s: negative allocation delta", e.Key())
		}
		// Since schema /2, chunked engines export their latency
		// distribution with explicit non-zero buckets that sum to Count.
		if e.ChunkLatency.Count > 0 {
			var sum int64
			for _, b := range e.ChunkLatency.Buckets {
				if b.Count <= 0 {
					t.Errorf("%s: zero-count bucket exported: %+v", e.Key(), b)
				}
				sum += b.Count
			}
			if sum != e.ChunkLatency.Count {
				t.Errorf("%s: bucket sum %d != count %d", e.Key(), sum, e.ChunkLatency.Count)
			}
		}
	}

	// Round-trip through the JSON writer/reader.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBenchReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != len(rep.Entries) {
		t.Fatalf("round-trip lost entries: %d != %d", len(back.Entries), len(rep.Entries))
	}
	for i := range back.Entries {
		if back.Entries[i].Key() != rep.Entries[i].Key() || back.Entries[i].Seconds != rep.Entries[i].Seconds {
			t.Fatalf("round-trip entry %d mismatch", i)
		}
	}
}

func TestReadBenchReportRejectsForeignSchema(t *testing.T) {
	if _, err := ReadBenchReport(bytes.NewReader([]byte(`{"schema":"other/9"}`))); err == nil {
		t.Fatal("foreign schema accepted")
	}
}

func synthReport(times map[string]float64) *BenchReport {
	rep := &BenchReport{Schema: BenchSchema, Scale: "unit"}
	for key, sec := range times {
		// Key format engine/n.../g.../k... is irrelevant to Compare as
		// long as both sides agree, so synthesize from fixed dims.
		rep.Entries = append(rep.Entries, BenchEntry{
			Engine: key, GenomeLen: 1000, Guides: 2, K: 2, Seconds: sec,
		})
	}
	return rep
}

func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	base := synthReport(map[string]float64{"a": 0.100, "b": 0.200, "c": 0.050})
	cur := synthReport(map[string]float64{"a": 0.100, "b": 0.400, "c": 0.052})

	regs := Compare(base, cur, CompareOptions{})
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %+v", len(regs), regs)
	}
	r := regs[0]
	if r.OldSec != 0.200 || r.NewSec != 0.400 || r.Ratio != 2 {
		t.Fatalf("wrong regression: %+v", r)
	}

	// A tighter threshold also catches the small drift on c.
	regs = Compare(base, cur, CompareOptions{Threshold: 0.01})
	if len(regs) != 2 {
		t.Fatalf("threshold 1%%: got %d regressions, want 2: %+v", len(regs), regs)
	}
	// Sorted worst-first.
	if regs[0].Ratio < regs[1].Ratio {
		t.Fatalf("regressions not sorted worst-first: %+v", regs)
	}
}

func TestCompareNoiseFloorAndMissingCells(t *testing.T) {
	base := synthReport(map[string]float64{"tiny": 0.001, "gone": 0.100})
	cur := synthReport(map[string]float64{"tiny": 0.004, "new": 9.9})

	// tiny is below the default 5ms floor; gone/new don't join.
	if regs := Compare(base, cur, CompareOptions{}); len(regs) != 0 {
		t.Fatalf("expected no regressions, got %+v", regs)
	}
	// Disabling the floor flags the tiny cell.
	if regs := Compare(base, cur, CompareOptions{MinSeconds: -1}); len(regs) != 1 {
		t.Fatalf("floor disabled: got %+v", regs)
	}
}
