package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func testBench(t *testing.T, seed int64) *bench {
	t.Helper()
	return &bench{seed: seed, work: t.TempDir(), workload: "test", setups: 1, out: io.Discard}
}

// readTree returns every file under dir keyed by its relative path.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

func TestSameSeedSameInputs(t *testing.T) {
	gens := map[string]func(b *bench, dir string) error{
		"cli-genome":  func(b *bench, dir string) error { _, err := b.genCLIGenome(dir); return err },
		"cli-library": func(b *bench, dir string) error { _, err := b.genCLILibrary(dir); return err },
		"serve-jobs":  func(b *bench, dir string) error { _, err := b.genServeJobs(dir); return err },
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			var trees []map[string][]byte
			for _, seed := range []int64{7, 7, 8} {
				dir := t.TempDir()
				if err := gen(testBench(t, seed), dir); err != nil {
					t.Fatal(err)
				}
				trees = append(trees, readTree(t, dir))
			}
			if len(trees[0]) == 0 {
				t.Fatal("generator wrote no files")
			}
			for f, data := range trees[0] {
				if !bytes.Equal(data, trees[1][f]) {
					t.Errorf("seed 7 wrote different bytes to %s on a second run", f)
				}
			}
			if bytes.Equal(trees[0]["genome.fa"], trees[2]["genome.fa"]) {
				t.Error("seeds 7 and 8 wrote the same genome")
			}
		})
	}
}

// plantedTSV renders a TSV whose rows are exactly the planted sites.
func plantedTSV(sites []plantedSite) []byte {
	var b bytes.Buffer
	b.WriteString(tsvHeader + "\n")
	for _, s := range sites {
		b.WriteString(s.key() + "\tACGTACGTACGTACGTACGTAGG\t....................\n")
	}
	return b.Bytes()
}

func TestDroppedRowIsFailedOp(t *testing.T) {
	planted := []plantedSite{
		{guide: 0, chrom: "chr1", pos: 100, strand: '+', mm: 0},
		{guide: 1, chrom: "chr2", pos: 200, strand: '-', mm: 3},
	}
	full := plantedTSV(planted)
	dropped := plantedTSV(planted[:1])

	res, chk := newResult(), newChecker()
	res.record(chk.check(0, dropped, planted)) // first output lacks a planted site
	res.record(chk.check(1, full, planted))    // reference output for op 1
	res.record(chk.check(1, full, planted))    // identical repeat
	res.record(chk.check(1, dropped, planted)) // repeat that lost a row
	if res.attempted != 4 || res.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 4 and 2 (errors %q)", res.attempted, res.failed, res.errs)
	}
	if !strings.Contains(res.errs[0], "missing") || !strings.Contains(res.errs[1], "differs") {
		t.Errorf("unexpected failure reasons %q", res.errs)
	}
}

func Test429IsFailedOp(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"tenant quota exceeded"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	b := testBench(t, 1)
	in := &serveInputs{jobs: []serveJob{{spec: []byte(`{"guides":[{"spacer":"ACGT"}],"k":3}`)}}}
	res := newResult()
	outs, _ := newJobClient(srv.URL).round(in.jobs, false)
	if lat := b.recordRound(res, newChecker(), in, outs); len(lat) != 0 {
		t.Fatalf("a throttled job produced a latency sample")
	}
	if res.attempted != 1 || res.failed != 1 || !strings.Contains(res.errs[0], "429") {
		t.Fatalf("attempted %d failed %d errors %q, want one failed op naming HTTP 429", res.attempted, res.failed, res.errs)
	}
}

func TestJobLayersSkipChunkSpans(t *testing.T) {
	ms := int64(time.Millisecond)
	tree := &spanTree{StartWall: "2026-01-02T03:04:05Z", Root: &spanNode{Name: "job", Children: []*spanNode{
		{Name: "admission", DurNs: 1 * ms},
		{Name: "queue-wait", StartNs: 1 * ms, DurNs: 10 * ms},
		{Name: "attempt 1", StartNs: 11 * ms, DurNs: 30 * ms, Children: []*spanNode{
			{Name: "cache-load", DurNs: 1 * ms},
			{Name: "compile", DurNs: 1 * ms},
			{Name: "scan chr1", DurNs: 10 * ms},
			{Name: "hyperscan chr1 chunk 0", DurNs: 9 * ms},
			{Name: "scan chr2", DurNs: 10 * ms},
		}},
	}}}
	start, _ := time.Parse(time.RFC3339, tree.StartWall)
	o := jobOutcome{tree: tree, timing: jobTiming{id: "j", doneSeen: start.Add(43 * time.Millisecond)}}
	lt := newLayerTable()
	if err := jobLayers(o, lt); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"scanserve.queue_wait_s": 0.010, "scanserve.cache_load_s": 0.001, "core.compile_s": 0.001,
		"scanserve.scan_s": 0.020, "scanserve.commit_s": 0.008, "scanserve.notice_s": 0.002,
	}
	for name, v := range want {
		if got := lt.samples[name]; len(got) != 1 || got[0] < v-1e-9 || got[0] > v+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if lt.counts["scanserve.commits_per_job"] != 2 {
		t.Errorf("commits_per_job = %v, want 2", lt.counts["scanserve.commits_per_job"])
	}
}

func TestPassMediansSkipFailedPasses(t *testing.T) {
	res := newResult()
	passes := []pass{
		{wall: 1, cpu: 2, ops: 4},                   // 4 Mbp/s, 0.5 s/op
		{wall: 2, cpu: 4, ops: 4},                   // 2 Mbp/s
		{wall: 0.5, cpu: 1, ops: 4},                 // 8 Mbp/s
		{wall: 0.1, cpu: 0.1, ops: 1, failed: true}, // would be 10 Mbp/s
	}
	res.setE2E(testBench(t, 1), []float64{1}, []float64{0.2, 0.3}, passes, 1_000_000, 30)
	if got := res.metrics["throughput_mbp_s"]; got != 4 {
		t.Errorf("throughput_mbp_s = %v, want the median of complete passes, 4", got)
	}
	if got := res.metrics["cpu_s_per_op"]; got != 0.5 {
		t.Errorf("cpu_s_per_op = %v, want 0.5", got)
	}
}

func TestRowsHashIgnoresOrder(t *testing.T) {
	a := []byte(tsvHeader + "\n0\tchr1\t5\t+\t0\tS\tA\n1\tchr2\t9\t-\t1\tS\tA\n")
	b := []byte(tsvHeader + "\n1\tchr2\t9\t-\t1\tS\tA\n0\tchr1\t5\t+\t0\tS\tA\n")
	if rowsHash(a) != rowsHash(b) {
		t.Error("reordered rows hash differently")
	}
	if rowsHash(a) == rowsHash(a[:len(a)-10]) {
		t.Error("a cut row hashes like the full output")
	}
}

func TestSpanSelfTimes(t *testing.T) {
	l := &spanLog{spans: []span{
		{Layer: "hscan.scan_s", Parent: -1, DurNs: 100},
		{Layer: "report.resolve_s", Parent: 0, DurNs: 30},
		{Layer: "report.write_s", Parent: -1, DurNs: 5},
	}}
	got := l.selfTimes()
	if got["hscan.scan_s"] != 70e-9 || got["report.resolve_s"] != 30e-9 || got["report.write_s"] != 5e-9 {
		t.Fatalf("self times %v", got)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	var fileE2E, fileLayer []metricDef
	for _, m := range bf.EndToEnd {
		fileE2E = append(fileE2E, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		fileLayer = append(fileLayer, metricDef{m.Name, m.Unit})
	}
	for _, c := range []struct {
		kind       string
		file, defs []metricDef
	}{{"end_to_end", fileE2E, endToEnd}, {"per_layer", fileLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", c.kind, len(c.file), len(c.defs))
		}
		for i := range c.file {
			if c.file[i] != c.defs[i] {
				t.Errorf("%s %d: BENCHMARK.json %v, harness %v", c.kind, i, c.file[i], c.defs[i])
			}
		}
		// The emitted result line carries exactly these names and units.
		var buf bytes.Buffer
		if err := newResult().emit(&buf, c.defs); err != nil {
			t.Fatal(err)
		}
		var out struct {
			Metrics map[string]struct {
				Unit string `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for name, m := range out.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, d := range c.file {
			want = append(want, d.name+" "+d.unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: emitted %v, BENCHMARK.json %v", c.kind, got, want)
		}
	}
}
