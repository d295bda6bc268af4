package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/core"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/fasta"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/metrics"
	"github.com/cap-repro/crisprscan/internal/report"
	"github.com/cap-repro/crisprscan/internal/seedindex"
)

// The traced mode replays one offtarget op in-process: it calls the
// public functions the CLI path calls, in the same order, and records a
// span around each call. Its output must equal the CLI's byte for byte,
// which proves the replay did the same work.

// span is one timed call. Layer names the per-layer metric its self
// time (duration minus its children's) is charged to.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Parent  int    `json:"parent"` // index into the span list, -1 for a top-level call
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// spanLog keeps the spans of one replay in memory. A nil *spanLog
// records nothing, which is how the untraced replay runs the same code.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) start(name, layer string, parent int) (int, func()) {
	if l == nil {
		return -1, func() {}
	}
	i := len(l.spans)
	t := time.Now()
	l.spans = append(l.spans, span{Name: name, Layer: layer, Parent: parent, StartNs: int64(t.Sub(l.t0))})
	return i, func() { l.spans[i].DurNs = int64(time.Since(t)) }
}

// child records an aggregated child span (the per-event emit calls of
// one scan, summed) ending now.
func (l *spanLog) child(name, layer string, parent int, durNs int64) {
	if l == nil {
		return
	}
	end := int64(time.Since(l.t0))
	l.spans = append(l.spans, span{Name: name, Layer: layer, Parent: parent, StartNs: end - durNs, DurNs: durNs})
}

// selfTimes sums each layer's self time in seconds.
func (l *spanLog) selfTimes() map[string]float64 {
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.DurNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.DurNs
		}
	}
	out := make(map[string]float64)
	for i, s := range l.spans {
		out[s.Layer] += float64(self[i]) / 1e9
	}
	return out
}

// replayOp is one CLI op as the replay needs it.
type replayOp struct {
	genome string // FASTA path, or "" with index
	index  string // .csix path, or ""
	guides string
	k      int
	out    string
}

// replayResult is what one replay measured.
type replayResult struct {
	wall    float64
	spans   *spanLog
	counts  map[string]float64
	hash    [32]byte
	rows    [32]byte // rowsHash of the output
	allocMB float64
	gcs     float64
}

// replay runs op in-process. With traced false no spans are recorded.
func replay(op replayOp, traced bool) (*replayResult, error) {
	var log *spanLog
	if traced {
		log = &spanLog{t0: time.Now()}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	res, err := replayCalls(op, log)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	res.wall = wall
	res.spans = log
	res.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	res.gcs = float64(ms1.NumGC - ms0.NumGC)
	data, err := os.ReadFile(op.out)
	if err != nil {
		return nil, err
	}
	res.hash, res.rows = sha256.Sum256(data), rowsHash(data)
	res.counts["report.out_bytes"] = float64(len(data))
	return res, nil
}

// replayCalls mirrors cmd/offtarget's batch path: guides, genome load
// (FASTA parse and pack, or index load and reconstruction), compile,
// per-chromosome ScanChrom with events resolved into a Collector, sort,
// and the TSV write.
func replayCalls(op replayOp, log *spanLog) (*replayResult, error) {
	guides, err := readGuides(op.guides)
	if err != nil {
		return nil, err
	}
	var g *genome.Genome
	var ix *seedindex.Index
	kind := core.EngineHyperscan
	scanLayer := "hscan.scan_s"
	if op.index != "" {
		kind, scanLayer = core.EngineSeedIndex, "seedindex.query_s"
		_, end := log.start("seedindex.Load", "seedindex.load_s", -1)
		ix, err = seedindex.Load(op.index)
		end()
		if err != nil {
			return nil, err
		}
		_, end = log.start("Index.Genome", "seedindex.genome_s", -1)
		g = ix.Genome()
		end()
	} else {
		_, end := log.start("fasta.ReadFile", "fasta.parse_s", -1)
		recs, err := fasta.ReadFile(op.genome)
		end()
		if err != nil {
			return nil, err
		}
		_, end = log.start("genome.FromFasta", "genome.pack_s", -1)
		g, err = genome.FromFasta(recs)
		end()
		if err != nil {
			return nil, err
		}
	}

	rec := metrics.NewRecorder()
	_, end := log.start("compile", "core.compile_s", -1)
	engine, col, err := compile(guides, op.k, kind, ix, rec)
	end()
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	for ci := range g.Chroms {
		c := &g.Chroms[ci]
		var addErr error
		var emitNs int64
		si, end := log.start("ScanChrom "+c.Name, scanLayer, -1)
		err := arch.ScanChrom(ctx, engine, c, func(ev automata.Report) {
			t := time.Now()
			if e := col.Add(c, ev); e != nil && addErr == nil {
				addErr = e
			}
			emitNs += int64(time.Since(t))
		})
		end()
		log.child("Collector.Add "+c.Name, "report.resolve_s", si, emitNs)
		if err == nil {
			err = addErr
		}
		if err != nil {
			return nil, fmt.Errorf("replay: chromosome %s: %w", c.Name, err)
		}
		rec.Add(metrics.CounterBytesScanned, int64(len(c.Seq)))
	}

	_, end = log.start("Collector.Sites", "report.sort_s", -1)
	sites := col.Sites()
	end()

	_, end = log.start("WriteTSV", "report.write_s", -1)
	err = writeTSV(op.out, sites)
	end()
	if err != nil {
		return nil, err
	}

	c := rec.Snapshot().Counters
	counts := map[string]float64{
		"bytes_scanned": float64(c.BytesScanned),
		"candidates":    float64(c.CandidateWindows),
		"pam_hits":      float64(c.PrefilterHits),
		"verifications": float64(c.Verifications),
		"report.sites":  float64(len(sites)),
	}
	return &replayResult{counts: counts}, nil
}

// compile mirrors core's prepare step for the NGG, both-strand, single
// worker configuration the benchmark runs.
func compile(guides []string, k int, kind core.EngineKind, ix *seedindex.Index, rec *metrics.Recorder) (arch.Engine, *report.Collector, error) {
	pats := make([]dna.Pattern, len(guides))
	for i, s := range guides {
		p, err := dna.ParsePattern(s)
		if err != nil {
			return nil, nil, err
		}
		pats[i] = p
	}
	pam, err := dna.ParsePattern("NGG")
	if err != nil {
		return nil, nil, err
	}
	specs := core.BuildSpecsOriented(pats, pam, k, false, false)
	engine, err := core.NewEngine(kind, specs, core.Params{
		MaxMismatches: k, PAM: "NGG", Engine: kind, Workers: 1, SeedIndex: ix, Metrics: rec,
	})
	if err != nil {
		return nil, nil, err
	}
	arch.SetMetrics(engine, rec)
	resolver, err := report.NewResolverOriented(pats, false, pam)
	if err != nil {
		return nil, nil, err
	}
	return engine, report.NewCollector(resolver), nil
}

// loadGenome replays a genome load from FASTA, as genomeindex build and
// the service's start-up do, and records its parse and pack times as
// layer samples timed outside the measured op.
func loadGenome(path string, lt *layerTable) (*genome.Genome, error) {
	t0 := time.Now()
	recs, err := fasta.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	g, err := genome.FromFasta(recs)
	if err != nil {
		return nil, err
	}
	lt.addAside("fasta.parse_s", t1.Sub(t0).Seconds())
	lt.addAside("genome.pack_s", time.Since(t1).Seconds())
	return g, nil
}

// buildIndexInProcess replays genomeindex build on the FASTA genome the
// index ops were built from, timing its load and seedindex.Build.
func buildIndexInProcess(dir string, lt *layerTable) error {
	g, err := loadGenome(filepath.Join(dir, "genome.fa"), lt)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := seedindex.Build(g, 0); err != nil {
		return err
	}
	lt.addAside("seedindex.build_s", time.Since(t0).Seconds())
	return nil
}

// addReplayCounts records one replay's counts and the ratios built from
// them. Index ops bypass hscan, so they report seed-index candidates
// instead of PAM hits.
func (t *layerTable) addReplayCounts(counts map[string]float64, index bool) {
	sites := counts["report.sites"]
	t.count("report.sites", sites)
	t.count("report.out_bytes", counts["report.out_bytes"])
	t.count("report.sites_per_verification", ratio(sites, counts["verifications"]))
	if index {
		t.count("seedindex.candidates", counts["candidates"])
		t.count("seedindex.sites_per_candidate", ratio(sites, counts["candidates"]))
		return
	}
	t.count("hscan.bytes_scanned", counts["bytes_scanned"])
	t.count("hscan.pam_hits", counts["pam_hits"])
	t.count("hscan.verifications", counts["verifications"])
	t.count("hscan.pam_hits_per_base", ratio(counts["pam_hits"], counts["bytes_scanned"]))
	t.count("hscan.verifications_per_hit", ratio(counts["verifications"], counts["pam_hits"]))
}

// writeSpans saves one replay's spans as JSON.
func writeSpans(path string, l *spanLog) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readGuides reads the "name spacer" lines the generator writes.
func readGuides(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("%s: bad guide line %q", path, line)
		}
		out = append(out, f[1])
	}
	return out, nil
}

func writeTSV(path string, sites []report.Site) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := report.WriteTSV(w, sites); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
