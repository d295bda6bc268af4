package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/fasta"
	"github.com/cap-repro/crisprscan/internal/faultinject"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/hscan"
	"github.com/cap-repro/crisprscan/internal/report"
)

// fastaRecords serializes each chromosome to its own FASTA blob so
// tests can compute exact byte offsets for fault placement.
func fastaRecords(t *testing.T, g *genome.Genome) [][]byte {
	t.Helper()
	var out [][]byte
	for _, rec := range g.ToFasta() {
		var buf bytes.Buffer
		w := fasta.NewWriter(&buf, 0)
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]byte(nil), buf.Bytes()...))
	}
	return out
}

func TestSearchStreamMidStreamReadError(t *testing.T) {
	g, guides, _ := plantedFixture(t, 601, 3, 40000, PlantPlanLite())
	recs := fastaRecords(t, g)
	blob := bytes.Join(recs, nil)
	// Fail mid-way through the second chromosome's record.
	failAt := int64(len(recs[0]) + len(recs[1])/2)
	fr := faultinject.NewReader(bytes.NewReader(blob), faultinject.ReaderConfig{FailAfter: failAt})

	first := g.Chroms[0].Name
	var yielded []report.Site
	stats, err := SearchStream(fr, guides, Params{MaxMismatches: 2}, func(s report.Site) error {
		yielded = append(yielded, s)
		return nil
	})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("error does not wrap the injected read fault: %v", err)
	}
	if !strings.Contains(err.Error(), "core: reading genome stream:") {
		t.Fatalf("error lacks the stream-read prefix: %v", err)
	}
	if stats == nil {
		t.Fatal("partial Stats must be non-nil on a mid-stream read error")
	}
	if stats.BytesScanned != len(g.Chroms[0].Seq) {
		t.Fatalf("partial BytesScanned = %d, want %d (first chromosome only)",
			stats.BytesScanned, len(g.Chroms[0].Seq))
	}
	for _, s := range yielded {
		if s.Chrom != first {
			t.Fatalf("site yielded for chromosome %s past the fault point", s.Chrom)
		}
	}
}

// TestSearchStreamSurvivesShortReadsAndStalls pins that ragged reads
// and transient (0, nil) stalls do not change the emitted site set.
func TestSearchStreamSurvivesShortReadsAndStalls(t *testing.T) {
	g, guides, _ := plantedFixture(t, 602, 3, 40000, PlantPlanLite())
	blob := bytes.Join(fastaRecords(t, g), nil)

	collect := func(r *faultinject.Reader) []report.Site {
		var sites []report.Site
		if _, err := SearchStream(r, guides, Params{MaxMismatches: 2}, func(s report.Site) error {
			sites = append(sites, s)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return sites
	}
	clean := collect(faultinject.NewReader(bytes.NewReader(blob), faultinject.ReaderConfig{}))
	faulty := collect(faultinject.NewReader(bytes.NewReader(blob), faultinject.ReaderConfig{
		Seed: 7, MaxRead: 13, StallEvery: 5,
	}))
	if len(faulty) != len(clean) {
		t.Fatalf("faulty stream yielded %d sites, clean %d", len(faulty), len(clean))
	}
	for i := range faulty {
		if faulty[i] != clean[i] {
			t.Fatalf("site %d differs under short reads: %+v vs %+v", i, faulty[i], clean[i])
		}
	}
}

func TestSearchStreamYieldErrorWrapped(t *testing.T) {
	g, guides, _ := plantedFixture(t, 603, 3, 40000, PlantPlanLite())
	blob := bytes.Join(fastaRecords(t, g), nil)
	sentinel := errors.New("sink full")
	stats, err := SearchStream(bytes.NewReader(blob), guides, Params{MaxMismatches: 2}, func(report.Site) error {
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("yield error not wrapped: %v", err)
	}
	if !strings.Contains(err.Error(), "core: yield on ") {
		t.Fatalf("error lacks the yield prefix: %v", err)
	}
	if stats == nil {
		t.Fatal("partial Stats must be non-nil on a yield error")
	}
}

func TestSearchStreamControlHooks(t *testing.T) {
	g, guides, _ := plantedFixture(t, 604, 3, 40000, PlantPlanLite())
	blob := bytes.Join(fastaRecords(t, g), nil)
	first, second := g.Chroms[0].Name, g.Chroms[1].Name

	var done []string
	var yielded []report.Site
	ctrl := &StreamControl{
		SkipChrom: func(name string) bool { return name == first },
		ChromDone: func(name string, sites int, scanned int64) error {
			done = append(done, name)
			if scanned != int64(len(g.Chroms[1].Seq)) {
				t.Errorf("ChromDone scanned = %d, want %d (skipped chromosome must not count)",
					scanned, len(g.Chroms[1].Seq))
			}
			return nil
		},
	}
	stats, err := SearchStreamContext(context.Background(), bytes.NewReader(blob), guides,
		Params{MaxMismatches: 2}, ctrl, func(s report.Site) error {
			yielded = append(yielded, s)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || done[0] != second {
		t.Fatalf("ChromDone ran for %v, want exactly [%s]", done, second)
	}
	for _, s := range yielded {
		if s.Chrom == first {
			t.Fatalf("skipped chromosome %s still yielded a site", first)
		}
	}
	if stats.BytesScanned != len(g.Chroms[1].Seq) {
		t.Fatalf("stats.BytesScanned = %d counts the skipped chromosome", stats.BytesScanned)
	}
}

func TestSearchStreamChromDoneErrorAborts(t *testing.T) {
	g, guides, _ := plantedFixture(t, 605, 3, 40000, PlantPlanLite())
	blob := bytes.Join(fastaRecords(t, g), nil)
	sentinel := errors.New("journal disk gone")
	calls := 0
	ctrl := &StreamControl{
		ChromDone: func(string, int, int64) error { calls++; return sentinel },
	}
	stats, err := SearchStreamContext(context.Background(), bytes.NewReader(blob), guides,
		Params{MaxMismatches: 2}, ctrl, func(report.Site) error { return nil })
	if !errors.Is(err, sentinel) {
		t.Fatalf("ChromDone error not wrapped: %v", err)
	}
	if !strings.Contains(err.Error(), "core: completing "+g.Chroms[0].Name) {
		t.Fatalf("error does not name the chromosome being completed: %v", err)
	}
	if calls != 1 {
		t.Fatalf("stream continued after ChromDone error (%d calls)", calls)
	}
	if stats == nil {
		t.Fatal("partial Stats must be non-nil on a ChromDone error")
	}
}

func TestSearchStreamEnginePanicMidStream(t *testing.T) {
	g, guides, _ := plantedFixture(t, 606, 3, 40000, PlantPlanLite())
	blob := bytes.Join(fastaRecords(t, g), nil)
	setEngineHook(t, func(e arch.Engine) arch.Engine {
		return &faultinject.Engine{Inner: e, FailOn: 2, Panic: true}
	})

	first := g.Chroms[0].Name
	var yielded []report.Site
	stats, err := SearchStream(bytes.NewReader(blob), guides, Params{MaxMismatches: 2}, func(s report.Site) error {
		yielded = append(yielded, s)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked scanning "+g.Chroms[1].Name) {
		t.Fatalf("want recovered panic naming %s, got %v", g.Chroms[1].Name, err)
	}
	for _, s := range yielded {
		if s.Chrom != first {
			t.Fatalf("aborted chromosome %s leaked a site to yield", s.Chrom)
		}
	}
	if stats == nil || stats.BytesScanned != len(g.Chroms[0].Seq) {
		t.Fatalf("partial Stats wrong after mid-stream panic: %+v", stats)
	}
}

func TestSearchStreamCancelMidStream(t *testing.T) {
	g, guides, _ := plantedFixture(t, 607, 3, 40000, PlantPlanLite())
	blob := bytes.Join(fastaRecords(t, g), nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctrl := &StreamControl{
		ChromDone: func(string, int, int64) error { cancel(); return nil },
	}
	stats, err := SearchStreamContext(ctx, bytes.NewReader(blob), guides,
		Params{MaxMismatches: 2}, ctrl, func(report.Site) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if !strings.Contains(err.Error(), "core: stream search canceled after 1 chromosomes") {
		t.Fatalf("error does not report partial progress: %v", err)
	}
	if stats == nil || stats.BytesScanned != len(g.Chroms[0].Seq) {
		t.Fatalf("partial Stats wrong after cancellation: %+v", stats)
	}
}

// TestOverBudgetEngineFails swaps in an engine that reports windows
// past the search's mismatch budget (the NFA compiled at k = 10 for a
// k = 2 search). Re-verification must turn those windows into an error
// from every search entry point rather than into sites.
func TestOverBudgetEngineFails(t *testing.T) {
	g := genome.Synthesize(genome.SynthConfig{Seed: 7, ChromLen: 200_000})
	pam := dna.MustParsePattern("NGG")
	var guides []dna.Pattern
	for _, s := range genome.SampleGuides(g, 4, 20, pam, 8) {
		guides = append(guides, dna.PatternFromSeq(s))
	}
	setEngineHook(t, func(arch.Engine) arch.Engine {
		e, err := hscan.New(BuildSpecs(guides, pam, 10, false), hscan.ModeNFA)
		if err != nil {
			t.Fatal(err)
		}
		return e
	})
	p := Params{MaxMismatches: 2}
	blob := bytes.Join(fastaRecords(t, g), nil)
	yield := func(report.Site) error { return nil }
	runs := map[string]func() error{
		"SearchContext": func() error {
			_, err := SearchContext(context.Background(), g, guides, p)
			return err
		},
		"SearchStreamContext": func() error {
			_, err := SearchStreamContext(context.Background(), bytes.NewReader(blob), guides, p, nil, yield)
			return err
		},
		"SearchGenomeStreamContext": func() error {
			_, err := SearchGenomeStreamContext(context.Background(), g, guides, p, nil, yield)
			return err
		},
	}
	for name, run := range runs {
		err := run()
		if err == nil || !strings.Contains(err.Error(), "over budget 2") {
			t.Errorf("%s: want an over-budget error, got %v", name, err)
		}
	}
}
