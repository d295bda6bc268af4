package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/faultinject"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/report"
)

// setEngineHook installs a test-only engine wrapper and restores the
// previous one on cleanup. Tests using it must not run in parallel.
func setEngineHook(t *testing.T, hook func(arch.Engine) arch.Engine) {
	t.Helper()
	prev := engineHook
	engineHook = hook
	t.Cleanup(func() { engineHook = prev })
}

// cancelingEngine cancels the search context once its first chromosome
// scan completes, so the orchestrator's between-chromosome ctx check is
// what aborts the run.
type cancelingEngine struct {
	arch.Engine
	cancel context.CancelFunc
}

func (e *cancelingEngine) ScanChrom(ctx context.Context, c *genome.Chromosome, emit func(automata.Report)) error {
	err := e.Engine.ScanChrom(ctx, c, emit)
	e.cancel()
	return err
}

func TestSearchContextCancelBetweenChromosomes(t *testing.T) {
	g, guides, _ := plantedFixture(t, 301, 3, 40000, genome.PlantPlan{1: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	setEngineHook(t, func(e arch.Engine) arch.Engine {
		return &cancelingEngine{Engine: e, cancel: cancel}
	})

	res, err := SearchContext(ctx, g, guides, Params{MaxMismatches: 1})
	if err == nil {
		t.Fatal("want cancellation error, got nil")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if !strings.Contains(err.Error(), "core: search canceled after 1/2 chromosomes") {
		t.Fatalf("error does not report partial progress: %v", err)
	}
	if res == nil {
		t.Fatal("partial Result must be non-nil on cancellation")
	}
	first := g.Chroms[0].Name
	for _, s := range res.Sites {
		if s.Chrom != first {
			t.Fatalf("partial result contains site on unscanned chromosome %s", s.Chrom)
		}
	}
	if res.Stats.Engine == "" || res.Stats.BytesScanned != len(g.Chroms[0].Seq) {
		t.Fatalf("partial Stats not populated for the completed chromosome: %+v", res.Stats)
	}
}

func TestSearchContextDeadlineBeforeStart(t *testing.T) {
	g, guides, _ := plantedFixture(t, 302, 2, 20000, genome.PlantPlan{})
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	res, err := SearchContext(ctx, g, guides, Params{MaxMismatches: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want wrapped context.DeadlineExceeded, got %v", err)
	}
	if res == nil || len(res.Sites) != 0 || res.Stats.BytesScanned != 0 {
		t.Fatalf("want empty partial result, got %+v", res)
	}
}

func TestSearchContextEngineErrorPartialResult(t *testing.T) {
	g, guides, _ := plantedFixture(t, 303, 3, 40000, genome.PlantPlan{1: 2})
	var fe *faultinject.Engine
	setEngineHook(t, func(e arch.Engine) arch.Engine {
		fe = &faultinject.Engine{Inner: e, FailOn: 2}
		return fe
	})

	res, err := SearchContext(context.Background(), g, guides, Params{MaxMismatches: 1})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("error does not wrap the injected fault: %v", err)
	}
	if want := "core: chromosome " + g.Chroms[1].Name; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the failing chromosome (%s)", err, want)
	}
	if res == nil {
		t.Fatal("partial Result must be non-nil on engine error")
	}
	if res.Stats.BytesScanned != len(g.Chroms[0].Seq) {
		t.Fatalf("partial Stats.BytesScanned = %d, want %d (first chromosome only)",
			res.Stats.BytesScanned, len(g.Chroms[0].Seq))
	}
	if fe.Calls() != 2 {
		t.Fatalf("engine scanned %d chromosomes, want abort on the 2nd", fe.Calls())
	}
}

func TestSearchContextEnginePanicRecovered(t *testing.T) {
	g, guides, _ := plantedFixture(t, 304, 3, 40000, genome.PlantPlan{1: 2})
	setEngineHook(t, func(e arch.Engine) arch.Engine {
		return &faultinject.Engine{Inner: e, FailOn: 2, Panic: true}
	})

	res, err := SearchContext(context.Background(), g, guides, Params{MaxMismatches: 1})
	if err == nil {
		t.Fatal("want panic-derived error, got nil")
	}
	if !strings.Contains(err.Error(), "panicked scanning "+g.Chroms[1].Name) {
		t.Fatalf("error does not report the recovered panic: %v", err)
	}
	if res == nil {
		t.Fatal("partial Result must be non-nil after a recovered panic")
	}
	first := g.Chroms[0].Name
	for _, s := range res.Sites {
		if s.Chrom != first {
			t.Fatalf("partial result contains site on failed chromosome %s", s.Chrom)
		}
	}
}

// TestSearchContextCleanRunMatchesSearch pins that the ctx plumbing is
// behavior-preserving when the context never fires.
func TestSearchContextCleanRunMatchesSearch(t *testing.T) {
	g, guides, _ := plantedFixture(t, 305, 3, 40000, genome.PlantPlan{1: 2, 2: 1})
	want, err := Search(g, guides, Params{MaxMismatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SearchContext(context.Background(), g, guides, Params{MaxMismatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sites) != len(want.Sites) {
		t.Fatalf("ctx run found %d sites, plain run %d", len(got.Sites), len(want.Sites))
	}
	for i := range got.Sites {
		if got.Sites[i] != want.Sites[i] {
			t.Fatalf("site %d differs: %+v vs %+v", i, got.Sites[i], want.Sites[i])
		}
	}
}

// midChromCanceler walks its target chromosome through an arch.ChunkScan
// pool on the ctx the orchestrator hands to ScanChrom, cancels
// the search once cancelAt chunks have run, and only then lets the real
// engine scan. The pool can stop before the chromosome's last chunk only
// if the search's own ctx reached the engine.
type midChromCanceler struct {
	arch.Engine
	target   string
	cancelAt int
	cancel   context.CancelFunc
	ran      int // chunks of target run; the pool has one worker
}

func (e *midChromCanceler) ScanChrom(ctx context.Context, c *genome.Chromosome, emit func(automata.Report)) error {
	if c.Name == e.target {
		_, err := arch.ChunkScan(ctx, "mid-chrom "+c.Name, 1, len(c.Seq), arch.DefaultChunk, nil,
			func(lo, hi int, _ *[]automata.Report) error {
				e.ran++
				if e.ran == e.cancelAt {
					e.cancel()
				}
				return nil
			})
		if err != nil {
			return err
		}
	}
	return arch.ScanChrom(ctx, e.Engine, c, emit)
}

// TestCancelInsideChromosome cancels part-way through the second of two
// chromosomes, each five chunks long, on all three ctx-taking drivers.
// The scan must stop inside that chromosome with a wrapped
// context.Canceled naming it, before its last chunk, and report only
// the first chromosome's bytes and sites. The drivers' own
// between-chromosome checks cannot produce this error, so it fails if
// the per-chromosome step scans on a ctx other than the caller's.
func TestCancelInsideChromosome(t *testing.T) {
	const chunks = 5
	g, guides, _ := plantedFixture(t, 306, 3, (chunks-1)*arch.DefaultChunk+1000, genome.PlantPlan{0: 2, 1: 2})
	first, target := g.Chroms[0].Name, g.Chroms[1].Name
	blob := bytes.Join(fastaRecords(t, g), nil)
	p := Params{MaxMismatches: 2, Workers: 1}

	drivers := []struct {
		name string
		run  func(ctx context.Context) (*Stats, []report.Site, error)
	}{
		{"SearchContext", func(ctx context.Context) (*Stats, []report.Site, error) {
			res, err := SearchContext(ctx, g, guides, p)
			if res == nil {
				return nil, nil, err
			}
			return &res.Stats, res.Sites, err
		}},
		{"SearchStreamContext", func(ctx context.Context) (*Stats, []report.Site, error) {
			var sites []report.Site
			st, err := SearchStreamContext(ctx, bytes.NewReader(blob), guides, p, nil, func(s report.Site) error {
				sites = append(sites, s)
				return nil
			})
			return st, sites, err
		}},
		{"SearchGenomeStreamContext", func(ctx context.Context) (*Stats, []report.Site, error) {
			var sites []report.Site
			st, err := SearchGenomeStreamContext(ctx, g, guides, p, nil, func(s report.Site) error {
				sites = append(sites, s)
				return nil
			})
			return st, sites, err
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var eng *midChromCanceler
			setEngineHook(t, func(e arch.Engine) arch.Engine {
				eng = &midChromCanceler{Engine: e, target: target, cancelAt: 2, cancel: cancel}
				return eng
			})
			stats, sites, err := d.run(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error does not wrap context.Canceled: %v", err)
			}
			if !strings.Contains(err.Error(), "core: chromosome "+target) {
				t.Fatalf("cancellation did not surface inside chromosome %s: %v", target, err)
			}
			if eng.ran >= chunks {
				t.Fatalf("%s ran all %d chunks before stopping", target, eng.ran)
			}
			if stats == nil || stats.BytesScanned != len(g.Chroms[0].Seq) {
				t.Fatalf("partial Stats should cover %s only: %+v", first, stats)
			}
			if len(sites) == 0 {
				t.Fatalf("no sites from the completed chromosome %s", first)
			}
			for _, s := range sites {
				if s.Chrom != first {
					t.Fatalf("canceled chromosome %s leaked site %+v", target, s)
				}
			}
		})
	}
}

// TestScanChromContextPreCanceledEveryEngine builds every kind in
// AllEngines and scans a chromosome several chunks long with a context
// that is already done. Every engine must refuse the work with an error
// wrapping context.Canceled and emit nothing: the one scan contract
// holds for every platform, the single-thread CasOT baseline included.
func TestScanChromContextPreCanceledEveryEngine(t *testing.T) {
	g, guides, _ := plantedFixture(t, 311, 3, 3*arch.DefaultChunk, genome.PlantPlan{0: 2, 1: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range AllEngines {
		p := Params{MaxMismatches: 2, Engine: kind}
		specs := BuildSpecs(guides, dna.MustParsePattern("NGG"), p.MaxMismatches, false)
		e, err := NewEngine(kind, specs, p)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		emitted := 0
		err = arch.ScanChrom(ctx, e, &g.Chroms[0], func(automata.Report) { emitted++ })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want wrapped context.Canceled, got %v", kind, err)
		}
		if emitted != 0 {
			t.Errorf("%s: %d events emitted after a pre-canceled ctx", kind, emitted)
		}
	}
}
