package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/report"
	"github.com/cap-repro/crisprscan/internal/seedindex"
)

// planesOnly copies g with each chromosome's Name and packed planes
// and no Seq, the shape seedindex.Index.Genome returns.
func planesOnly(g *genome.Genome) *genome.Genome {
	chroms := make([]genome.Chromosome, len(g.Chroms))
	for i, c := range g.Chroms {
		chroms[i] = genome.Chromosome{Name: c.Name, Packed: c.Packed}
	}
	return genome.New(chroms...)
}

// TestPlanesOnlyGenomeParity: every engine kind reports the same sites
// on a genome whose chromosomes carry only their planes as on the same
// genome with Seq, through SearchContext with and without a Region,
// SearchGenomeStreamContext and SearchBulge. An engine that read c.Seq
// directly would see empty chromosomes and report nothing. A seed index
// bound with a Region is refused by name, not blamed as stale.
func TestPlanesOnlyGenomeParity(t *testing.T) {
	g := genome.Synthesize(genome.SynthConfig{Seed: 411, ChromLen: 20000, NumChroms: 2, NRunRate: 40, NRunLen: 30})
	flat := planesOnly(g)
	raw := genome.SampleGuides(g, 3, 20, dna.MustParsePattern("NGG"), 412)
	guides := make([]dna.Pattern, len(raw))
	for i, r := range raw {
		guides[i] = dna.PatternFromSeq(r)
	}
	base := Params{MaxMismatches: 3, AltPAMs: []string{"NAG"}}
	full, err := Search(g, guides, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Sites) == 0 {
		t.Fatal("fixture has no sites")
	}
	s0 := full.Sites[0]
	region := fmt.Sprintf("%s:%d-%d", s0.Chrom, max(s0.Pos-2000, 0), s0.Pos+2000)

	ctx := context.Background()
	for _, kind := range AllEngines {
		for _, reg := range []string{"", region} {
			p := base
			p.Engine, p.Region = kind, reg
			want, err := Search(g, guides, p)
			if err != nil {
				t.Fatalf("%s region %q: %v", kind, reg, err)
			}
			got, err := Search(flat, guides, p)
			if err != nil {
				t.Fatalf("%s region %q, planes only: %v", kind, reg, err)
			}
			if len(want.Sites) == 0 || !slices.Equal(got.Sites, want.Sites) {
				t.Fatalf("%s region %q: planes only gave %d sites, with Seq %d", kind, reg, len(got.Sites), len(want.Sites))
			}
		}
		stream := func(g *genome.Genome) []report.Site {
			var sites []report.Site
			p := base
			p.Engine = kind
			if _, err := SearchGenomeStreamContext(ctx, g, guides, p, nil, func(s report.Site) error {
				sites = append(sites, s)
				return nil
			}); err != nil {
				t.Fatalf("%s stream: %v", kind, err)
			}
			return sites
		}
		if got, want := stream(flat), stream(g); len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("%s stream: planes only gave %d sites, with Seq %d", kind, len(got), len(want))
		}
	}

	bp := BulgeParams{MaxMismatches: 1, MaxBulge: 1}
	want, err := SearchBulge(g, guides, bp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SearchBulge(flat, guides, bp)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("bulge: planes only gave %d sites, with Seq %d", len(got), len(want))
	}

	ix, err := seedindex.Build(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	bound := base
	bound.Engine, bound.SeedIndex = EngineSeedIndex, ix
	res, err := Search(ix.Genome(), guides, bound)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Sites, full.Sites) {
		t.Fatalf("bound index over ix.Genome() gave %d sites, hyperscan %d", len(res.Sites), len(full.Sites))
	}
	bound.Region = region
	for _, gg := range []*genome.Genome{g, ix.Genome()} {
		_, err := Search(gg, guides, bound)
		if err == nil || !strings.Contains(err.Error(), "Region") || errors.Is(err, seedindex.ErrStale) {
			t.Fatalf("bound index with Region: error %v, want a refusal naming Region that is not ErrStale", err)
		}
	}
}

// TestIndexGenomeAllocatesPerChromosome: ix.Genome() of a 1 Mbp index
// allocates per chromosome, not per base, and a 4-guide SearchContext
// over it stays far below a byte per base.
func TestIndexGenomeAllocatesPerChromosome(t *testing.T) {
	const n = 1 << 20
	g := genome.Synthesize(genome.SynthConfig{Seed: 413, NumChroms: 4, ChromLen: n / 4, NRunRate: 40, NRunLen: 30})
	ix, err := seedindex.Build(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw := genome.SampleGuides(g, 4, 20, dna.MustParsePattern("NGG"), 414)
	guides := make([]dna.Pattern, len(raw))
	for i, r := range raw {
		guides[i] = dna.PatternFromSeq(r)
	}
	bytesPerRun := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		testing.AllocsPerRun(4, f)
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 5 // AllocsPerRun adds a warm-up run
	}
	if got := bytesPerRun(func() { ix.Genome() }); got > 4096 {
		t.Errorf("ix.Genome() of %d bases in 4 chromosomes allocated %d bytes per call", n, got)
	}
	p := Params{MaxMismatches: 3, Engine: EngineSeedIndex, SeedIndex: ix}
	own := ix.Genome()
	var sites int
	got := bytesPerRun(func() {
		res, err := SearchContext(context.Background(), own, guides, p)
		if err != nil {
			t.Fatal(err)
		}
		sites = len(res.Sites)
	})
	if sites == 0 {
		t.Fatal("the query found no sites, so it rendered nothing")
	}
	// The query's own tables (the key bitmap and ranks of the seed
	// length, about 0.2 MB) do not grow with the genome; an unpack of
	// the planes would add a byte per base.
	if got >= n/2 {
		t.Errorf("a 4-guide search over ix.Genome() allocated %d bytes per run for %d bases", got, n)
	}
}
