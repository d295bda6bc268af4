package core

import (
	"math/rand"
	"testing"

	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/fpga"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/report"
)

// plantedFixture builds a genome with known off-target sites.
func plantedFixture(t *testing.T, seed int64, guides, chromLen int, plan genome.PlantPlan) (*genome.Genome, []dna.Pattern, []genome.PlantedSite) {
	t.Helper()
	g := genome.Synthesize(genome.SynthConfig{Seed: seed, ChromLen: chromLen, NumChroms: 2})
	raw := genome.RandomGuides(guides, 20, seed+1)
	sites, err := genome.Plant(g, raw, dna.MustParsePattern("NGG"), plan, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	pats := make([]dna.Pattern, len(raw))
	for i, r := range raw {
		pats[i] = dna.PatternFromSeq(r)
	}
	return g, pats, sites
}

func siteSet(sites []report.Site) map[string]bool {
	set := make(map[string]bool, len(sites))
	for _, s := range sites {
		set[siteKey(s)] = true
	}
	return set
}

func siteKey(s report.Site) string {
	return s.Chrom + ":" + string(rune(s.Pos)) + string(s.Strand) + string(rune(s.Guide)) + string(rune(s.Mismatches))
}

// TestE11CrossEngineEquivalence is the accuracy experiment: every
// engine must return the identical site set, and that set must include
// every planted site (100% recall).
func TestE11CrossEngineEquivalence(t *testing.T) {
	plan := genome.PlantPlan{0: 1, 1: 2, 2: 2, 3: 1}
	g, guides, planted := plantedFixture(t, 201, 6, 120000, plan)
	params := Params{MaxMismatches: 3}

	var reference []report.Site
	for _, kind := range AllEngines {
		p := params
		p.Engine = kind
		res, err := Search(g, guides, p)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if kind == AllEngines[0] {
			reference = res.Sites
			// Recall check against planted truth.
			got := siteSet(res.Sites)
			for _, ps := range planted {
				key := siteKey(report.Site{Chrom: ps.Chrom, Pos: ps.Pos, Strand: ps.Strand, Guide: ps.Guide, Mismatches: ps.Mismatches})
				if !got[key] {
					t.Errorf("planted site %+v not found by %s", ps, kind)
				}
			}
			continue
		}
		if len(res.Sites) != len(reference) {
			t.Fatalf("%s: %d sites, reference %d", kind, len(res.Sites), len(reference))
		}
		for i := range reference {
			if res.Sites[i] != reference[i] {
				t.Fatalf("%s: site %d differs: %+v vs %+v", kind, i, res.Sites[i], reference[i])
			}
		}
	}
}

func TestSearchBothStrandsFindsMinusSites(t *testing.T) {
	g, guides, planted := plantedFixture(t, 202, 4, 80000, genome.PlantPlan{1: 3})
	res, err := Search(g, guides, Params{MaxMismatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	minusPlanted, minusFound := 0, 0
	got := siteSet(res.Sites)
	for _, ps := range planted {
		if ps.Strand != '-' {
			continue
		}
		minusPlanted++
		if got[siteKey(report.Site{Chrom: ps.Chrom, Pos: ps.Pos, Strand: '-', Guide: ps.Guide, Mismatches: ps.Mismatches})] {
			minusFound++
		}
	}
	if minusPlanted == 0 {
		t.Skip("no minus-strand plants this seed")
	}
	if minusFound != minusPlanted {
		t.Errorf("found %d/%d minus-strand sites", minusFound, minusPlanted)
	}
}

func TestPlusStrandOnly(t *testing.T) {
	g, guides, _ := plantedFixture(t, 203, 3, 60000, genome.PlantPlan{0: 2})
	res, err := Search(g, guides, Params{MaxMismatches: 1, PlusStrandOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Sites {
		if s.Strand != '+' {
			t.Fatalf("plus-only search returned %c-strand site %+v", s.Strand, s)
		}
	}
}

func TestSearchParamErrors(t *testing.T) {
	g, guides, _ := plantedFixture(t, 204, 2, 60000, genome.PlantPlan{})
	if _, err := Search(g, nil, Params{}); err == nil {
		t.Error("no guides must error")
	}
	if _, err := Search(g, guides, Params{MaxMismatches: 99}); err == nil {
		t.Error("bad budget must error")
	}
	if _, err := Search(g, guides, Params{PAM: "XYZ"}); err == nil {
		t.Error("bad PAM must error")
	}
	if _, err := Search(g, guides, Params{Engine: "warp-drive"}); err == nil {
		t.Error("unknown engine must error")
	}
}

func TestModeledStatsPresent(t *testing.T) {
	g, guides, _ := plantedFixture(t, 205, 2, 60000, genome.PlantPlan{0: 1})
	res, err := Search(g, guides, Params{MaxMismatches: 1, Engine: EngineAP})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Modeled == nil || res.Stats.Resources == nil {
		t.Fatal("modeled engine must report breakdown and resources")
	}
	if res.Stats.Modeled.Kernel <= 0 {
		t.Error("kernel estimate missing")
	}
	if res.Stats.Resources.States <= 0 {
		t.Error("resource states missing")
	}
	cpu, err := Search(g, guides, Params{MaxMismatches: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Stats.Modeled != nil {
		t.Error("measured engine must not report a model breakdown")
	}
	if cpu.Stats.ElapsedSec <= 0 {
		t.Error("elapsed time missing")
	}
}

func TestCasOTSeedConstraintReducesSites(t *testing.T) {
	g, guides, _ := plantedFixture(t, 206, 4, 150000, genome.PlantPlan{3: 4})
	loose, err := Search(g, guides, Params{MaxMismatches: 3, Engine: EngineCasOT})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Search(g, guides, Params{MaxMismatches: 3, Engine: EngineCasOT, SeedLen: 12, MaxSeedMismatches: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Sites) >= len(loose.Sites) {
		t.Errorf("seed constraint should reduce sites: %d vs %d", len(strict.Sites), len(loose.Sites))
	}
}

// TestStride2AndMergeEquivalent checks that the spatial-platform
// optimizations change the FPGA's price, never its sites: every
// MergeStates/Stride2 combination returns the plain run's sites, and
// its Resources and modeled kernel time are those of the FPGA model
// compiled with the same options.
func TestStride2AndMergeEquivalent(t *testing.T) {
	g, guides, _ := plantedFixture(t, 207, 3, 80000, genome.PlantPlan{1: 2, 2: 2})
	specs := BuildSpecs(guides, dna.MustParsePattern("NGG"), 2, false)
	base, err := Search(g, guides, Params{MaxMismatches: 2, Engine: EngineFPGA})
	if err != nil {
		t.Fatal(err)
	}
	priced := make(map[fpga.Options]*Stats)
	for _, opt := range []fpga.Options{{}, {MergeStates: true}, {Stride2: true}, {MergeStates: true, Stride2: true}} {
		res, err := Search(g, guides, Params{MaxMismatches: 2, Engine: EngineFPGA, MergeStates: opt.MergeStates, Stride2: opt.Stride2})
		if err != nil {
			t.Fatal(err)
		}
		if len(base.Sites) != len(res.Sites) {
			t.Fatalf("%+v: FPGA returned %d sites, plain run %d", opt, len(res.Sites), len(base.Sites))
		}
		for i := range base.Sites {
			if base.Sites[i] != res.Sites[i] {
				t.Fatalf("%+v: site %d differs", opt, i)
			}
		}
		want, err := fpga.Compile(specs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Engine != want.Name() {
			t.Errorf("%+v: Stats.Engine = %q, want %q", opt, res.Stats.Engine, want.Name())
		}
		if *res.Stats.Resources != want.Resources() {
			t.Errorf("%+v: Resources = %+v, want %+v", opt, *res.Stats.Resources, want.Resources())
		}
		if k, wantK := res.Stats.Modeled.Kernel, want.EstimateBreakdown(res.Stats.BytesScanned, res.Stats.Events).Kernel; k != wantK {
			t.Errorf("%+v: modeled kernel = %g, want %g", opt, k, wantK)
		}
		priced[opt] = &res.Stats
	}
	plain := priced[fpga.Options{}]
	if merged := priced[fpga.Options{MergeStates: true}]; merged.Resources.States >= plain.Resources.States {
		t.Errorf("MergeStates did not shrink the mapped states: %d vs %d", merged.Resources.States, plain.Resources.States)
	}
	if strided := priced[fpga.Options{Stride2: true}]; strided.Resources.States <= plain.Resources.States {
		t.Errorf("Stride2 did not grow the mapped states: %d vs %d", strided.Resources.States, plain.Resources.States)
	}
	if strided := priced[fpga.Options{Stride2: true}]; strided.Modeled.Kernel == plain.Modeled.Kernel {
		t.Errorf("Stride2 left the modeled kernel time unchanged at %g", plain.Modeled.Kernel)
	}
}

func TestSearchBulgeFindsPlantedBulges(t *testing.T) {
	// Build a genome, then hand-plant one deletion variant and one
	// insertion variant of a guide, each with an AGG PAM.
	g := genome.Synthesize(genome.SynthConfig{Seed: 208, ChromLen: 50000})
	rng := rand.New(rand.NewSource(209))
	guide := make(dna.Seq, 20)
	for i := range guide {
		guide[i] = dna.Base(rng.Intn(4))
	}
	// Deletion of spacer position 10.
	del := append(append(dna.Seq{}, guide[:10]...), guide[11:]...)
	del = append(del, dna.MustParseSeq("AGG")...)
	// Insertion of a base after position 10 (choose a base differing
	// from guide[10] so the window cannot be explained mismatch-only).
	insBase := dna.Base((int(guide[10]) + 1) % 4)
	ins := append(append(dna.Seq{}, guide[:10]...), insBase)
	ins = append(ins, guide[10:]...)
	ins = append(ins, dna.MustParseSeq("AGG")...)
	c := &g.Chroms[0]
	copy(c.Seq[1000:], del)
	copy(c.Seq[2000:], ins)
	c.Packed = dna.Pack(c.Seq)

	sites, err := SearchBulge(g, []dna.Pattern{dna.PatternFromSeq(guide)}, BulgeParams{
		MaxMismatches: 0, MaxBulge: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	foundDel, foundIns := false, false
	for _, s := range sites {
		if s.Chrom == "chr1" && s.Pos == 1000 && s.Bulges == 1 {
			foundDel = true
		}
		if s.Chrom == "chr1" && s.Pos == 2000 && s.Bulges == 1 {
			foundIns = true
		}
	}
	if !foundDel {
		t.Errorf("deletion bulge site not found; sites: %+v", sites)
	}
	if !foundIns {
		t.Errorf("insertion bulge site not found; sites: %+v", sites)
	}
}

func TestSearchBulgeZeroBulgeMatchesHamming(t *testing.T) {
	g, guides, _ := plantedFixture(t, 210, 3, 60000, genome.PlantPlan{0: 1, 2: 2})
	ham, err := Search(g, guides, Params{MaxMismatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	bulge, err := SearchBulge(g, guides, BulgeParams{MaxMismatches: 2, MaxBulge: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(bulge) != len(ham.Sites) {
		t.Fatalf("bulge(b=0) %d sites vs hamming %d", len(bulge), len(ham.Sites))
	}
	for i, b := range bulge {
		h := ham.Sites[i]
		if b.Chrom != h.Chrom || b.Pos != h.Pos || b.Strand != h.Strand || b.Guide != h.Guide || b.Mismatches != h.Mismatches {
			t.Fatalf("site %d differs: %+v vs %+v", i, b, h)
		}
	}
}

func TestSearchBulgeErrors(t *testing.T) {
	g := genome.Synthesize(genome.SynthConfig{Seed: 1, ChromLen: 1000})
	if _, err := SearchBulge(g, nil, BulgeParams{}); err == nil {
		t.Error("no guides must error")
	}
	if _, err := SearchBulge(g, []dna.Pattern{dna.MustParsePattern("ACGTACGT")}, BulgeParams{PAM: "QQ"}); err == nil {
		t.Error("bad PAM must error")
	}
}
