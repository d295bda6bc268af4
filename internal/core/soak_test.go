package core

import (
	"testing"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/hscan"
	"github.com/cap-repro/crisprscan/internal/report"
)

// TestSoakLargeScale is the paper-shaped end-to-end run in miniature:
// a 2 Mbp genome, 50 sampled guides at full length (20nt + NGG), k=4,
// four engines cross-checked, and planted ground truth at every
// mismatch level up to the budget. Guarded by -short so quick edit
// cycles skip it.
func TestSoakLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	g := genome.Synthesize(genome.SynthConfig{Seed: 901, ChromLen: 1_000_000, NumChroms: 2})
	pam := dna.MustParsePattern("NGG")
	raw := genome.SampleGuides(g, 50, 20, pam, 902)
	if len(raw) < 50 {
		t.Fatalf("sampled %d/50 guides", len(raw))
	}
	plan := genome.PlantPlan{0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
	planted, err := genome.Plant(g, raw, pam, plan, 903)
	if err != nil {
		t.Fatal(err)
	}
	guides := make([]dna.Pattern, len(raw))
	for i, r := range raw {
		guides[i] = dna.PatternFromSeq(r)
	}

	var ref []report.Site
	for _, kind := range []EngineKind{EngineHyperscan, EngineSeedIndex, EngineCasOffinder} {
		res, err := Search(g, guides, Params{MaxMismatches: 4, Engine: kind, Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ref == nil {
			ref = res.Sites
			// Recall of all 250 planted sites.
			found := map[string]bool{}
			for _, s := range res.Sites {
				found[siteKey(s)] = true
			}
			for _, p := range planted {
				key := siteKey(report.Site{Chrom: p.Chrom, Pos: p.Pos, Strand: p.Strand, Guide: p.Guide, Mismatches: p.Mismatches})
				if !found[key] {
					t.Fatalf("planted site %+v missed", p)
				}
			}
			t.Logf("soak: %d sites, %d planted recalled", len(res.Sites), len(planted))
			continue
		}
		sameSites(t, string(kind), res.Sites, ref)
	}

	// The bitap automaton, the prefilter's fallback, at Workers 4: each
	// 1 Mbp chromosome spans many chunks, so this checks its chunk
	// overlap and ownership at scale. Concrete 20-nt guides fit the
	// prefilter, so the hook swaps bitap in for it.
	bitap, err := hscan.New(BuildSpecs(guides, pam, 4, false), hscan.ModeBitap)
	if err != nil {
		t.Fatal(err)
	}
	bitap.Parallelism = 4
	setEngineHook(t, func(arch.Engine) arch.Engine { return bitap })
	res, err := Search(g, guides, Params{MaxMismatches: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Engine != "hyperscan-bitap" {
		t.Fatalf("hooked search ran %s, want hyperscan-bitap", res.Stats.Engine)
	}
	sameSites(t, "hyperscan-bitap", res.Sites, ref)
}

func sameSites(t *testing.T, name string, got, ref []report.Site) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d sites vs %d", name, len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("%s: site %d differs", name, i)
		}
	}
}
