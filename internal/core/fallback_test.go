package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/hscan"
)

// refusesUnfitGuides lists the kinds allowed to refuse guides the
// prefilter cannot compile: Cas-OFFinder's packed form takes concrete
// or N spacer positions and spacers up to 32 nt, like the prefilter,
// but has no fallback.
var refusesUnfitGuides = map[EngineKind]bool{EngineCasOffinder: true, EngineCasOffinderGPU: true}

// sampleSiteGuides draws n spacerLen-nt guides from g, each from a
// window whose PAM matches, so every guide has a 0-mismatch site. For a
// 5' PAM it samples the reverse complement of PAM+spacer, a window
// that ends in the PAM's reverse complement.
func sampleSiteGuides(t *testing.T, g *genome.Genome, n, spacerLen int, pam dna.Pattern, pam5 bool, seed int64) []dna.Seq {
	t.Helper()
	if pam5 {
		pam = pam.ReverseComplement()
	}
	raw := genome.SampleGuides(g, n, spacerLen, pam, seed)
	if len(raw) < n {
		t.Fatalf("sampled %d/%d guides", len(raw), n)
	}
	if pam5 {
		for i, r := range raw {
			raw[i] = r.ReverseComplement()
		}
	}
	return raw
}

// degenerate turns every seventh spacer position, from the third, into
// the two-base IUPAC code covering its base: R for A or G, Y for C or
// T. The guide still matches its sampled window exactly.
func degenerate(s dna.Seq) dna.Pattern {
	p := dna.PatternFromSeq(s)
	for i := 2; i < len(p); i += 7 {
		if s[i] == dna.A || s[i] == dna.G {
			p[i] = dna.MaskFromChar('R')
		} else {
			p[i] = dna.MaskFromChar('Y')
		}
	}
	return p
}

// TestUnfitGuidesAgreeOnEveryEngine pins the prefilter's bitap
// fallback: guides the prefilter cannot compile (R/Y spacer bases,
// 35-nt spacers) scan on every engine, across k, PAM sets and worker
// counts, and each engine returns the sites hyperscan-nfa, the oracle,
// returns. Only cas-offinder and cas-offinder-gpu may refuse them, with
// their own error. Stats.Engine shows which hscan path ran.
func TestUnfitGuidesAgreeOnEveryEngine(t *testing.T) {
	g := genome.Synthesize(genome.SynthConfig{Seed: 1701, ChromLen: 9000, NumChroms: 2})

	// Concrete 20-nt guides fit the prefilter.
	fit := genome.SampleGuides(g, 2, 20, dna.MustParsePattern("NGG"), 1702)
	res, err := Search(g, []dna.Pattern{dna.PatternFromSeq(fit[0]), dna.PatternFromSeq(fit[1])}, Params{MaxMismatches: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Engine != "hyperscan-prefilter" {
		t.Errorf("concrete 20-nt guides ran %s, want hyperscan-prefilter", res.Stats.Engine)
	}
	// Over bitap's k = 7 the fallback refuses too; the error gives both
	// reasons, so the user learns why the prefilter did not take the
	// guides.
	deep := BuildSpecs([]dna.Pattern{degenerate(fit[0])}, dna.MustParsePattern("NGG"), 8, false)
	for _, kind := range []EngineKind{EngineHyperscan, EngineAP} {
		_, err := NewEngine(kind, deep, Params{MaxMismatches: 8})
		if !errors.Is(err, hscan.ErrPrefilterFit) {
			t.Fatalf("%s at k=8: %v, want the prefilter's fit error", kind, err)
		}
		for _, want := range []string{"partially degenerate", "bitap fallback: ", "over bitap's 7"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s at k=8: %q lacks %q", kind, err, want)
			}
		}
	}

	pamSets := []struct {
		name string
		pam  string
		alts []string
		pam5 bool
	}{
		{"NGG", "NGG", nil, false},
		{"NGG+NAG", "NGG", []string{"NAG"}, false},
		{"TTTV", "TTTV", nil, true},
	}
	guideSets := []struct {
		name      string
		spacerLen int
		shape     func(dna.Seq) dna.Pattern
	}{
		{"RY", 20, degenerate},
		{"35nt", 35, dna.PatternFromSeq},
	}
	for _, gs := range guideSets {
		for _, ps := range pamSets {
			raw := sampleSiteGuides(t, g, 3, gs.spacerLen, dna.MustParsePattern(ps.pam), ps.pam5, 1703)
			guides := make([]dna.Pattern, len(raw))
			for i, r := range raw {
				guides[i] = gs.shape(r)
			}
			for _, k := range []int{0, 3} {
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("%s/%s/k=%d/workers=%d", gs.name, ps.name, k, workers)
					t.Run(name, func(t *testing.T) {
						p := Params{MaxMismatches: k, PAM: ps.pam, AltPAMs: ps.alts, PAM5: ps.pam5, Workers: workers}
						oracle := p
						oracle.Engine = EngineHyperscanNFA
						res, err := Search(g, guides, oracle)
						if err != nil {
							t.Fatal(err)
						}
						ref := res.Sites
						if len(ref) == 0 {
							t.Fatal("the oracle found no sites: fixture is degenerate")
						}
						for _, kind := range AllEngines {
							pp := p
							pp.Engine = kind
							res, err := Search(g, guides, pp)
							if err != nil {
								if !refusesUnfitGuides[kind] || !strings.HasPrefix(err.Error(), "casoffinder: ") {
									t.Errorf("%s: %v", kind, err)
								}
								continue
							}
							if kind == EngineHyperscan && res.Stats.Engine != "hyperscan-bitap" {
								t.Errorf("%s ran %s, want hyperscan-bitap", kind, res.Stats.Engine)
							}
							if !slices.Equal(res.Sites, ref) {
								t.Errorf("%s returned %d sites, hyperscan-nfa %d, or they differ", kind, len(res.Sites), len(ref))
							}
						}
					})
				}
			}
		}
	}
}
