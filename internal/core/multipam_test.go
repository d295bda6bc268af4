package core

import (
	"testing"

	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

// multiPAMFixture plants one NGG site and one NAG site for the same
// guide.
func multiPAMFixture(t *testing.T) (*genome.Genome, []dna.Pattern) {
	t.Helper()
	g := genome.Synthesize(genome.SynthConfig{Seed: 401, ChromLen: 50000})
	guide := dna.MustParseSeq("GACGCATAAAGATGAGACGC")
	c := &g.Chroms[0]
	ngg := append(guide.Clone(), dna.MustParseSeq("TGG")...)
	nag := append(guide.Clone(), dna.MustParseSeq("TAG")...)
	copy(c.Seq[1000:], ngg)
	copy(c.Seq[2000:], nag)
	c.Packed = dna.Pack(c.Seq)
	return g, []dna.Pattern{dna.PatternFromSeq(guide)}
}

func TestMultiPAMSearch(t *testing.T) {
	g, guides := multiPAMFixture(t)

	nggOnly, err := Search(g, guides, Params{MaxMismatches: 0})
	if err != nil {
		t.Fatal(err)
	}
	both, err := Search(g, guides, Params{MaxMismatches: 0, AltPAMs: []string{"NAG"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(both.Sites) != len(nggOnly.Sites)+1 {
		t.Fatalf("NGG-only %d sites, NGG+NAG %d sites; want exactly one more", len(nggOnly.Sites), len(both.Sites))
	}
	foundNAG := false
	for _, s := range both.Sites {
		if s.Pos == 2000 {
			foundNAG = true
		}
	}
	if !foundNAG {
		t.Error("NAG site at 2000 not found")
	}
}

func TestMultiPAMEnginesAgree(t *testing.T) {
	g, guides := multiPAMFixture(t)
	p := Params{MaxMismatches: 2, AltPAMs: []string{"NAG"}}
	var ref int
	for _, kind := range []EngineKind{EngineHyperscan, EngineHyperscanNFA, EngineCasOffinder, EngineCasOT, EngineAP, EngineFPGA} {
		pp := p
		pp.Engine = kind
		res, err := Search(g, guides, pp)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if kind == EngineHyperscan {
			ref = len(res.Sites)
			if ref < 2 {
				t.Fatalf("fixture too weak: %d sites", ref)
			}
			continue
		}
		if len(res.Sites) != ref {
			t.Errorf("%s: %d sites, reference %d", kind, len(res.Sites), ref)
		}
	}
}

func TestMultiPAMOverlappingPatternsDedup(t *testing.T) {
	// NGG and NRG overlap (every NGG site is an NRG site); the collector
	// must deduplicate.
	g, guides := multiPAMFixture(t)
	res, err := Search(g, guides, Params{MaxMismatches: 0, AltPAMs: []string{"NRG"}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range res.Sites {
		key := s.Chrom + string(rune(s.Pos)) + string(s.Strand)
		if seen[key] {
			t.Fatalf("duplicate site %+v", s)
		}
		seen[key] = true
	}
	// NRG covers both the TGG and TAG plants.
	if len(res.Sites) < 2 {
		t.Errorf("NRG should find both planted sites, got %d", len(res.Sites))
	}
}

func TestMultiPAMLengthMismatch(t *testing.T) {
	g, guides := multiPAMFixture(t)
	if _, err := Search(g, guides, Params{AltPAMs: []string{"TTTV"}}); err == nil {
		t.Error("PAM length mismatch must error")
	}
	if _, err := Search(g, guides, Params{AltPAMs: []string{"XX!"}}); err == nil {
		t.Error("invalid alt PAM must error")
	}
}
