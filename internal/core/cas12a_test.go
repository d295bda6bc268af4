package core

import (
	"testing"

	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

// cas12aFixture plants a 5'-PAM (TTTV) site on each strand.
func cas12aFixture(t *testing.T) (*genome.Genome, []dna.Pattern, dna.Seq) {
	t.Helper()
	g := genome.Synthesize(genome.SynthConfig{Seed: 601, ChromLen: 50000})
	spacer := dna.MustParseSeq("GACGCATAAAGATGAGACGCATA") // Cas12a guides are 23nt
	c := &g.Chroms[0]
	// Plus-strand site: TTTA then the spacer.
	plus := append(dna.MustParseSeq("TTTA"), spacer...)
	copy(c.Seq[1000:], plus)
	// Minus-strand site: plus-strand window = revcomp(PAM+spacer).
	minus := append(dna.MustParseSeq("TTTC"), spacer...)
	copy(c.Seq[2000:], dna.Seq(minus).ReverseComplement())
	c.Packed = dna.Pack(c.Seq)
	return g, []dna.Pattern{dna.PatternFromSeq(spacer)}, spacer
}

func TestCas12aBothStrands(t *testing.T) {
	g, guides, spacer := cas12aFixture(t)
	res, err := Search(g, guides, Params{MaxMismatches: 0, PAM: "TTTV", PAM5: true})
	if err != nil {
		t.Fatal(err)
	}
	var plusOK, minusOK bool
	for _, s := range res.Sites {
		if s.Pos == 1000 && s.Strand == '+' && s.Mismatches == 0 {
			plusOK = true
			if s.SiteSeq != "TTTA"+spacer.String() {
				t.Errorf("plus SiteSeq = %s", s.SiteSeq)
			}
		}
		if s.Pos == 2000 && s.Strand == '-' && s.Mismatches == 0 {
			minusOK = true
			if s.SiteSeq != "TTTC"+spacer.String() {
				t.Errorf("minus SiteSeq = %s", s.SiteSeq)
			}
		}
	}
	if !plusOK {
		t.Error("plus-strand Cas12a site not found")
	}
	if !minusOK {
		t.Error("minus-strand Cas12a site not found")
	}
}

func TestCas12aEnginesAgree(t *testing.T) {
	g, guides, _ := cas12aFixture(t)
	p := Params{MaxMismatches: 2, PAM: "TTTV", PAM5: true}
	var ref []string
	for _, kind := range []EngineKind{EngineHyperscan, EngineHyperscanNFA, EngineCasOffinder, EngineCasOT, EngineAP, EngineInfant} {
		pp := p
		pp.Engine = kind
		res, err := Search(g, guides, pp)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		var keys []string
		for _, s := range res.Sites {
			keys = append(keys, s.Chrom+":"+s.SiteSeq+string(s.Strand))
		}
		if ref == nil {
			ref = keys
			if len(ref) < 2 {
				t.Fatalf("weak fixture: %d sites", len(ref))
			}
			continue
		}
		if len(keys) != len(ref) {
			t.Fatalf("%s: %d sites vs %d", kind, len(keys), len(ref))
		}
		for i := range keys {
			if keys[i] != ref[i] {
				t.Fatalf("%s: site %d differs: %s vs %s", kind, i, keys[i], ref[i])
			}
		}
	}
}

func TestCas12aMismatchBudget(t *testing.T) {
	g, guides, _ := cas12aFixture(t)
	c := &g.Chroms[0]
	// Corrupt two spacer bases of the plus site.
	for _, off := range []int{10, 15} {
		pos := 1000 + 4 + off
		c.Seq[pos] = dna.Base((int(c.Seq[pos]) + 1) % 4)
	}
	c.Packed = dna.Pack(c.Seq)
	strict, err := Search(g, guides, Params{MaxMismatches: 1, PAM: "TTTV", PAM5: true})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Search(g, guides, Params{MaxMismatches: 2, PAM: "TTTV", PAM5: true})
	if err != nil {
		t.Fatal(err)
	}
	has := func(res *Result, pos int) bool {
		for _, s := range res.Sites {
			if s.Pos == pos && s.Strand == '+' {
				return true
			}
		}
		return false
	}
	if has(strict, 1000) {
		t.Error("2-mismatch site must not pass k=1")
	}
	if !has(loose, 1000) {
		t.Error("2-mismatch site must pass k=2")
	}
}
