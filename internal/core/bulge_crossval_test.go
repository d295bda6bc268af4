package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/cap-repro/crisprscan/internal/casoffinder"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

// bulgeTrial is one cross-validation configuration: a synthesized
// single-chromosome genome, the guides, and the edit budget.
type bulgeTrial struct {
	genomeSeed int64
	chromLen   int
	spacerLen  int
	bases      []byte // spacerLen bases (mod 4) per guide, concatenated
	k, bulge   int
}

// guides decodes up to four whole spacers from the trial's bases.
func (tr bulgeTrial) guides() []dna.Pattern {
	var out []dna.Pattern
	for i := 0; i+tr.spacerLen <= len(tr.bases) && len(out) < 4; i += tr.spacerLen {
		spacer := make(dna.Seq, tr.spacerLen)
		for j := range spacer {
			spacer[j] = dna.Base(tr.bases[i+j] % 4)
		}
		out = append(out, dna.PatternFromSeq(spacer))
	}
	return out
}

// bulgeTrials returns the four fixed trials of TestBulgeCrossValidation,
// which also seed FuzzBulgeAgainstDP: three random 9-nt guides each,
// one bulge, and one or two mismatches.
func bulgeTrials() []bulgeTrial {
	rng := rand.New(rand.NewSource(151))
	var trials []bulgeTrial
	for trial := 0; trial < 4; trial++ {
		tr := bulgeTrial{genomeSeed: 160 + int64(trial), chromLen: 30000, spacerLen: 9, bulge: 1}
		for i := 0; i < 3*tr.spacerLen; i++ {
			tr.bases = append(tr.bases, byte(rng.Intn(4)))
		}
		tr.k = 1 + rng.Intn(2)
		trials = append(trials, tr)
	}
	return trials
}

// checkBulgeAgainstDP is the two-implementation check: the brute-force
// PAM-anchored DP search (casoffinder.BulgeScan, over internal/align)
// and the edit-automata search (SearchBulge) must agree on the site
// set. Two independent implementations of the same semantics guard
// each other.
func checkBulgeAgainstDP(t *testing.T, tr bulgeTrial) {
	t.Helper()
	g := genome.Synthesize(genome.SynthConfig{Seed: tr.genomeSeed, ChromLen: tr.chromLen})
	guides := tr.guides()
	specs := make([]casoffinder.BulgeSpec, len(guides))
	for i, p := range guides {
		specs[i] = casoffinder.BulgeSpec{Spacer: p, Guide: i}
	}
	opt := casoffinder.BulgeOptions{MaxMismatches: tr.k, MaxBulge: tr.bulge, PAM: dna.MustParsePattern("NGG")}

	auto, err := SearchBulge(g, guides, BulgeParams{MaxMismatches: tr.k, MaxBulge: tr.bulge})
	if err != nil {
		t.Fatal(err)
	}
	brute, err := casoffinder.BulgeScan(&g.Chroms[0], specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Compare as distinct window-end positions per guide+strand: the
	// brute force enumerates every feasible window per PAM anchor,
	// while the automata path resolves one window per event.
	autoSet := map[string]bool{}
	for _, s := range auto {
		autoSet[fmt.Sprintf("%d:%d:%c", s.Guide, s.Pos+s.Len-1, s.Strand)] = true
	}
	bruteSet := map[string]bool{}
	for _, h := range brute {
		bruteSet[fmt.Sprintf("%d:%d:%c", h.Guide, h.Pos+h.Len-1, h.Strand)] = true
	}
	for key := range bruteSet {
		if !autoSet[key] {
			t.Fatalf("%+v: brute-force site %s missed by automata", tr, key)
		}
	}
	for key := range autoSet {
		if !bruteSet[key] {
			t.Fatalf("%+v: automata site %s not confirmed by brute force", tr, key)
		}
	}
}

func TestBulgeCrossValidation(t *testing.T) {
	for _, tr := range bulgeTrials() {
		checkBulgeAgainstDP(t, tr)
	}
}

// FuzzBulgeAgainstDP is the fuzz form of TestBulgeCrossValidation: for
// any derived genome, guide set (6–17 nt, up to four guides) and edit
// budget (k and bulges 0..2), SearchBulge's edit automata and the
// align DP behind casoffinder.BulgeScan must agree. The seeds are the
// four trials; genomes are cut to at most 4159 bases so a smoke run
// makes about a hundred execs a second (the trials' 30 kbp genomes stay
// covered by TestBulgeCrossValidation).
func FuzzBulgeAgainstDP(f *testing.F) {
	for _, tr := range bulgeTrials() {
		f.Add(tr.genomeSeed, uint16(tr.chromLen), uint8(tr.spacerLen-6), tr.bases, uint8(tr.k), uint8(tr.bulge))
	}
	f.Fuzz(func(t *testing.T, seed int64, chromLen uint16, spacerLen uint8, bases []byte, k, bulge uint8) {
		tr := bulgeTrial{
			genomeSeed: seed, chromLen: 64 + int(chromLen)%4096, spacerLen: 6 + int(spacerLen)%12,
			bases: bases, k: int(k) % 3, bulge: int(bulge) % 3,
		}
		if len(tr.guides()) == 0 {
			return
		}
		checkBulgeAgainstDP(t, tr)
	})
}
