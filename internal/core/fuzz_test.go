package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

// fuzzPAMs is the PAM family the differential fuzzer draws from:
// literal, single-ambiguity and highly ambiguous patterns.
var fuzzPAMs = []string{"NGG", "NAG", "NRG", "NNG", "TTTV"}

// FuzzEnginesAgree is the fuzz form of the cross-engine parity matrix:
// for any derived (genome, guides, k, PAM, N runs, spacer shape)
// configuration, every engine in AllEngines must return the
// byte-identical sorted site set. Guides with IUPAC spacer codes or
// spacers over 32 nt leave the prefilter for its bitap fallback;
// cas-offinder and cas-offinder-gpu may refuse those with their own
// error. The fuzzer owns the configuration space; the engines own the
// claim.
func FuzzEnginesAgree(f *testing.F) {
	// Seed corpus: the parity matrix fixture plus corners of the
	// configuration space (tiny genome, many guides, k=0, k=5, PAM5
	// geometry, multi-chromosome), then genomes with dense short N
	// runs, so ambiguous bases land in PAM and spacer lanes, then
	// guides with IUPAC spacer codes and guides with 35- and 40-nt
	// spacers.
	f.Add(int64(401), uint16(20000), uint8(2), uint8(3), uint8(3), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(402), uint16(4000), uint8(1), uint8(1), uint8(0), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint16(1500), uint8(3), uint8(5), uint8(5), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Add(int64(99), uint16(600), uint8(1), uint8(4), uint8(2), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(int64(1234), uint16(10000), uint8(2), uint8(2), uint8(4), uint8(4), uint8(0), uint8(0), uint8(0))
	f.Add(int64(501), uint16(7800), uint8(1), uint8(3), uint8(3), uint8(0), uint8(47), uint8(0), uint8(0))
	f.Add(int64(502), uint16(6000), uint8(0), uint8(2), uint8(4), uint8(2), uint8(120), uint8(0), uint8(0))
	f.Add(int64(503), uint16(3000), uint8(2), uint8(1), uint8(4), uint8(1), uint8(255), uint8(0), uint8(0))
	f.Add(int64(601), uint16(9000), uint8(1), uint8(2), uint8(3), uint8(0), uint8(0), uint8(13), uint8(0))
	f.Add(int64(602), uint16(8000), uint8(0), uint8(2), uint8(3), uint8(1), uint8(30), uint8(0), uint8(2))

	f.Fuzz(func(t *testing.T, seed int64, chromLen uint16, numChroms, numGuides, k, pamIdx, nRuns, iupac, extra uint8) {
		// Derive a bounded configuration from the raw fuzz inputs: the
		// interesting space is small genomes with several guides, where
		// boundary and dedup bugs concentrate. nRuns > 0 plants short N
		// runs (mean length 1..8) at 100*nRuns runs per Mbp. iupac > 0
		// makes every (2 + iupac%5)-th spacer position a two-base IUPAC
		// code covering the sampled base (R, Y, S, W, K or M); extra > 0
		// lengthens the spacer to 33..40 nt. Zero keeps concrete 20-nt
		// guides.
		cl := 200 + int(chromLen)%8000
		nc := 1 + int(numChroms)%3
		ng := 1 + int(numGuides)%4
		kk := int(k) % 6
		pamStr := fuzzPAMs[int(pamIdx)%len(fuzzPAMs)]
		pam5 := pamStr == "TTTV" // Cas12a PAM runs in Cas12a geometry
		nRate, nLen := 0.0, 0
		if nRuns > 0 {
			nRate, nLen = 100*float64(nRuns), 1+int(nRuns)%8
		}
		spacerLen := 20
		if extra > 0 {
			spacerLen = 33 + int(extra)%8
		}

		g := genome.Synthesize(genome.SynthConfig{Seed: seed, ChromLen: cl, NumChroms: nc, NRunRate: nRate, NRunLen: nLen})
		pam := dna.MustParsePattern(pamStr)
		raw := genome.SampleGuides(g, ng, spacerLen, pam, seed+1)
		if len(raw) < ng {
			raw = append(raw, genome.RandomGuides(ng-len(raw), spacerLen, seed+2)...)
		}
		guides := make([]dna.Pattern, len(raw))
		for i, r := range raw {
			guides[i] = dna.PatternFromSeq(r)
			if iupac == 0 {
				continue
			}
			// The second base is one of the other three, so the code is
			// one of the three two-base codes holding the sampled base.
			for pos := int(iupac) % 2; pos < len(r); pos += 2 + int(iupac)%5 {
				other := (r[pos] + 1 + dna.Base(iupac/8%3)) % 4
				guides[i][pos] = r[pos].Mask() | other.Mask()
			}
		}
		unfit := iupac > 0 || extra > 0

		var refSites []string
		var refEngine EngineKind
		for _, kind := range AllEngines {
			res, err := Search(g, guides, Params{
				MaxMismatches: kk, PAM: pamStr, PAM5: pam5, Engine: kind,
			})
			if err != nil && unfit && refusesUnfitGuides[kind] && strings.HasPrefix(err.Error(), "casoffinder: ") {
				continue
			}
			if err != nil {
				t.Fatalf("%s (seed=%d cl=%d nc=%d ng=%d k=%d pam=%s nRuns=%d iupac=%d extra=%d): %v",
					kind, seed, cl, nc, ng, kk, pamStr, nRuns, iupac, extra, err)
			}
			got := make([]string, len(res.Sites))
			for i, s := range res.Sites {
				got[i] = fmt.Sprintf("%+v", s)
			}
			if refSites == nil {
				refSites, refEngine = got, kind
				continue
			}
			if len(got) != len(refSites) {
				t.Fatalf("%s returned %d sites, %s returned %d (seed=%d cl=%d nc=%d ng=%d k=%d pam=%s nRuns=%d iupac=%d extra=%d)",
					kind, len(got), refEngine, len(refSites), seed, cl, nc, ng, kk, pamStr, nRuns, iupac, extra)
			}
			for i := range refSites {
				if got[i] != refSites[i] {
					t.Fatalf("%s diverges from %s at site %d:\n  %s\n  %s\n(seed=%d cl=%d nc=%d ng=%d k=%d pam=%s nRuns=%d iupac=%d extra=%d)",
						kind, refEngine, i, got[i], refSites[i], seed, cl, nc, ng, kk, pamStr, nRuns, iupac, extra)
				}
			}
		}
	})
}
