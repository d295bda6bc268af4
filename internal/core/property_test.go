package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

// TestEngineEquivalenceProperty drives randomized search configurations
// through pairs of engines and asserts identical site lists — the
// property-based generalization of the E11 fixed-fixture test.
func TestEngineEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	rng := rand.New(rand.NewSource(701))
	pairs := [][2]EngineKind{
		{EngineHyperscan, EngineCasOT},
		{EngineHyperscanNFA, EngineCasOffinder},
		{EngineSeedIndex, EngineAP},
		{EngineInfant, EngineFPGA},
	}
	f := func(seed int64, kRaw, guideRaw, pamRaw, pairRaw uint8) bool {
		k := int(kRaw) % 4
		numGuides := 1 + int(guideRaw)%4
		pam := []string{"NGG", "NAG", "NRG"}[int(pamRaw)%3]
		pair := pairs[int(pairRaw)%len(pairs)]

		g := genome.Synthesize(genome.SynthConfig{Seed: seed, ChromLen: 30000})
		raw := genome.RandomGuides(numGuides, 12, seed+1)
		pats := make([]dna.Pattern, len(raw))
		for i, r := range raw {
			pats[i] = dna.PatternFromSeq(r)
		}

		var ref []string
		for _, kind := range pair {
			res, err := Search(g, pats, Params{MaxMismatches: k, PAM: pam, Engine: kind})
			if err != nil {
				return false
			}
			var keys []string
			for _, s := range res.Sites {
				keys = append(keys, s.Chrom+":"+s.SiteSeq+string(s.Strand)+s.Alignment)
			}
			if ref == nil {
				ref = keys
				continue
			}
			if len(keys) != len(ref) {
				return false
			}
			for i := range keys {
				if keys[i] != ref[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Error(err)
	}
}
