package genome

import (
	"fmt"
	"math/rand"

	"github.com/cap-repro/crisprscan/internal/dna"
)

// PlantedSite is ground truth for one deliberately written off-target
// site. Pos is the 0-based start of the full plus-strand window of
// length spacerLen+pamLen: for Strand '+', the window reads
// spacer+PAM; for Strand '-', it reads the reverse complement of
// spacer+PAM (so the PAM appears at the left edge as its complement).
// This is the same coordinate convention every engine reports in.
type PlantedSite struct {
	Guide      int
	Chrom      string
	Pos        int
	Strand     byte // '+' or '-'
	Mismatches int
}

// PlantPlan requests how many sites to plant per guide at each mismatch
// distance. Plan[d] = sites per guide at exactly d spacer mismatches.
type PlantPlan map[int]int

// Plant writes off-target sites for each guide into g according to plan,
// alternating strands, and returns the ground truth. Sites never overlap
// each other. The PAM written is a uniformly drawn concrete member of
// pam. Plant mutates g's sequences and repacks the affected chromosomes;
// a chromosome that carries only its planes gets its Seq unpacked first.
func Plant(g *Genome, guides []dna.Seq, pam dna.Pattern, plan PlantPlan, seed int64) ([]PlantedSite, error) {
	for i := range g.Chroms {
		g.Chroms[i].Seq = g.Chroms[i].Bases()
	}
	rng := rand.New(rand.NewSource(seed))
	used := make(map[string][]span, len(g.Chroms))
	var sites []PlantedSite
	for gi, guide := range guides {
		siteLen := len(guide) + len(pam)
		for d := 0; d <= len(guide); d++ {
			for rep := 0; rep < plan[d]; rep++ {
				chrom, pos, ok := reserve(rng, g, used, siteLen)
				if !ok {
					return nil, fmt.Errorf("genome: could not place site (guide %d, d=%d): genome too small or too full", gi, d)
				}
				strand := byte('+')
				if rng.Intn(2) == 1 {
					strand = '-'
				}
				window := buildSite(rng, guide, pam, d, strand)
				copy(g.Chroms[chromIndex(g, chrom)].Seq[pos:], window)
				sites = append(sites, PlantedSite{Guide: gi, Chrom: chrom, Pos: pos, Strand: strand, Mismatches: d})
			}
		}
	}
	// Repack chromosomes whose sequence changed.
	for name := range used {
		c := &g.Chroms[chromIndex(g, name)]
		c.Packed = dna.Pack(c.Seq)
	}
	return sites, nil
}

type span struct{ start, end int }

func overlaps(spans []span, s span) bool {
	for _, o := range spans {
		if s.start < o.end && o.start < s.end {
			return true
		}
	}
	return false
}

// reserve picks a non-overlapping location padded by one site length on
// each side, so a planted site cannot perturb the mismatch count of a
// neighbor.
func reserve(rng *rand.Rand, g *Genome, used map[string][]span, siteLen int) (string, int, bool) {
	for attempt := 0; attempt < 2000; attempt++ {
		c := &g.Chroms[rng.Intn(len(g.Chroms))]
		if len(c.Seq) < 3*siteLen {
			continue
		}
		pos := siteLen + rng.Intn(len(c.Seq)-3*siteLen)
		s := span{pos - siteLen, pos + 2*siteLen}
		if overlaps(used[c.Name], s) {
			continue
		}
		used[c.Name] = append(used[c.Name], s)
		return c.Name, pos, true
	}
	return "", 0, false
}

func chromIndex(g *Genome, name string) int {
	for i := range g.Chroms {
		if g.Chroms[i].Name == name {
			return i
		}
	}
	panic("genome: unknown chromosome " + name)
}

// buildSite constructs the plus-strand window for a site at exactly d
// spacer mismatches with a concrete PAM.
func buildSite(rng *rand.Rand, guide dna.Seq, pam dna.Pattern, d int, strand byte) dna.Seq {
	spacer := mutate(rng, guide, d)
	window := make(dna.Seq, 0, len(spacer)+len(pam))
	window = append(window, spacer...)
	window = append(window, concretePAM(rng, pam)...)
	if strand == '-' {
		window = window.ReverseComplement()
	}
	return window
}

// mutate returns a copy of s with exactly d positions changed to a
// different concrete base.
func mutate(rng *rand.Rand, s dna.Seq, d int) dna.Seq {
	if d > len(s) {
		panic("genome: more mismatches than positions")
	}
	out := s.Clone()
	perm := rng.Perm(len(s))[:d]
	for _, i := range perm {
		// Draw one of the three other bases.
		nb := dna.Base(rng.Intn(3))
		if nb >= out[i] {
			nb++
		}
		out[i] = nb
	}
	return out
}

// concretePAM draws a uniformly random concrete member of pam.
func concretePAM(rng *rand.Rand, pam dna.Pattern) dna.Seq {
	out := make(dna.Seq, len(pam))
	for i, m := range pam {
		choices := make([]dna.Base, 0, 4)
		for b := dna.A; b <= dna.T; b++ {
			if m.Has(b) {
				choices = append(choices, b)
			}
		}
		if len(choices) == 0 {
			panic("genome: empty PAM position")
		}
		out[i] = choices[rng.Intn(len(choices))]
	}
	return out
}
