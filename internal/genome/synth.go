package genome

import (
	"fmt"
	"math/rand"

	"github.com/cap-repro/crisprscan/internal/dna"
)

// SynthConfig controls synthetic genome generation. The defaults are
// chosen to resemble mammalian reference sequence at small scale:
// ~41% GC, occasional N runs (assembly gaps), and a configurable amount
// of duplicated segments (repeats) so that guide patterns hit more than
// once, as they do in real genomes.
type SynthConfig struct {
	Seed       int64   // RNG seed; same seed => identical genome
	NumChroms  int     // number of chromosomes (default 1)
	ChromLen   int     // length of each chromosome in bp
	GC         float64 // GC fraction (default 0.41)
	NRunRate   float64 // expected N runs per Mbp (default 0 for benchmarks)
	NRunLen    int     // mean N run length (default 100)
	RepeatRate float64 // fraction of sequence covered by copied segments (default 0.05)
	RepeatLen  int     // repeat segment length (default 300)
}

func (c *SynthConfig) defaults() {
	if c.NumChroms <= 0 {
		c.NumChroms = 1
	}
	if c.GC <= 0 || c.GC >= 1 {
		c.GC = 0.41
	}
	if c.NRunLen <= 0 {
		c.NRunLen = 100
	}
	if c.RepeatLen <= 0 {
		c.RepeatLen = 300
	}
	if c.RepeatRate < 0 {
		c.RepeatRate = 0
	}
}

// Synthesize generates a deterministic random genome from cfg.
func Synthesize(cfg SynthConfig) *Genome {
	cfg.defaults()
	if cfg.ChromLen <= 0 {
		panic("genome: SynthConfig.ChromLen must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	chroms := make([]Chromosome, cfg.NumChroms)
	for ci := range chroms {
		seq := make(dna.Seq, cfg.ChromLen)
		for i := range seq {
			seq[i] = drawBase(rng, cfg.GC)
		}
		plantRepeats(rng, seq, cfg)
		plantNRuns(rng, seq, cfg)
		chroms[ci] = Chromosome{Name: fmt.Sprintf("chr%d", ci+1), Seq: seq}
	}
	return New(chroms...)
}

func drawBase(rng *rand.Rand, gc float64) dna.Base {
	if rng.Float64() < gc {
		if rng.Intn(2) == 0 {
			return dna.G
		}
		return dna.C
	}
	if rng.Intn(2) == 0 {
		return dna.A
	}
	return dna.T
}

// plantRepeats copies random segments elsewhere in the chromosome until
// roughly RepeatRate of the sequence has been overwritten by copies.
func plantRepeats(rng *rand.Rand, seq dna.Seq, cfg SynthConfig) {
	if cfg.RepeatRate <= 0 || len(seq) < 2*cfg.RepeatLen {
		return
	}
	target := int(float64(len(seq)) * cfg.RepeatRate)
	for covered := 0; covered < target; covered += cfg.RepeatLen {
		src := rng.Intn(len(seq) - cfg.RepeatLen)
		dst := rng.Intn(len(seq) - cfg.RepeatLen)
		segment := seq[src : src+cfg.RepeatLen].Clone()
		if rng.Intn(2) == 0 {
			segment = segment.ReverseComplement()
		}
		// Degrade the copy slightly (ancient repeats diverge).
		for i := range segment {
			if rng.Float64() < 0.02 {
				segment[i] = dna.Base(rng.Intn(4))
			}
		}
		copy(seq[dst:], segment)
	}
}

func plantNRuns(rng *rand.Rand, seq dna.Seq, cfg SynthConfig) {
	if cfg.NRunRate <= 0 {
		return
	}
	runs := int(cfg.NRunRate * float64(len(seq)) / 1e6)
	for r := 0; r < runs; r++ {
		length := 1 + rng.Intn(2*cfg.NRunLen)
		if length >= len(seq) {
			continue
		}
		start := rng.Intn(len(seq) - length)
		for i := start; i < start+length; i++ {
			seq[i] = dna.BadBase
		}
	}
}

// SampleGuides extracts realistic guides from the genome: random genomic
// 20-mers that sit immediately 5' of a PAM occurrence, the way real gRNAs
// are designed against on-target sites. Guides never contain ambiguous
// bases. Returns fewer than n guides only if the genome has too few PAM
// sites, which for NGG effectively never happens.
func SampleGuides(g *Genome, n, spacerLen int, pam dna.Pattern, seed int64) []dna.Seq {
	rng := rand.New(rand.NewSource(seed))
	var guides []dna.Seq
	seqs := make([]dna.Seq, len(g.Chroms)) // each chromosome's Bases, read on first draw
	attempts := 0
	maxAttempts := 200 * n
	for len(guides) < n && attempts < maxAttempts {
		attempts++
		ci := rng.Intn(len(g.Chroms))
		siteLen := spacerLen + len(pam)
		if g.Chroms[ci].Packed.Len() < siteLen {
			continue
		}
		if seqs[ci] == nil {
			seqs[ci] = g.Chroms[ci].Bases()
		}
		pos := rng.Intn(len(seqs[ci]) - siteLen)
		window := seqs[ci][pos : pos+siteLen]
		if !pam.Matches(window[spacerLen:]) {
			continue
		}
		if hasBad(window[:spacerLen]) {
			continue
		}
		guides = append(guides, window[:spacerLen].Clone())
	}
	return guides
}

// RandomGuides generates n uniform random concrete spacers, for workloads
// where guides need not have an on-target site.
func RandomGuides(n, spacerLen int, seed int64) []dna.Seq {
	rng := rand.New(rand.NewSource(seed))
	out := make([]dna.Seq, n)
	for i := range out {
		s := make(dna.Seq, spacerLen)
		for j := range s {
			s[j] = dna.Base(rng.Intn(4))
		}
		out[i] = s
	}
	return out
}

func hasBad(s dna.Seq) bool {
	for _, b := range s {
		if b == dna.BadBase {
			return true
		}
	}
	return false
}
