package main

import (
	"bufio"
	"fmt"
	"os"
)

// The input generator is owned by the benchmark: it uses its own PRNG
// and writes FASTA itself, so no change to the program under test can
// change the inputs a seed produces.

// rng is splitmix64: tiny, fast, and fixed forever.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

const (
	spacerLen = 20
	siteLen   = spacerLen + 3 // spacer plus an NGG PAM
)

// base draws one base with the given GC fraction.
func (r *rng) base(gc float64) byte {
	u := r.float()
	switch {
	case u < gc/2:
		return 'G'
	case u < gc:
		return 'C'
	case u < gc+(1-gc)/2:
		return 'A'
	default:
		return 'T'
	}
}

// otherBase returns a base different from b.
func (r *rng) otherBase(b byte) byte {
	for {
		c := "ACGT"[r.intn(4)]
		if c != b {
			return c
		}
	}
}

func revcomp(s []byte) []byte {
	out := make([]byte, len(s))
	for i, b := range s {
		var c byte
		switch b {
		case 'A':
			c = 'T'
		case 'C':
			c = 'G'
		case 'G':
			c = 'C'
		case 'T':
			c = 'A'
		default:
			c = 'N'
		}
		out[len(s)-1-i] = c
	}
	return out
}

// genomeSpec sets the shape of a generated reference.
type genomeSpec struct {
	Contigs  int
	TotalLen int
	GC       float64
	// Repeat families: RepeatFrac of the genome is overwritten by
	// copies of Families random RepeatLen-bp consensus sequences, each
	// copy mutated at Divergence per base and inserted on a random strand.
	Families   int
	RepeatLen  int
	RepeatFrac float64
	Divergence float64
	// ConsensusGuides is the number of guide sites drawn from each
	// family's consensus (an NGG PAM is written after each).
	ConsensusGuides int
}

type contig struct {
	name string
	seq  []byte
}

// plantedSite is one truth site: the guide (index into the op's guide
// list), the plus-strand start of its spacer+PAM window, strand and
// exact spacer mismatch count — the key columns of an output row.
type plantedSite struct {
	guide  int
	chrom  string
	pos    int
	strand byte
	mm     int
}

func (p plantedSite) key() string {
	return fmt.Sprintf("%d\t%s\t%d\t%c\t%d", p.guide, p.chrom, p.pos, p.strand, p.mm)
}

// genGenome builds the contigs and, when the spec has repeat families,
// returns the guides drawn from their consensus sequences.
func genGenome(r *rng, spec genomeSpec) ([]contig, [][]byte) {
	contigs := make([]contig, spec.Contigs)
	per := spec.TotalLen / spec.Contigs
	for i := range contigs {
		seq := make([]byte, per)
		for j := range seq {
			seq[j] = r.base(spec.GC)
		}
		contigs[i] = contig{name: fmt.Sprintf("chr%d", i+1), seq: seq}
	}
	if spec.Families == 0 {
		return contigs, nil
	}
	var consensusGuides [][]byte
	families := make([][]byte, spec.Families)
	stride := spec.RepeatLen / spec.ConsensusGuides
	for f := range families {
		cons := make([]byte, spec.RepeatLen)
		for j := range cons {
			cons[j] = r.base(spec.GC)
		}
		for g := 0; g < spec.ConsensusGuides; g++ {
			at := g * stride
			cons[at+spacerLen+1], cons[at+spacerLen+2] = 'G', 'G'
			consensusGuides = append(consensusGuides, append([]byte(nil), cons[at:at+spacerLen]...))
		}
		families[f] = cons
	}
	copies := int(float64(spec.TotalLen) * spec.RepeatFrac / float64(spec.RepeatLen))
	for c := 0; c < copies; c++ {
		cons := families[r.intn(len(families))]
		cp := append([]byte(nil), cons...)
		for j := range cp {
			if r.float() < spec.Divergence {
				cp[j] = r.otherBase(cp[j])
			}
		}
		if r.intn(2) == 1 {
			cp = revcomp(cp)
		}
		ctg := &contigs[r.intn(len(contigs))]
		at := r.intn(len(ctg.seq) - len(cp))
		copy(ctg.seq[at:], cp)
	}
	return contigs, consensusGuides
}

// randomGuides draws n spacers with a 50% GC fraction.
func randomGuides(r *rng, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		g := make([]byte, spacerLen)
		for j := range g {
			g[j] = "ACGT"[r.intn(4)]
		}
		out[i] = g
	}
	return out
}

// planter writes truth sites into a genome without letting two planted
// windows overlap.
type planter struct {
	r       *rng
	contigs []contig
	used    map[string][][2]int
}

func newPlanter(r *rng, contigs []contig) *planter {
	return &planter{r: r, contigs: contigs, used: make(map[string][][2]int)}
}

// plant writes one site for guide g (labelled guideIdx in its op) with
// exactly mm spacer mismatches, on a random strand, away from contig ends.
func (p *planter) plant(guideIdx int, g []byte, mm int) plantedSite {
	site := append([]byte(nil), g...)
	for _, i := range p.distinct(mm, spacerLen) {
		site[i] = p.r.otherBase(site[i])
	}
	site = append(site, "ACGT"[p.r.intn(4)], 'G', 'G')
	strand := byte('+')
	if p.r.intn(2) == 1 {
		strand = '-'
		site = revcomp(site)
	}
	for {
		ctg := &p.contigs[p.r.intn(len(p.contigs))]
		pos := siteLen + p.r.intn(len(ctg.seq)-3*siteLen)
		if p.overlaps(ctg.name, pos) {
			continue
		}
		p.used[ctg.name] = append(p.used[ctg.name], [2]int{pos, pos + siteLen})
		copy(ctg.seq[pos:], site)
		return plantedSite{guide: guideIdx, chrom: ctg.name, pos: pos, strand: strand, mm: mm}
	}
}

func (p *planter) overlaps(chrom string, pos int) bool {
	for _, iv := range p.used[chrom] {
		if pos < iv[1]+siteLen && iv[0] < pos+2*siteLen {
			return true
		}
	}
	return false
}

// distinct returns k distinct indices below n.
func (p *planter) distinct(k, n int) []int {
	seen := make(map[int]bool, k)
	var out []int
	for len(out) < k {
		i := p.r.intn(n)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

func writeFASTA(path string, contigs []contig) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, c := range contigs {
		fmt.Fprintf(w, ">%s\n", c.name)
		for i := 0; i < len(c.seq); i += 60 {
			end := min(i+60, len(c.seq))
			w.Write(c.seq[i:end])
			w.WriteByte('\n')
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func writeGuides(path string, guides [][]byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, g := range guides {
		fmt.Fprintf(w, "g%d %s\n", i, g)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func totalLen(contigs []contig) int {
	n := 0
	for _, c := range contigs {
		n += len(c.seq)
	}
	return n
}
