// Package genome provides the reference-sequence container used by every
// scan engine, plus a seeded synthetic-genome generator with off-target
// site planting. The paper evaluated against the human reference genome;
// we do not ship 3.1 Gbp of hg38, so experiments run on synthetic genomes
// whose size, GC content and ambiguity rate are configurable, and whose
// planted sites give exact ground truth for correctness checks (see
// DESIGN.md, substitution table).
package genome

import (
	"fmt"
	"strings"

	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/fasta"
)

// Chromosome is one reference sequence. Packed, the 2-bit planes, is
// the sequence every scan, verify and render reads; Seq, one byte per
// base, is filled by FASTA ingest and may be nil (Index.Genome in
// internal/seedindex returns planes-only chromosomes). Code that reads
// bytes calls Bases.
type Chromosome struct {
	Name   string
	Seq    dna.Seq
	Packed *dna.Packed
}

// Bases returns the chromosome's base codes: Seq when it is set, else a
// fresh unpack of the planes. The engines that compare bytes call it
// once per scan, so a planes-only chromosome's unpack is charged to
// that scan.
func (c *Chromosome) Bases() dna.Seq {
	if c.Seq != nil || c.Packed == nil {
		return c.Seq
	}
	return c.Packed.Unpack()
}

// Genome is an ordered set of chromosomes.
type Genome struct {
	Chroms []Chromosome
	total  int
}

// New builds a Genome from named sequences. The packed form is computed
// eagerly from Seq where it is missing; engines rely on it being
// present.
func New(chroms ...Chromosome) *Genome {
	g := &Genome{Chroms: chroms}
	for i := range g.Chroms {
		if g.Chroms[i].Packed == nil {
			g.Chroms[i].Packed = dna.Pack(g.Chroms[i].Seq)
		}
		g.total += g.Chroms[i].Packed.Len()
	}
	return g
}

// FromFasta converts parsed FASTA records into a Genome, decoding each
// record's bytes into base codes and packed planes in one pass.
func FromFasta(recs []*fasta.Record) (*Genome, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("genome: no FASTA records")
	}
	seen := make(map[string]bool, len(recs))
	chroms := make([]Chromosome, 0, len(recs))
	for _, rec := range recs {
		if seen[rec.ID] {
			return nil, fmt.Errorf("genome: duplicate chromosome name %q", rec.ID)
		}
		seen[rec.ID] = true
		seq, packed := dna.Encode(rec.Seq)
		chroms = append(chroms, Chromosome{Name: rec.ID, Seq: seq, Packed: packed})
	}
	return New(chroms...), nil
}

// LoadFasta reads a FASTA file into a Genome.
func LoadFasta(path string) (*Genome, error) {
	recs, err := fasta.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return FromFasta(recs)
}

// ToFasta renders the genome as FASTA records.
func (g *Genome) ToFasta() []*fasta.Record {
	recs := make([]*fasta.Record, len(g.Chroms))
	for i := range g.Chroms {
		c := &g.Chroms[i]
		recs[i] = &fasta.Record{ID: c.Name, Seq: []byte(c.Bases().String())}
	}
	return recs
}

// TotalLen returns the summed chromosome length in bases.
func (g *Genome) TotalLen() int { return g.total }

// Chrom returns the chromosome with the given name, or nil.
func (g *Genome) Chrom(name string) *Chromosome {
	for i := range g.Chroms {
		if g.Chroms[i].Name == name {
			return &g.Chroms[i]
		}
	}
	return nil
}

// Window returns the bases of chromosome chrom in [pos, pos+n), or an
// error if out of range.
func (g *Genome) Window(chrom string, pos, n int) (dna.Seq, error) {
	c := g.Chrom(chrom)
	if c == nil {
		return nil, fmt.Errorf("genome: no chromosome %q", chrom)
	}
	if pos < 0 || pos+n > c.Packed.Len() {
		return nil, fmt.Errorf("genome: window [%d,%d) out of range for %s (len %d)", pos, pos+n, chrom, c.Packed.Len())
	}
	return c.Bases()[pos : pos+n], nil
}

// String summarizes the genome for logs.
func (g *Genome) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "genome{%d chroms, %d bp", len(g.Chroms), g.total)
	for i, c := range g.Chroms {
		if i < 4 {
			fmt.Fprintf(&sb, "; %s=%d", c.Name, c.Packed.Len())
		}
	}
	if len(g.Chroms) > 4 {
		sb.WriteString("; ...")
	}
	sb.WriteString("}")
	return sb.String()
}
