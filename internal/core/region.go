package core

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/cap-repro/crisprscan/internal/genome"
)

// Region names a genomic interval: a whole chromosome ("chr1") or a
// 0-based half-open slice ("chr1:1000-2000").
type Region struct {
	Chrom string
	Start int // inclusive, 0-based
	End   int // exclusive; 0 means chromosome end
}

// ParseRegion parses "chrom" or "chrom:start-end".
func ParseRegion(s string) (Region, error) {
	if s == "" {
		return Region{}, fmt.Errorf("core: empty region")
	}
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return Region{Chrom: s}, nil
	}
	chrom, span := s[:i], s[i+1:]
	if chrom == "" {
		return Region{}, fmt.Errorf("core: region %q has no chromosome", s)
	}
	parts := strings.SplitN(span, "-", 2)
	if len(parts) != 2 {
		return Region{}, fmt.Errorf("core: region %q needs start-end", s)
	}
	start, err := strconv.Atoi(parts[0])
	if err != nil {
		return Region{}, fmt.Errorf("core: region %q: bad start: %w", s, err)
	}
	end, err := strconv.Atoi(parts[1])
	if err != nil {
		return Region{}, fmt.Errorf("core: region %q: bad end: %w", s, err)
	}
	if start < 0 || end <= start {
		return Region{}, fmt.Errorf("core: region %q: empty or negative span", s)
	}
	return Region{Chrom: chrom, Start: start, End: end}, nil
}

// Slice extracts the region from g as a single-chromosome genome plus
// the coordinate offset to add back to reported positions. Sites are
// defined as windows lying entirely inside the region.
func (r Region) Slice(g *genome.Genome) (*genome.Genome, int, error) {
	c := g.Chrom(r.Chrom)
	if c == nil {
		return nil, 0, fmt.Errorf("core: region chromosome %q not in genome", r.Chrom)
	}
	n := c.Packed.Len()
	start, end := r.Start, r.End
	if end == 0 || end > n {
		end = n
	}
	if start >= end {
		return nil, 0, fmt.Errorf("core: region %s:%d-%d outside chromosome (len %d)", r.Chrom, r.Start, r.End, n)
	}
	sub := genome.New(genome.Chromosome{Name: c.Name, Seq: c.Bases()[start:end]})
	return sub, start, nil
}
