package casot

import (
	"context"
	"fmt"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

// IndexEngine is the seed-index variant: instead of walking every
// position, it indexes the genome's seed-length k-mers once per
// chromosome, enumerates each guide's seed neighborhood within the seed
// mismatch budget, looks the variants up, and extends candidates. Its
// cost grows combinatorially with the seed budget — the blowup that
// makes seed-and-extend tools degrade at high k while the automata
// engines degrade only linearly, one of the paper's central
// observations. E13 times it against the naive scan; it is not a
// registered engine kind.
type IndexEngine struct {
	specs []arch.PatternSpec
	opt   Options
}

// NewIndex builds the seed-index engine. SeedLen must be in 1..16 so a
// seed packs into a uint32 key.
func NewIndex(specs []arch.PatternSpec, opt Options) (*IndexEngine, error) {
	base, err := New(specs, opt)
	if err != nil {
		return nil, err
	}
	if opt.SeedLen < 1 || opt.SeedLen > 16 {
		return nil, fmt.Errorf("casot: index seed length %d out of range 1..16", opt.SeedLen)
	}
	for i, spec := range specs {
		for _, m := range seedOfSpec(&spec, opt.SeedLen) {
			if m.Count() != 1 {
				return nil, fmt.Errorf("casot: pattern %d has a degenerate seed position; the index variant needs concrete seeds", i)
			}
		}
	}
	return &IndexEngine{specs: base.specs, opt: base.opt}, nil
}

// seedOfSpec returns the PAM-proximal seedLen spacer positions in window
// order: the spacer's 3' end for PAM-right, its 5' end for PAM-left.
func seedOfSpec(spec *arch.PatternSpec, seedLen int) dna.Pattern {
	if spec.PAMLeft {
		return spec.Spacer[:seedLen]
	}
	return spec.Spacer[len(spec.Spacer)-seedLen:]
}

// seedWindowOffset returns the window index where the seed begins.
func seedWindowOffset(spec *arch.PatternSpec, seedLen int) int {
	if spec.PAMLeft {
		return spec.SpacerOffset()
	}
	return spec.SpacerOffset() + len(spec.Spacer) - seedLen
}

// Name implements arch.Engine.
func (e *IndexEngine) Name() string { return "casot-index" }

// ScanChrom implements arch.Engine. It checks ctx every
// arch.DefaultChunk positions, both while indexing and while extending
// candidates, and emits as it goes.
func (e *IndexEngine) ScanChrom(ctx context.Context, c *genome.Chromosome, emit func(automata.Report)) error {
	seq := c.Bases()
	spacerLen := len(e.specs[0].Spacer)
	site := e.specs[0].SiteLen()
	s := e.opt.SeedLen
	if len(seq) < site {
		return nil
	}

	// Index every seed-length k-mer by its start position.
	idx := make(map[uint32][]int32)
	var key uint32
	mask := uint32(1)<<(2*uint(s)) - 1
	valid := 0 // number of trailing concrete bases accumulated
	for i, b := range seq {
		if i%arch.DefaultChunk == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("casot: %s canceled indexing at position %d: %w", c.Name, i, err)
			}
		}
		if b > dna.T {
			valid = 0
			continue
		}
		key = (key<<2 | uint32(b)) & mask
		valid++
		if valid >= s {
			start := int32(i - s + 1)
			idx[key] = append(idx[key], start)
		}
	}

	seen := make(map[int64]bool)
	var err error
	extended := 0
	for si := range e.specs {
		spec := &e.specs[si]
		seedPat := seedOfSpec(spec, s)
		seedOff := seedWindowOffset(spec, s)
		spacerOff := spec.SpacerOffset()
		pamOff := spec.PAMOffset()
		seed := make(dna.Seq, s)
		for i, m := range seedPat {
			for b := dna.A; b <= dna.T; b++ {
				if m.Has(b) {
					seed[i] = b
					break
				}
			}
		}
		budget := e.opt.MaxSeedMismatches
		if budget > spec.K {
			budget = spec.K
		}
		enumerateVariants(seed, budget, func(variant dna.Seq, used int) {
			if err != nil {
				return // canceled: let the enumeration run out
			}
			vkey, _ := dna.KmerOf(variant)
			for _, seedPos := range idx[uint32(vkey)] {
				if extended%arch.DefaultChunk == 0 {
					if cerr := ctx.Err(); cerr != nil {
						err = fmt.Errorf("casot: %s canceled extending candidate %d: %w", c.Name, extended, cerr)
						return
					}
				}
				extended++
				p := int(seedPos) - seedOff // window start
				if p < 0 || p+site > len(seq) {
					continue
				}
				if !pamOK(spec.PAM, seq[p+pamOff:p+pamOff+len(spec.PAM)]) {
					continue
				}
				window := seq[p+spacerOff : p+spacerOff+spacerLen]
				if window.HasAmbiguous() {
					continue
				}
				// Extend: count total mismatches (seed part == used by
				// construction, but recount for clarity and safety).
				total := spec.Spacer.Mismatches(window)
				if total > spec.K {
					continue
				}
				dedupKey := int64(spec.Code)<<40 | int64(p)
				if !seen[dedupKey] {
					seen[dedupKey] = true
					emit(automata.Report{Code: spec.Code, End: p + site - 1})
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// enumerateVariants calls fn for every sequence within Hamming distance
// maxMism of seed (including seed itself). fn receives the variant and
// the number of substituted positions; the variant buffer is reused.
func enumerateVariants(seed dna.Seq, maxMism int, fn func(v dna.Seq, used int)) {
	variant := seed.Clone()
	var rec func(pos, used int)
	rec = func(pos, used int) {
		if pos == len(seed) {
			fn(variant, used)
			return
		}
		rec(pos+1, used)
		if used < maxMism {
			orig := variant[pos]
			for b := dna.A; b <= dna.T; b++ {
				if b == orig {
					continue
				}
				variant[pos] = b
				rec(pos+1, used+1)
			}
			variant[pos] = orig
		}
	}
	rec(0, 0)
}

// SeedVariantCount returns the size of the Hamming ball enumerated per
// guide: sum_{j<=budget} C(s,j) * 3^j. It quantifies the combinatorial
// blowup in the E-series tables.
func SeedVariantCount(seedLen, budget int) int {
	total := 0
	for j := 0; j <= budget && j <= seedLen; j++ {
		total += binom(seedLen, j) * pow3(j)
	}
	return total
}

func binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

func pow3(n int) int {
	r := 1
	for i := 0; i < n; i++ {
		r *= 3
	}
	return r
}
