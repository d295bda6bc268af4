package casoffinder

import (
	"fmt"

	"github.com/cap-repro/crisprscan/internal/align"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

// BulgeSpec describes one guide for the brute-force bulge search.
type BulgeSpec struct {
	Spacer dna.Pattern
	Guide  int
}

// BulgeOptions bounds the brute-force bulge search (the feature
// Cas-OFFinder added in version 2.4).
type BulgeOptions struct {
	MaxMismatches int
	MaxBulge      int
	PAM           dna.Pattern
}

// BulgeHit is one brute-force bulge-tolerant match, in the same
// coordinate convention as core.BulgeSite.
type BulgeHit struct {
	Guide      int
	Pos        int // plus-strand start of segment+PAM window
	Len        int // window length
	Strand     byte
	Mismatches int
	Bulges     int
}

// BulgeScan is the brute-force oracle for bulge-tolerant search: at
// every PAM occurrence (both strands), every guide is aligned to every
// feasible segment length with the bounded edit DP. It exists to
// cross-validate the edit automata (core.SearchBulge) — two independent
// implementations of the same semantics.
func BulgeScan(c *genome.Chromosome, specs []BulgeSpec, opt BulgeOptions) ([]BulgeHit, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("casoffinder: no bulge specs")
	}
	if len(opt.PAM) == 0 {
		return nil, fmt.Errorf("casoffinder: bulge scan requires a PAM")
	}
	m := len(specs[0].Spacer)
	for i, s := range specs {
		if len(s.Spacer) != m {
			return nil, fmt.Errorf("casoffinder: bulge spec %d length differs", i)
		}
	}
	pamRC := opt.PAM.ReverseComplement()
	seq := c.Bases()
	var hits []BulgeHit
	// Plus strand: segment then PAM; scan PAM start positions.
	for pamStart := 0; pamStart+len(opt.PAM) <= len(seq); pamStart++ {
		if opt.PAM.Matches(seq[pamStart : pamStart+len(opt.PAM)]) {
			hits = appendStrandHits(hits, seq, specs, opt, pamStart, '+')
		}
		if pamRC.Matches(seq[pamStart : pamStart+len(opt.PAM)]) {
			hits = appendStrandHits(hits, seq, specs, opt, pamStart, '-')
		}
	}
	return hits, nil
}

// appendStrandHits aligns every guide against every feasible segment
// adjacent to the PAM occurrence at pamStart.
func appendStrandHits(hits []BulgeHit, seq dna.Seq, specs []BulgeSpec, opt BulgeOptions, pamStart int, strand byte) []BulgeHit {
	m := len(specs[0].Spacer)
	for L := m - opt.MaxBulge; L <= m+opt.MaxBulge; L++ {
		if L < 1 {
			continue
		}
		var pos, winLen int
		winLen = L + len(opt.PAM)
		if strand == '+' {
			pos = pamStart - L
		} else {
			pos = pamStart
		}
		if pos < 0 || pos+winLen > len(seq) {
			continue
		}
		window := seq[pos : pos+winLen]
		if window.HasAmbiguous() {
			continue
		}
		oriented := window
		if strand == '-' {
			oriented = window.ReverseComplement()
		}
		seg := oriented[:L]
		for _, spec := range specs {
			subs, gaps, ok := align.EditWithGaps(spec.Spacer, seg, opt.MaxMismatches, opt.MaxBulge)
			if !ok {
				continue
			}
			hits = append(hits, BulgeHit{
				Guide: spec.Guide, Pos: pos, Len: winLen, Strand: strand,
				Mismatches: subs, Bulges: gaps,
			})
		}
	}
	return hits
}
