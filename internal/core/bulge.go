package core

import (
	"fmt"
	"sort"

	"github.com/cap-repro/crisprscan/internal/align"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/metrics"
	"github.com/cap-repro/crisprscan/internal/report"
)

// BulgeParams configures the edit-distance (bulge-tolerant) search, the
// paper's extension beyond plain mismatches. It always runs on the
// automata path: the edit lattice is compiled per guide and strand and
// executed by the shared NFA simulator.
type BulgeParams struct {
	// MaxMismatches is the substitution budget.
	MaxMismatches int
	// MaxBulge is the combined budget for DNA bulges (extra genome
	// bases) and RNA bulges (skipped spacer positions), interior only.
	MaxBulge int
	// PAM defaults to NGG.
	PAM string
	// PlusStrandOnly disables minus-strand search.
	PlusStrandOnly bool
}

// BulgeSite is one resolved bulge-tolerant site. Because gaps change the
// genomic footprint, Pos/Len describe the aligned spacer segment.
type BulgeSite struct {
	Guide      int
	Chrom      string
	Pos        int // plus-strand start of the full window (segment+PAM)
	Len        int // full window length (varies with net bulges)
	Strand     byte
	Mismatches int
	Bulges     int
	SiteSeq    string // guide-oriented window (spacer segment then PAM)
}

// SearchBulge runs the bulge-tolerant automata search.
func SearchBulge(g *genome.Genome, guides []dna.Pattern, p BulgeParams) ([]BulgeSite, error) {
	if len(guides) == 0 {
		return nil, fmt.Errorf("core: no guides")
	}
	if p.PAM == "" {
		p.PAM = "NGG"
	}
	pam, err := dna.ParsePattern(p.PAM)
	if err != nil {
		return nil, err
	}
	var parts []*automata.NFA
	for gi, guide := range guides {
		plus, err := automata.CompileEdit(guide, automata.EditOptions{
			MaxMismatches: p.MaxMismatches, MaxBulge: p.MaxBulge,
			PAM: pam, Code: report.CodeFor(gi, '+'),
		})
		if err != nil {
			return nil, err
		}
		parts = append(parts, plus)
		if !p.PlusStrandOnly {
			minus, err := automata.CompileEdit(guide.ReverseComplement(), automata.EditOptions{
				MaxMismatches: p.MaxMismatches, MaxBulge: p.MaxBulge,
				PAM: pam.ReverseComplement(), PAMLeft: true, Code: report.CodeFor(gi, '-'),
			})
			if err != nil {
				return nil, err
			}
			parts = append(parts, minus)
		}
	}
	u, err := automata.UnionAll("bulge", parts)
	if err != nil {
		return nil, err
	}
	sim := automata.NewSim(u)
	var sites []BulgeSite
	seen := map[string]bool{}
	for ci := range g.Chroms {
		c := &g.Chroms[ci]
		seq := c.Bases()
		var resolveErr error
		sim.Scan(automata.SymbolsOfSeq(seq), func(r automata.Report) {
			if resolveErr != nil {
				return
			}
			site, err := resolveBulge(c.Name, seq, r, guides, pam, p)
			if err != nil {
				resolveErr = err
				return
			}
			key := fmt.Sprintf("%d:%s:%d:%d:%c", site.Guide, site.Chrom, site.Pos, site.Len, site.Strand)
			if !seen[key] {
				seen[key] = true
				sites = append(sites, site)
			}
		})
		if resolveErr != nil {
			return nil, resolveErr
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.Chrom != b.Chrom {
			return a.Chrom < b.Chrom
		}
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		return a.Guide < b.Guide
	})
	return sites, nil
}

// resolveBulge re-aligns the event's window to recover the alignment
// length and cost. The automaton guarantees some feasible alignment
// exists; the resolver picks the one with the fewest bulges (then fewest
// mismatches).
func resolveBulge(chrom string, seq dna.Seq, ev automata.Report, guides []dna.Pattern, pam dna.Pattern, p BulgeParams) (BulgeSite, error) {
	guide, strand := report.DecodeCode(ev.Code)
	if guide < 0 || guide >= len(guides) {
		return BulgeSite{}, fmt.Errorf("core: bulge event code %d out of range", ev.Code)
	}
	spacer := guides[guide]
	m := len(spacer)
	// Try gap budgets in increasing order so the reported site carries
	// the minimal bulge count; for each budget, every feasible segment
	// length.
	for gaps := 0; gaps <= p.MaxBulge; gaps++ {
		for L := m - gaps; L <= m+gaps; L++ {
			if L < 1 {
				continue
			}
			winLen := L + len(pam)
			pos := ev.End - winLen + 1
			if pos < 0 {
				continue
			}
			window := seq[pos : pos+winLen]
			oriented := window
			if strand == '-' {
				oriented = window.ReverseComplement()
			}
			seg, pamSeq := oriented[:L], oriented[L:]
			if len(pam) > 0 && !pam.Matches(pamSeq) {
				continue
			}
			if subs, ok := align.Edit(spacer, seg, p.MaxMismatches, gaps); ok {
				return BulgeSite{
					Guide: guide, Chrom: chrom, Pos: pos, Len: winLen,
					Strand: strand, Mismatches: subs, Bulges: gaps,
					SiteSeq: oriented.String(),
				}, nil
			}
		}
	}
	return BulgeSite{}, fmt.Errorf("core: could not re-align bulge event %+v on %s (engine/resolver mismatch)", ev, chrom)
}

// BulgeElapsed wraps SearchBulge with wall-clock measurement for the
// E12 experiment.
func BulgeElapsed(g *genome.Genome, guides []dna.Pattern, p BulgeParams) ([]BulgeSite, float64, error) {
	var sites []BulgeSite
	sec, err := metrics.MeasureSeconds(func() error {
		var serr error
		sites, serr = SearchBulge(g, guides, p)
		return serr
	})
	return sites, sec, err
}
