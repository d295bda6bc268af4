// Package casot reimplements CasOT (Xiao et al., Bioinformatics 2014),
// the single-threaded CPU baseline the paper compares against. CasOT
// walks every genome position, tests the PAM, and counts mismatches in
// the seed (PAM-proximal) and non-seed regions separately against each
// guide — a straightforward interpretive scan, which is why the paper's
// automata approaches beat it by orders of magnitude. The original is a
// Perl script; this Go reimplementation keeps the algorithm and thread
// model (one thread, byte-at-a-time comparisons, no bit packing) but is
// inevitably faster than Perl, which EXPERIMENTS.md accounts for when
// comparing measured ratios with the paper's. Like every engine it
// honors the arch.Engine contract: each per-guide pass checks its
// context every arch.DefaultChunk positions, so a cancel, deadline or
// service drain stops it mid-chromosome.
//
// An additional seed-index variant (index.go) accelerates the same
// search with a genome k-mer index and seed-variant enumeration; it is
// used in the E-series ablations and is not part of the faithful
// baseline.
package casot

import (
	"context"
	"fmt"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// Options configures the seed constraint. CasOT distinguishes the
// PAM-proximal seed region, where mismatches disturb binding most.
type Options struct {
	// SeedLen is the number of PAM-proximal spacer positions treated as
	// seed (CasOT default 12).
	SeedLen int
	// MaxSeedMismatches bounds mismatches inside the seed. Set it to
	// the spec's K to disable the distinction (the setting used for
	// cross-engine equivalence tests).
	MaxSeedMismatches int
}

// DefaultOptions mirrors CasOT's defaults.
var DefaultOptions = Options{SeedLen: 12, MaxSeedMismatches: 2}

// Engine is the faithful scan-and-count baseline.
type Engine struct {
	specs []arch.PatternSpec
	opt   Options

	// rec receives scan metrics; nil disables instrumentation. Being
	// single-threaded, the engine accumulates counts locally and
	// flushes once per chromosome.
	rec *metrics.Recorder
}

// SetMetrics implements arch.Instrumented.
func (e *Engine) SetMetrics(rec *metrics.Recorder) { e.rec = rec }

// New validates the pattern set. All specs must share spacer length and
// PAM (as with Cas-OFFinder, batching is per PAM).
func New(specs []arch.PatternSpec, opt Options) (*Engine, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("casot: no patterns")
	}
	sl := len(specs[0].Spacer)
	for i, spec := range specs {
		if len(spec.Spacer) != sl || spec.SiteLen() != specs[0].SiteLen() {
			return nil, fmt.Errorf("casot: pattern %d geometry differs", i)
		}
		if spec.K < 0 || spec.K > sl {
			return nil, fmt.Errorf("casot: pattern %d budget out of range", i)
		}
	}
	if opt.SeedLen < 0 || opt.SeedLen > sl {
		return nil, fmt.Errorf("casot: seed length %d out of range 0..%d", opt.SeedLen, sl)
	}
	if opt.MaxSeedMismatches < 0 {
		return nil, fmt.Errorf("casot: negative seed budget")
	}
	return &Engine{specs: specs, opt: opt}, nil
}

// Name implements arch.Engine.
func (e *Engine) Name() string { return "casot" }

// ScanChrom implements arch.Engine: single thread, plain byte
// comparisons, and — faithful to the per-guide Perl tool — one full
// chromosome pass per guide, re-testing the PAM each time. The
// deliberately naive cost structure (genome x guides with no sharing) is
// the baseline the paper's 600x accelerator speedups are measured
// against. Each pass checks ctx every arch.DefaultChunk positions, so a
// cancelled scan stops mid-chromosome; it emits as it goes, so the
// events of a cancelled scan are partial.
//
//crisprlint:hotpath
func (e *Engine) ScanChrom(ctx context.Context, c *genome.Chromosome, emit func(automata.Report)) error {
	seq := c.Seq
	spacerLen := len(e.specs[0].Spacer)
	site := e.specs[0].SiteLen()
	windows := len(seq) - site + 1
	// Candidate windows for CasOT are positions x patterns: each pattern
	// rescans the chromosome, which is its defining cost structure.
	var candidates, pamHits, verifs int64
	for si := range e.specs {
		spec := &e.specs[si]
		pamOff := spec.PAMOffset()
		spacerOff := spec.SpacerOffset()
		// Hoist the per-spec pattern slices out of the position loop: the
		// emit call makes every spec field reload otherwise. The re-slice
		// pins len(spacer) to spacerLen (New validates the geometry) so
		// the byte loop below runs check-free.
		pam := spec.PAM
		spacer := spec.Spacer
		spacer = spacer[:spacerLen]
		// One table per spec per chromosome. Hoisting this into the Engine
		// was tried and measured ~10% slower (the fresh cache-hot table
		// wins in the inner loop), so the allocation stays, amortized over
		// the whole position loop; perfgate carries it in the baseline.
		inSeed := seedMembership(spacerLen, e.opt.SeedLen, spec.PAMLeft)
		inSeed = inSeed[:spacerLen]
		for lo := 0; lo < windows; lo += arch.DefaultChunk {
			//crisprlint:allow loopinvariant ctx.Err changes when the caller cancels; it runs once per chunk, not per position
			if err := ctx.Err(); err != nil {
				e.count(candidates, pamHits, verifs)
				return fmt.Errorf("casot: scan canceled: %w", err)
			}
			hi := min(lo+arch.DefaultChunk, windows)
			for p := lo; p < hi; p++ {
				candidates++
				if !pamOK(pam, seq[p+pamOff:p+pamOff+len(pam)]) {
					continue
				}
				pamHits++
				window := seq[p+spacerOff : p+spacerOff+spacerLen]
				if window.HasAmbiguous() {
					continue
				}
				window = window[:spacerLen]
				verifs++
				total, seed := 0, 0
				ok := true
				for i := 0; i < spacerLen; i++ {
					if !spacer[i].Has(window[i]) {
						total++
						if inSeed[i] {
							seed++
						}
						if total > spec.K || seed > e.opt.MaxSeedMismatches {
							ok = false
							break
						}
					}
				}
				if ok {
					emit(automata.Report{Code: spec.Code, End: p + site - 1})
				}
			}
		}
	}
	e.count(candidates, pamHits, verifs)
	return nil
}

// count flushes one scan's locally accumulated counters into the
// recorder.
func (e *Engine) count(candidates, pamHits, verifs int64) {
	e.rec.Add(metrics.CounterCandidateWindows, candidates)
	e.rec.Add(metrics.CounterPrefilterHits, pamHits)
	e.rec.Add(metrics.CounterVerifications, verifs)
}

// seedMembership marks the PAM-proximal seedLen spacer positions: the 3'
// end for PAM-right patterns, the 5' end for PAM-left (minus strand)
// patterns.
func seedMembership(spacerLen, seedLen int, pamLeft bool) []bool {
	in := make([]bool, spacerLen)
	for i := 0; i < seedLen && i < spacerLen; i++ {
		if pamLeft {
			in[i] = true
		} else {
			in[spacerLen-1-i] = true
		}
	}
	return in
}

func pamOK(pam dna.Pattern, w dna.Seq) bool {
	for i, m := range pam {
		if !m.Has(w[i]) {
			return false
		}
	}
	return true
}
