// Package casoffinder reimplements the Cas-OFFinder algorithm (Bae,
// Park & Kim, Bioinformatics 2014), the GPU baseline the paper compares
// against. The algorithm is a two-step brute force over every genome
// position: (1) test the PAM pattern at the candidate window's PAM side,
// (2) if it matches, count spacer mismatches against every guide with
// early exit at the budget. Both strands are covered in one forward
// pass: plus-strand patterns carry the PAM on the right, minus-strand
// patterns (reverse-complemented by the orchestrator) carry it on the
// left, exactly as Cas-OFFinder matches NGG and CCN simultaneously.
//
// Cas-OFFinder parallelizes the position loop with OpenCL; here the same
// data parallelism is expressed with worker goroutines over genome
// chunks, and the inner comparison uses the 2-bit packed XOR + popcount
// form. A separate analytic GPU throughput model (gpu.go) predicts
// device timing for the paper's figures.
package casoffinder

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// compiledGuide is the packed comparison form of one spec.
type compiledGuide struct {
	word     uint64 // packed spacer (arbitrary bases at degenerate positions)
	laneMask uint64 // 2-bit lanes of concrete spacer positions
	k        int
	code     int32
}

// group holds the guides sharing one (PAM, orientation) pair.
type group struct {
	key       string // PAM string, "<"-prefixed for PAM-left
	guides    []compiledGuide
	pam       dna.Pattern
	pamT      [][5]bool
	pamOff    int // window offset of the PAM
	spacerOff int // window offset of the spacer
}

// Engine is a compiled Cas-OFFinder-style scanner. All specs must share
// a spacer length; guides are batched into one group per distinct
// (PAM, orientation) pair, so searches mixing PAM types (NGG plus NAG)
// run in a single pass, as Cas-OFFinder's multi-PAM batches do.
type Engine struct {
	groups    []group
	spacerLen int
	siteLen   int
	numGuides int
	// Workers is the data-parallel width (1 = faithful single-queue;
	// larger mirrors the GPU's position parallelism).
	Workers int

	// chunkHook, when set, runs at the start of every pool chunk with
	// the chunk's [lo, hi) candidate-position bounds. Tests use it to
	// inject panics and trigger cancellation; it is nil in production.
	chunkHook func(lo, hi int)

	// rec receives scan metrics; nil disables instrumentation. Counts
	// accumulate locally per chunk and flush with one atomic add each.
	rec *metrics.Recorder
}

// SetMetrics implements arch.Instrumented.
func (e *Engine) SetMetrics(rec *metrics.Recorder) { e.rec = rec }

// New compiles the pattern set.
func New(specs []arch.PatternSpec, workers int) (*Engine, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("casoffinder: no patterns")
	}
	e := &Engine{Workers: workers}
	e.spacerLen = len(specs[0].Spacer)
	e.siteLen = specs[0].SiteLen()
	if e.spacerLen == 0 || e.spacerLen > 32 {
		return nil, fmt.Errorf("casoffinder: spacer length %d out of range 1..32", e.spacerLen)
	}
	for i, spec := range specs {
		if len(spec.Spacer) != e.spacerLen || spec.SiteLen() != e.siteLen {
			return nil, fmt.Errorf("casoffinder: pattern %d geometry differs from pattern 0", i)
		}
		if spec.K < 0 || spec.K > e.spacerLen {
			return nil, fmt.Errorf("casoffinder: pattern %d budget %d out of range", i, spec.K)
		}
		key := spec.PAM.String()
		if spec.PAMLeft {
			key = "<" + key
		}
		gi := -1
		for j := range e.groups {
			if e.groups[j].key == key {
				gi = j
				break
			}
		}
		if gi < 0 {
			gi = len(e.groups)
			e.groups = append(e.groups, group{
				key:       key,
				pam:       spec.PAM,
				pamT:      pamTable(spec.PAM),
				pamOff:    spec.PAMOffset(),
				spacerOff: spec.SpacerOffset(),
			})
		}
		g := &e.groups[gi]
		var cg compiledGuide
		cg.k = spec.K
		cg.code = spec.Code
		for pos, mask := range spec.Spacer {
			switch mask.Count() {
			case 1:
				var b dna.Base
				for b = dna.A; b <= dna.T; b++ {
					if mask.Has(b) {
						break
					}
				}
				cg.word |= uint64(b) << uint(2*pos)
				cg.laneMask |= 3 << uint(2*pos)
			case 4:
				// N position: excluded from comparison entirely.
			default:
				return nil, fmt.Errorf("casoffinder: pattern %d has a partially degenerate spacer position (%s); only concrete or N supported", i, mask)
			}
		}
		g.guides = append(g.guides, cg)
		e.numGuides++
	}
	return e, nil
}

// Name implements arch.Engine.
func (e *Engine) Name() string { return "cas-offinder" }

// pamTable precomputes, for each PAM position, the acceptance of each
// base code (index 4 = ambiguous -> reject).
func pamTable(pam dna.Pattern) [][5]bool {
	t := make([][5]bool, len(pam))
	for i, m := range pam {
		for b := dna.A; b <= dna.T; b++ {
			t[i][b] = m.Has(b)
		}
	}
	return t
}

func codeOf(b dna.Base) int {
	if b > dna.T {
		return 4
	}
	return int(b)
}

// ScanChrom implements arch.Engine: candidate window positions drain
// through the arch.ChunkScan worker pool, which checks ctx between
// chunks (so cancellation latency is bounded by arch.DefaultChunk
// positions) and isolates worker panics into errors naming the chunk.
func (e *Engine) ScanChrom(ctx context.Context, c *genome.Chromosome, emit func(automata.Report)) error {
	total := len(c.Seq) - e.siteLen + 1
	if total <= 0 {
		return nil
	}
	workers := e.Workers
	if workers > runtime.NumCPU() {
		workers = runtime.NumCPU()
	}
	chunks, err := arch.ChunkScan(ctx, e.Name()+" "+c.Name, workers, total, arch.DefaultChunk, e.rec,
		//crisprlint:hotpath
		func(lo, hi int, out *[]automata.Report) error {
			if h := e.chunkHook; h != nil {
				h(lo, hi)
			}
			var hits, verifs int64
			*out, hits, verifs = e.scanSpan(c, lo, hi)
			e.rec.Add(metrics.CounterCandidateWindows, int64(hi-lo))
			e.rec.Add(metrics.CounterPrefilterHits, hits)
			e.rec.Add(metrics.CounterVerifications, verifs)
			return nil
		})
	if err != nil {
		return err
	}
	for _, rs := range chunks {
		for _, r := range rs {
			emit(r)
		}
	}
	return nil
}

// scanSpan tests candidate window starts in [lo, hi). Alongside the
// match reports it returns the counts of PAM hits (step-1 survivors)
// and per-guide spacer verifications, accumulated locally so the
// caller flushes them to the metrics recorder once per chunk.
//
//crisprlint:hotpath
func (e *Engine) scanSpan(c *genome.Chromosome, lo, hi int) (out []automata.Report, hits, verifs int64) {
	for p := lo; p < hi; p++ {
		for gi := range e.groups {
			var h, v int64
			out, h, v = e.scanGroup(&e.groups[gi], c, p, out)
			hits += h
			verifs += v
		}
	}
	return out, hits, verifs
}

//crisprlint:hotpath
func (e *Engine) scanGroup(g *group, c *genome.Chromosome, p int, out []automata.Report) ([]automata.Report, int64, int64) {
	if len(g.guides) == 0 {
		return out, 0, 0
	}
	seq := c.Seq
	// Step 1: PAM test (cheap rejection, as in Cas-OFFinder).
	for i := range g.pamT {
		if !g.pamT[i][codeOf(seq[p+g.pamOff+i])] {
			return out, 0, 0
		}
	}
	// Step 2: per-guide packed comparison. Any ambiguous base in the
	// spacer window disqualifies the site for every guide, matching the
	// dead-symbol semantics of the automata engines.
	codes, amb := c.Packed.Window(p+g.spacerOff, e.spacerLen)
	if amb != 0 {
		return out, 1, 0
	}
	for gi := range g.guides {
		cg := &g.guides[gi]
		diff := (codes ^ cg.word) & cg.laneMask
		diff = (diff | diff>>1) & 0x5555555555555555
		if bits.OnesCount64(diff) <= cg.k {
			//crisprlint:allow hotpath match reports are rare relative to positions; the batch grows amortized
			out = append(out, automata.Report{Code: cg.code, End: p + e.siteLen - 1})
		}
	}
	return out, 1, int64(len(g.guides))
}

// Comparisons returns the work a genome of the given size requires (the
// GPU model's unit): PAM tests per position per orientation in use, plus
// spacer comparisons per guide per PAM hit.
func (e *Engine) Comparisons(genomeLen int, pamHitRate float64) (pamTests, spacerCompares float64) {
	positions := float64(genomeLen - e.siteLen + 1)
	if positions < 0 {
		positions = 0
	}
	for gi := range e.groups {
		spacerCompares += positions * pamHitRate * float64(len(e.groups[gi].guides))
	}
	return positions * float64(len(e.groups)), spacerCompares
}
