// Package hscan is the study's CPU automata engine — the stand-in for
// Intel HyperScan. Like HyperScan it is a hybrid: the default execution
// path (ModePrefilter) scans the packed genome once for the shared PAM
// literal and confirms each candidate with the pattern's anchored
// mismatch automaton, evaluated bit-parallel. ModeBitap runs the
// unanchored bit-parallel automaton over every position; it scans the
// pattern sets the prefilter cannot compile (ErrPrefilterFit) and is
// the generic-automaton comparator of E4. ModeNFA runs the shared
// bitset NFA simulator, the oracle. It executes for real and is
// wall-clock measured; the paper measured single-thread HyperScan, and
// this engine is likewise single-threaded unless Parallelism > 1. Its
// prefilter path is also the reference scan the modeled platforms
// price.
package hscan

import (
	"context"
	"fmt"
	"runtime"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// Mode selects the execution path.
type Mode int

const (
	// ModeBitap is the register-resident bit-parallel mismatch automaton
	// run unanchored over the whole input, one pass per pattern. It
	// takes any window up to 64 positions, IUPAC spacer positions and
	// k <= maxBitapK.
	ModeBitap Mode = iota
	// ModeNFA runs the shared bitset NFA simulator over the merged
	// automata network.
	ModeNFA
	// ModePrefilter mirrors HyperScan's hybrid architecture: a shared
	// literal prefilter (the PAM, the one literal every pattern
	// contains) scans the input once, and each candidate anchor is
	// confirmed by evaluating the pattern's anchored mismatch automaton
	// bit-parallel (packed XOR/popcount, which computes exactly the
	// lattice automaton's accept condition at that alignment). It runs
	// on the 2-bit packed planes in two stages:
	//
	//   - PAM mask: per 64-position block, lane-equality tests build
	//     one member mask per distinct PAM IUPAC set (ambiguous
	//     positions cleared), and each PAM group ANDs its lanes' masks
	//     into a PAM-hit mask. This is the software form of the paper's
	//     multi-striding: 64 input symbols per step.
	//   - Pigeonhole screen: a window within k mismatches of a guide
	//     equals it exactly on one of k+1 disjoint spacer fragments, so
	//     per-group tables keyed by fragment bases name the only guides
	//     a hit can confirm. This is the paper's prefix merging: guides
	//     sharing a fragment share its lookup.
	//
	// This is the fastest mode and the one the benchmark harness labels
	// "hyperscan": its cost is one shared pass plus work proportional
	// to candidates that pass the screen, not patterns x genome.
	ModePrefilter
)

func (m Mode) String() string {
	switch m {
	case ModeBitap:
		return "bitap"
	case ModeNFA:
		return "nfa"
	case ModePrefilter:
		return "prefilter"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// PatternSpec aliases the engine-independent pattern description.
type PatternSpec = arch.PatternSpec

// maxBitapK is the largest mismatch budget the bitap rows hold.
const maxBitapK = 7

// compiled is the bitap form of one pattern.
type compiled struct {
	eq       [dna.AlphabetSize]uint64 // eq[c] bit i: position i accepts base c
	subsMask uint64                   // bit i: position i may be consumed as a mismatch
	accept   uint64                   // bit L-1
	k        int
	code     int32
	length   int
}

// Engine is a compiled multi-pattern scanner.
type Engine struct {
	mode Mode
	pats []compiled

	// Parallelism > 1 splits each chromosome into overlapping chunks
	// scanned by worker goroutines. The default of 1 mirrors the paper's
	// single-thread HyperScan measurements.
	Parallelism int

	// NFA path state.
	nfa *automata.NFA

	// Prefilter path state: one group per (PAM, orientation), the
	// distinct PAM IUPAC sets the groups' lanes index, and the shared
	// window geometry.
	preGroups []prefilterGroup
	preSets   []dna.Mask
	preSite   int
	preSpacer int

	// Packed bitap state (two patterns per word), built when ModeBitap
	// patterns share geometry.
	packed []packedPair

	// chunkHook, when set, runs at the start of every pool chunk with
	// the chunk's [lo, hi) bounds. Tests use it to inject panics and to
	// trigger cancellation mid-scan; it is nil in production.
	chunkHook func(lo, hi int)

	// rec receives scan metrics; nil (the default) disables
	// instrumentation. Engines flush locally accumulated counts once
	// per chunk, so the hot loops never touch atomics per position.
	rec *metrics.Recorder
}

// SetMetrics implements arch.Instrumented.
func (e *Engine) SetMetrics(rec *metrics.Recorder) { e.rec = rec }

// New compiles the pattern set for the given mode.
func New(specs []PatternSpec, mode Mode) (*Engine, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("hscan: no patterns")
	}
	e := &Engine{mode: mode, Parallelism: 1}
	for i, spec := range specs {
		L := spec.SiteLen()
		if L == 0 || L > 64 {
			return nil, fmt.Errorf("hscan: pattern %d has length %d, need 1..64", i, L)
		}
		if spec.K < 0 || spec.K > len(spec.Spacer) {
			return nil, fmt.Errorf("hscan: pattern %d mismatch budget %d out of range", i, spec.K)
		}
		var c compiled
		c.k = spec.K
		c.code = spec.Code
		c.length = L
		c.accept = 1 << uint(L-1)
		for pos, mask := range spec.Window() {
			for b := dna.A; b <= dna.T; b++ {
				if mask.Has(b) {
					c.eq[b] |= 1 << uint(pos)
				}
			}
		}
		for pos := range spec.Spacer {
			c.subsMask |= 1 << uint(spec.SpacerOffset()+pos)
		}
		e.pats = append(e.pats, c)
	}
	switch mode {
	case ModeBitap:
		for i, p := range e.pats {
			if p.k > maxBitapK {
				return nil, fmt.Errorf("hscan: pattern %d mismatch budget %d is over bitap's %d", i, p.k, maxBitapK)
			}
		}
		e.buildPackedBitap()
	case ModePrefilter:
		if err := e.buildPrefilter(specs); err != nil {
			return nil, err
		}
	case ModeNFA:
		var parts []*automata.NFA
		for _, spec := range specs {
			n, err := automata.CompileHamming(spec.Spacer, automata.CompileOptions{
				MaxMismatches: spec.K, PAM: spec.PAM, PAMLeft: spec.PAMLeft, Code: spec.Code,
			})
			if err != nil {
				return nil, err
			}
			parts = append(parts, n)
		}
		u, err := automata.UnionAll("hscan", parts)
		if err != nil {
			return nil, err
		}
		merged, _ := automata.MergeEquivalent(u)
		e.nfa = merged
	default:
		return nil, fmt.Errorf("hscan: unknown mode %v", mode)
	}
	return e, nil
}

// Name implements arch.Engine.
func (e *Engine) Name() string { return "hyperscan-" + e.mode.String() }

// MaxSiteLen returns the longest compiled pattern (chunk overlap size).
func (e *Engine) MaxSiteLen() int {
	max := 0
	for _, p := range e.pats {
		if p.length > max {
			max = p.length
		}
	}
	return max
}

// ScanChrom implements arch.Engine: the scan honors ctx at chunk
// granularity (arch.DefaultChunk positions) on every execution path.
func (e *Engine) ScanChrom(ctx context.Context, c *genome.Chromosome, emit func(automata.Report)) error {
	if e.mode == ModePrefilter {
		return e.scanChromPrefilter(ctx, c, emit)
	}
	return e.scanParallel(ctx, c.Name, c.Bases(), emit)
}

// workers caps the configured parallelism at the machine width.
func (e *Engine) workers() int {
	w := e.Parallelism
	if w > runtime.NumCPU() {
		w = runtime.NumCPU()
	}
	if w < 1 {
		w = 1
	}
	return w
}

// scanChromPrefilter runs the prefilter path, draining candidate
// anchor positions through the arch.ChunkScan pool (which supplies the
// cancellation checks and worker panic isolation).
func (e *Engine) scanChromPrefilter(ctx context.Context, c *genome.Chromosome, emit func(automata.Report)) error {
	total := c.Packed.Len() - e.preSite + 1
	if total <= 0 {
		return nil
	}
	// The chunk callback hands its batch straight to scanPrefilter —
	// matches append into *out with no per-chunk emit closure between
	// the kernel and the batch.
	chunks, err := arch.ChunkScan(ctx, e.Name()+" "+c.Name, e.workers(), total, arch.DefaultChunk, e.rec,
		//crisprlint:hotpath
		func(lo, hi int, out *[]automata.Report) error {
			if h := e.chunkHook; h != nil {
				h(lo, hi)
			}
			hits, verifs := e.scanPrefilter(c, lo, hi, out)
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

// scanRange scans seq, reporting End positions offset by base.
func (e *Engine) scanRange(seq dna.Seq, base int, emit func(automata.Report)) error {
	switch e.mode {
	case ModeBitap:
		if e.packed != nil {
			e.scanBitapPacked(seq, base, emit)
		} else {
			e.scanBitap(seq, base, emit)
		}
		return nil
	case ModeNFA:
		sim := automata.NewSim(e.nfa)
		sim.Scan(automata.SymbolsOfSeq(seq), func(r automata.Report) {
			r.End += base
			emit(r)
		})
		return nil
	}
	return fmt.Errorf("hscan: unknown mode %v", e.mode)
}

// scanBitap runs the Wu–Manber rows. For every pattern, R[j] bit i means
// "an alignment of the first i+1 pattern positions ends at the current
// symbol with at most j mismatches". PAM positions are excluded from the
// mismatch branch by subsMask, and ambiguous bases clear every row.
//
//crisprlint:hotpath
func (e *Engine) scanBitap(seq dna.Seq, base int, emit func(automata.Report)) {
	var rows [maxBitapK + 1]uint64
	for pi := range e.pats {
		p := &e.pats[pi]
		k := p.k
		for j := 0; j <= k; j++ {
			rows[j] = 0
		}
		eq := &p.eq
		subs := p.subsMask
		accept := p.accept
		for t, b := range seq {
			if b > dna.T {
				for j := 0; j <= k; j++ {
					rows[j] = 0
				}
				continue
			}
			m := eq[b]
			prev := rows[0]
			rows[0] = (prev<<1 | 1) & m
			hit := rows[0]
			for j := 1; j <= k; j++ {
				cur := rows[j]
				rows[j] = (cur<<1|1)&m | (prev<<1|1)&subs
				prev = cur
				hit |= rows[j]
			}
			if hit&accept != 0 {
				emit(automata.Report{Code: p.code, End: base + t})
			}
		}
	}
}

// scanParallel drains the sequence through the arch.ChunkScan pool in
// fixed-size chunks extended left by site-length overlap, deduping the
// overlap region by ownership: a chunk only reports matches whose End
// falls inside its own span. The pool supplies cancellation checks
// between chunks and converts worker panics into errors naming the
// chunk.
func (e *Engine) scanParallel(ctx context.Context, chrom string, seq dna.Seq, emit func(automata.Report)) error {
	overlap := e.MaxSiteLen() - 1
	chunk := arch.DefaultChunk
	if chunk <= overlap {
		chunk = overlap + 1
	}
	chunks, err := arch.ChunkScan(ctx, e.Name()+" "+chrom, e.workers(), len(seq), chunk, e.rec,
		//crisprlint:hotpath
		func(lo, hi int, out *[]automata.Report) error {
			if h := e.chunkHook; h != nil {
				h(lo, hi)
			}
			elo := lo - overlap
			if elo < 0 {
				elo = 0
			}
			// scanRange's emit contract is shared by the bitap and NFA
			// modes, so the ownership filter stays a closure here: one
			// allocation per 64K-position chunk, not per position.
			//crisprlint:allow hotpath one filter closure per chunk; scanRange's emit signature is shared across modes
			err := e.scanRange(seq[elo:hi], elo, func(r automata.Report) {
				if r.End >= lo && r.End < hi {
					//crisprlint:allow hotpath match reports are rare relative to positions; the batch grows amortized
					*out = append(*out, r)
				}
			})
			e.rec.Add(metrics.CounterCandidateWindows, int64(hi-lo))
			return err
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
