package seedindex

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// DefaultMaxFragmentVariants caps the Hamming-ball enumeration per seed
// fragment. A concrete 10-mer at radius 2 enumerates 436 variants; the
// cap only trips on deeply degenerate guides, which then fall back to
// the linear verify path (exactness is never traded for speed).
const DefaultMaxFragmentVariants = 1 << 16

// verifyChunk is the candidate-batch size handed to the worker pool in
// the probe path. Candidates are sparse, so the unit is much smaller
// than arch.DefaultChunk (which is sized for raw genome positions).
const verifyChunk = 1 << 12

// Options tunes the engine.
type Options struct {
	// SeedLen is the fragment width for the self-indexing mode (ignored
	// when a persistent Index supplies its own). 0 means DefaultSeedLen.
	SeedLen int
	// MaxFragmentVariants caps per-fragment neighborhood enumeration;
	// 0 means DefaultMaxFragmentVariants.
	MaxFragmentVariants int
}

// fragPlan is one precompiled seed fragment of a pattern: its window
// offset, every table key within the per-fragment mismatch radius, and
// each key's place in the engine's sorted key set (Engine.keys), which
// indexes the resolved posting lists.
type fragPlan struct {
	off      int
	variants []uint32
	slots    []int32
}

// specPlan is the compiled query plan for one pattern spec: either a
// fragment probe set, or fallback (linear verify of every position)
// when the spacer is shorter than a seed or the neighborhood exceeds
// the variant cap.
type specPlan struct {
	fallback bool
	frags    []fragPlan
}

// Engine is the seed-index scanner. It runs in one of two modes sharing
// the identical query path: bound to a persistent Index (built offline,
// shared across scans — the index-once-query-millions shape), or
// self-indexing, building a transient table of the one chromosome inside
// the scan so the engine can serve the ordinary Search API with no file —
// which is how the cross-engine parity matrix and differential fuzzing
// exercise the exact same probe/verify code the persistent path uses.
type Engine struct {
	specs     []arch.PatternSpec
	plans     []specPlan
	keys      []uint32 // every variant key of the plans, sorted, no repeats
	idx       *Index   // nil in self-indexing mode
	seedLen   int
	spacerLen int
	site      int
	anyProbed bool
	// Workers is the verify-pool width.
	Workers int

	// rec receives scan metrics; nil disables instrumentation.
	rec *metrics.Recorder

	mu       sync.Mutex
	resolved [][]uint32 // idx's posting list of each key, once read
}

// SetMetrics implements arch.Instrumented.
func (e *Engine) SetMetrics(rec *metrics.Recorder) { e.rec = rec }

// New compiles the pattern set against an optional persistent index
// (nil selects the self-indexing mode).
func New(specs []arch.PatternSpec, idx *Index, opt Options) (*Engine, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("seedindex: no patterns")
	}
	e := &Engine{specs: specs, idx: idx, Workers: 1}
	e.spacerLen = len(specs[0].Spacer)
	e.site = specs[0].SiteLen()
	if e.spacerLen == 0 {
		return nil, fmt.Errorf("seedindex: empty spacer")
	}
	if idx != nil {
		e.seedLen = idx.SeedLen
	} else {
		e.seedLen = opt.SeedLen
		if e.seedLen == 0 {
			e.seedLen = DefaultSeedLen
		}
		if e.seedLen > e.spacerLen && e.spacerLen >= MinSeedLen {
			e.seedLen = e.spacerLen
		}
	}
	if err := checkSeedLen(e.seedLen); err != nil {
		return nil, err
	}
	variantCap := opt.MaxFragmentVariants
	if variantCap == 0 {
		variantCap = DefaultMaxFragmentVariants
	}
	e.plans = make([]specPlan, len(specs))
	for i := range specs {
		spec := &specs[i]
		if len(spec.Spacer) != e.spacerLen || spec.SiteLen() != e.site {
			return nil, fmt.Errorf("seedindex: pattern %d geometry differs from pattern 0", i)
		}
		if spec.K < 0 || spec.K > e.spacerLen {
			return nil, fmt.Errorf("seedindex: pattern %d budget %d out of range", i, spec.K)
		}
		e.plans[i] = compilePlan(spec, e.seedLen, variantCap)
		if !e.plans[i].fallback {
			e.anyProbed = true
		}
	}
	e.keys = slotKeys(e.plans, e.seedLen)
	return e, nil
}

// slotKeys returns every variant key of the plans in ascending order
// without repeats, and sets each fragment's slots to its variants'
// places in that list. Keys lie below 4^seedLen, so it marks them in a
// bitmap and ranks each with a popcount rather than sorting them: a
// 120-guide query at k = 5 has about 200,000 variants.
func slotKeys(plans []specPlan, seedLen int) []uint32 {
	set := make([]uint64, (1<<(2*uint(seedLen))+63)/64)
	variants := 0
	for i := range plans {
		for _, fr := range plans[i].frags {
			for _, k := range fr.variants {
				set[k/64] |= 1 << (k % 64)
			}
			variants += len(fr.variants)
		}
	}
	rank := make([]int32, len(set)) // keys in the words before each word
	var keys []uint32
	for w, word := range set {
		rank[w] = int32(len(keys))
		for b := word; b != 0; b &= b - 1 {
			keys = append(keys, uint32(64*w+bits.TrailingZeros64(b)))
		}
	}
	slots := make([]int32, variants)
	for i := range plans {
		for j := range plans[i].frags {
			fr := &plans[i].frags[j]
			fr.slots, slots = slots[:len(fr.variants):len(fr.variants)], slots[len(fr.variants):]
			for v, k := range fr.variants {
				below := set[k/64] & (1<<(k%64) - 1)
				fr.slots[v] = rank[k/64] + int32(bits.OnesCount64(below))
			}
		}
	}
	return keys
}

// compilePlan splits a spec's spacer into J = floor(L/S) disjoint
// fragments at offsets floor(j*L/J) and enumerates each fragment's
// Hamming ball at radius floor(K/J). The pigeonhole argument in the
// package comment guarantees any window within the total budget matches
// at least one fragment within its radius.
func compilePlan(spec *arch.PatternSpec, seedLen, variantCap int) specPlan {
	l := len(spec.Spacer)
	j := l / seedLen
	if j == 0 {
		return specPlan{fallback: true}
	}
	r := spec.K / j
	spacerOff := spec.SpacerOffset()
	frags := make([]fragPlan, 0, j)
	for f := 0; f < j; f++ {
		start := f * l / j
		variants, ok := enumerateFragment(spec.Spacer[start:start+seedLen], r, variantCap)
		if !ok {
			return specPlan{fallback: true}
		}
		frags = append(frags, fragPlan{off: spacerOff + start, variants: variants})
	}
	return specPlan{frags: frags}
}

// enumerateFragment lists every concrete seedLen-mer within Hamming
// distance radius of the fragment pattern, as table keys in
// dna.KmerOf orientation. Bases inside a position's mask cost nothing
// (IUPAC N never spends budget), so the enumeration covers exactly the
// fragment's radius-r language. ok is false once the cap is exceeded.
func enumerateFragment(frag dna.Pattern, radius, variantCap int) (keys []uint32, ok bool) {
	ok = true
	var rec func(pos int, key uint32, used int)
	rec = func(pos int, key uint32, used int) {
		if !ok {
			return
		}
		if pos == len(frag) {
			if len(keys) >= variantCap {
				ok = false
				return
			}
			keys = append(keys, key)
			return
		}
		m := frag[pos]
		for b := dna.A; b <= dna.T; b++ {
			cost := 1
			if m.Has(b) {
				cost = 0
			}
			if used+cost > radius {
				continue
			}
			rec(pos+1, key<<2|uint32(b), used+cost)
		}
	}
	rec(0, 0, 0)
	if !ok {
		return nil, false
	}
	return keys, true
}

// Name implements arch.Engine.
func (e *Engine) Name() string { return "seed-index" }

// cand is one (pattern, window start) pair awaiting verification.
type cand struct {
	spec int32
	pos  int32
}

// ScanChrom implements arch.Engine. Probing is cheap and runs inline;
// candidate verification and the fallback position sweeps drain
// through the arch.ChunkScan worker pool, which bounds cancellation
// latency, isolates worker panics, and returns batches in chunk order
// so emission is deterministic.
func (e *Engine) ScanChrom(ctx context.Context, c *genome.Chromosome, emit func(automata.Report)) error {
	seq := c.Seq
	if len(seq) < e.site {
		return nil
	}
	lists, lo, err := e.listsFor(ctx, c)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("seedindex: %s canceled before probing: %w", c.Name, err)
	}
	workers := e.Workers
	if workers > runtime.NumCPU() {
		workers = runtime.NumCPU()
	}

	// Probe phase: collect deduplicated candidate windows per spec, in
	// spec order then position order.
	var cands []cand
	var probes int64
	var scratch []int32
	for si := range e.plans {
		plan := &e.plans[si]
		if plan.fallback {
			continue
		}
		scratch = scratch[:0]
		for fi := range plan.frags {
			scratch = e.probe(lists, &plan.frags[fi], lo, len(seq), scratch)
		}
		probes += int64(len(scratch))
		slices.Sort(scratch)
		for i, p := range scratch {
			if i > 0 && scratch[i-1] == p {
				continue
			}
			cands = append(cands, cand{spec: int32(si), pos: p})
		}
	}
	e.rec.Add(metrics.CounterCandidateWindows, probes)

	// Verify phase: candidates first, then any fallback sweeps.
	if len(cands) > 0 {
		chunks, err := arch.ChunkScan(ctx, "seed-index verify "+c.Name, workers, len(cands), verifyChunk, e.rec,
			//crisprlint:hotpath
			func(lo, hi int, out *[]automata.Report) error {
				var pamHits, verifs int64
				// Ranging over the chunk's own sub-slice (rather than
				// indexing cands by lo..hi) lets the compiler drop the
				// per-candidate bounds check.
				batch := cands[lo:hi]
				for i := range batch {
					cd := batch[i]
					e.verifyPos(seq, &e.specs[cd.spec], int(cd.pos), out, &pamHits, &verifs)
				}
				e.rec.Add(metrics.CounterPrefilterHits, pamHits)
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
	}
	for si := range e.plans {
		if !e.plans[si].fallback {
			continue
		}
		spec := &e.specs[si]
		total := len(seq) - e.site + 1
		chunks, err := arch.ChunkScan(ctx, "seed-index sweep "+c.Name, workers, total, arch.DefaultChunk, e.rec,
			//crisprlint:hotpath
			func(lo, hi int, out *[]automata.Report) error {
				var pamHits, verifs int64
				for p := lo; p < hi; p++ {
					e.verifyPos(seq, spec, p, out, &pamHits, &verifs)
				}
				e.rec.Add(metrics.CounterCandidateWindows, int64(hi-lo))
				e.rec.Add(metrics.CounterPrefilterHits, pamHits)
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
	}
	return nil
}

// probe appends to scratch the start of every window of an n-base
// chromosome at genome offset lo that one of fr's variants seeds;
// lists holds the posting list of each key of Engine.keys. A key's
// posting list spans the whole genome, so two binary searches cut it to
// this chromosome first.
//
//crisprlint:hotpath
func (e *Engine) probe(lists [][]uint32, fr *fragPlan, lo uint32, n int, scratch []int32) []int32 {
	hi := lo + uint32(n)
	off, site := fr.off, e.site
	for _, s := range fr.slots {
		list := lists[s]
		a, _ := slices.BinarySearch(list, lo)
		b, _ := slices.BinarySearch(list, hi)
		for _, gp := range list[a:b] {
			p := int(gp-lo) - off
			if p < 0 || p+site > n {
				continue
			}
			//crisprlint:allow hotpath the scratch buffer is reused across fragments and specs of a scan, so it grows only to the largest candidate count
			scratch = append(scratch, int32(p))
		}
	}
	return scratch
}

// listsFor returns the posting list of each of the engine's keys for
// a chromosome, and the genome offset of its base 0. Bound to a
// persistent index it fails closed if the chromosome is missing or its
// length or content hash disagrees — a stale or foreign index must
// never scan. The SHA-256 recheck is skipped only when the chromosome
// carries the index's own packed planes (from ix.Genome(), or the
// genome Build was given): those are the CRC-checked or freshly packed
// bytes the index describes. Any other sequence, such as one read from
// -genome, is hashed. The lists themselves are resolved once per engine
// (resolve). In self-indexing mode it builds a transient table on the
// spot; when every plan is a fallback sweep no table is needed at all.
func (e *Engine) listsFor(ctx context.Context, c *genome.Chromosome) ([][]uint32, uint32, error) {
	if e.idx != nil {
		ci := e.idx.chrom(c.Name)
		if ci == nil {
			return nil, 0, fmt.Errorf("%w: chromosome %q not in index", ErrStale, c.Name)
		}
		if ci.SeqLen != len(c.Seq) {
			return nil, 0, fmt.Errorf("%w: chromosome %q is %d bases in the index, %d in the genome", ErrStale, c.Name, ci.SeqLen, len(c.Seq))
		}
		// Content hash too: a same-shape edit must fail closed here, not
		// silently drop the candidates the stale table no longer lists.
		if c.Packed != ci.Packed && seqSHA(c.Seq) != ci.SeqSHA {
			return nil, 0, fmt.Errorf("%w: chromosome %q content differs from the indexed reference", ErrStale, c.Name)
		}
		lists, err := e.resolve(ctx)
		return lists, ci.off, err
	}
	if !e.anyProbed {
		return nil, 0, nil
	}
	t := buildTable([]dna.Seq{c.Seq}, e.seedLen)
	return t.lists(e.keys), 0, nil
}

// resolve returns the persistent index's posting list of every key,
// reading them in one batch under the first scan's ctx and keeping them
// for the engine's later scans. A read that fails is not kept, so the
// next scan reads again.
func (e *Engine) resolve(ctx context.Context) ([][]uint32, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.resolved == nil {
		lists, err := e.idx.lists(ctx, e.keys)
		if err != nil {
			return nil, err
		}
		e.resolved = lists
	}
	return e.resolved, nil
}

// verifyPos applies the full exact-match semantics shared by every
// engine to one candidate window: PAM acceptance, the
// ambiguous-window skip, and the complete spacer Hamming count. Probes
// only ever add candidates, so a defective table can cause misses (and
// those are caught by hash validation), never false hits.
//
//crisprlint:hotpath
func (e *Engine) verifyPos(seq dna.Seq, spec *arch.PatternSpec, p int, out *[]automata.Report, pamHits, verifs *int64) {
	pam := spec.PAM
	pamOff := p + spec.PAMOffset()
	for i, m := range pam {
		if !m.Has(seq[pamOff+i]) {
			return
		}
	}
	*pamHits++
	spacerOff := p + spec.SpacerOffset()
	window := seq[spacerOff : spacerOff+e.spacerLen]
	if window.HasAmbiguous() {
		return
	}
	*verifs++
	if spec.Spacer.Mismatches(window) > spec.K {
		return
	}
	//crisprlint:allow hotpath match reports are rare relative to candidates; the batch grows amortized
	*out = append(*out, automata.Report{Code: spec.Code, End: p + e.site - 1})
}
