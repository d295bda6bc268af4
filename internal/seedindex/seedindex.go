// Package seedindex implements the index-once, query-millions path: a
// persistent, versioned genome seed index (packed 2-bit sequence plus
// one genome-wide direct-address k-mer table with per-seed posting
// lists) and the pigeonhole query engine that consumes it.
//
// The index inverts the cost model of every full-scan engine. Building
// is O(genome) and happens once, offline (cmd/genomeindex); a query for
// a guide set then splits each spacer into disjoint seed fragments,
// probes the table with every fragment variant inside the per-fragment
// mismatch radius, and verifies only the candidate loci the probes
// surface — so a scan touches O(candidates) genome positions instead of
// all of them. Candidates are always re-verified against the live
// sequence (PAM match, ambiguity skip, full-spacer Hamming count), which
// makes false positives structurally impossible; the pigeonhole split
// (see the pigeonhole guarantee below) makes false negatives impossible
// too, so the engine is hit-for-hit identical to the full-scan engines.
//
// Pigeonhole guarantee: a spacer of length L is covered by J =
// floor(L/S) disjoint fragments of S bases each, and every fragment is
// probed within Hamming radius r = floor(K/J). If a window had more than
// r mismatches in every fragment, its total would be at least
// J*(r+1) = J*floor(K/J) + J >= K + 1, exceeding the budget — so every
// reportable window is found through at least one fragment. Fragments
// that would enumerate more than the variant cap (deeply degenerate
// guides, or spacers shorter than one seed) fall back to a linear
// verify of every position for that pattern, preserving exactness.
package seedindex

import (
	"crypto/sha256"
	"fmt"
	"io"

	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

// DefaultSeedLen is the seed-table k-mer width used when the caller does
// not choose one: long enough that random probes are selective
// (4^10 ≈ 10^6 distinct keys), short enough that a 20 nt spacer yields
// two fragments and radius floor(k/2) stays enumerable for k ≤ 5.
const DefaultSeedLen = 10

// Seed-length bounds: seeds shorter than 4 would make posting lists
// uselessly dense, and the direct-address table holds 4^L+1 uint32
// starts, so L = 12 already costs 64 MiB.
const (
	MinSeedLen = 4
	MaxSeedLen = 12
)

// MaxGenomeLen bounds the indexed genome's total length: postings are
// uint32 genome-wide positions. hg38's 3.1 Gbp fits.
const MaxGenomeLen = 1<<32 - 1

// Index is a loaded (or freshly built) genome seed index: per
// chromosome, the packed 2-bit sequence, plus one genome-wide seed
// table. A built index holds its table in memory; a loaded one reads
// table blocks from its file as queries need them (and holds the whole
// table after Verify). Scans never change it, so it is safe to share
// across concurrent scans — the scanserve genome cache keeps one per
// reference.
type Index struct {
	// SeedLen is the k-mer width of the seed table.
	SeedLen int
	// Chroms holds the per-chromosome sections in genome order.
	Chroms []ChromIndex

	table  seedTable  // the whole table in memory: built, or read by Verify
	file   *blockFile // a loaded index's table reader; nil for a built one
	closer io.Closer  // the file Load opened
	byName map[string]int
}

// ChromIndex is one chromosome's section of the index.
type ChromIndex struct {
	// Name is the chromosome identifier (FASTA record ID).
	Name string
	// SeqLen is the sequence length in bases.
	SeqLen int
	// SeqSHA is the SHA-256 of the canonical base-code sequence
	// (A=0,C=1,G=2,T=3, every ambiguous character as BadBase), the
	// stale-index detector: a reference edited in place no longer
	// matches and the index fails closed.
	SeqSHA [32]byte
	// Packed is the 2-bit packed sequence with ambiguity bitmap.
	Packed *dna.Packed

	off uint32 // genome-wide position of base 0
}

// seedTable is the seed lookup structure shared by Build, Read and the
// self-indexing mode: a direct-address starts array of 4^L+1 entries
// and the postings array of seed start positions (genome-wide, each
// sequence following the previous one), ascending within each key. A
// key's postings are postings[starts[key]:starts[key+1]].
type seedTable struct {
	starts   []uint32
	postings []uint32
}

// lookup returns the posting list (seed start positions) for key.
func (t *seedTable) lookup(key uint32) []uint32 {
	return t.postings[t.starts[key]:t.starts[key+1]]
}

// lists returns the posting list of each key.
func (t *seedTable) lists(keys []uint32) [][]uint32 {
	out := make([][]uint32, len(keys))
	for i, k := range keys {
		out[i] = t.lookup(k)
	}
	return out
}

// buildTable indexes every fully concrete seedLen-mer of seqs by its
// genome-wide start, with a two-pass counting sort: count each key,
// prefix-sum the counts into starts, then place each position at its
// key's cursor. Positions are placed in ascending order, so every
// posting list comes out sorted. K-mers touching an ambiguous base are
// skipped — sound, because engines never report windows containing
// ambiguous bases, so every reportable window's seed fragments are
// concrete and indexed — and no k-mer spans two sequences.
func buildTable(seqs []dna.Seq, seedLen int) seedTable {
	keys := 1 << (2 * uint(seedLen))
	starts := make([]uint32, keys+1)
	for _, seq := range seqs {
		r := newRoller(seedLen)
		for _, b := range seq {
			if r.push(b) {
				starts[r.key+1]++
			}
		}
	}
	for k := 1; k <= keys; k++ {
		starts[k] += starts[k-1]
	}
	postings := make([]uint32, starts[keys])
	off := uint32(0)
	for _, seq := range seqs {
		r := newRoller(seedLen)
		for i, b := range seq {
			if r.push(b) {
				postings[starts[r.key]] = off + uint32(i+1-seedLen)
				starts[r.key]++
			}
		}
		off += uint32(len(seq))
	}
	// Placing advanced each cursor to its key's end, which is the next
	// key's start: shift back by one.
	copy(starts[1:], starts[:keys])
	starts[0] = 0
	return seedTable{starts: starts, postings: postings}
}

// roller maintains the 2-bit key of the last seedLen bases.
type roller struct {
	key, mask uint32
	valid     int // trailing concrete bases accumulated
	seedLen   int
}

func newRoller(seedLen int) roller {
	return roller{mask: uint32(1)<<(2*uint(seedLen)) - 1, seedLen: seedLen}
}

// push shifts b in and reports whether key now holds a concrete seed.
func (r *roller) push(b dna.Base) bool {
	if b > dna.T {
		r.valid = 0
		return false
	}
	r.key = (r.key<<2 | uint32(b)) & r.mask
	r.valid++
	return r.valid >= r.seedLen
}

// seqSHA canonicalizes and hashes a base-code sequence.
func seqSHA(seq dna.Seq) [32]byte {
	buf := make([]byte, len(seq))
	for i, b := range seq {
		buf[i] = byte(b)
	}
	return sha256.Sum256(buf)
}

// checkSeedLen rejects a seed length outside MinSeedLen..MaxSeedLen.
func checkSeedLen(seedLen int) error {
	if seedLen < MinSeedLen || seedLen > MaxSeedLen {
		return fmt.Errorf("seedindex: seed length %d out of range %d..%d", seedLen, MinSeedLen, MaxSeedLen)
	}
	return nil
}

// checkGenomeLen rejects a genome whose total length overflows the
// uint32 postings.
func checkGenomeLen(total uint64) error {
	if total > MaxGenomeLen {
		return fmt.Errorf("seedindex: genome of %d bases exceeds the index limit of %d (2^32-1)", total, uint64(MaxGenomeLen))
	}
	return nil
}

// Build constructs the full index for a genome. The result is
// deterministic: two builds of the same genome are byte-identical once
// encoded (no timestamps, genome-order chromosomes and postings).
func Build(g *genome.Genome, seedLen int) (*Index, error) {
	if g == nil {
		return nil, fmt.Errorf("seedindex: nil genome")
	}
	if seedLen == 0 {
		seedLen = DefaultSeedLen
	}
	if err := checkSeedLen(seedLen); err != nil {
		return nil, err
	}
	var total uint64
	for i := range g.Chroms {
		total += uint64(len(g.Chroms[i].Seq))
	}
	if err := checkGenomeLen(total); err != nil {
		return nil, err
	}
	ix := &Index{SeedLen: seedLen, byName: make(map[string]int, len(g.Chroms))}
	seqs := make([]dna.Seq, len(g.Chroms))
	off := uint32(0)
	for i := range g.Chroms {
		c := &g.Chroms[i]
		if _, dup := ix.byName[c.Name]; dup {
			return nil, fmt.Errorf("seedindex: duplicate chromosome %q", c.Name)
		}
		packed := c.Packed
		if packed == nil {
			packed = dna.Pack(c.Seq)
		}
		ix.byName[c.Name] = len(ix.Chroms)
		ix.Chroms = append(ix.Chroms, ChromIndex{
			Name:   c.Name,
			SeqLen: len(c.Seq),
			SeqSHA: seqSHA(c.Seq),
			Packed: packed,
			off:    off,
		})
		seqs[i] = c.Seq
		off += uint32(len(c.Seq))
	}
	ix.table = buildTable(seqs, seedLen)
	return ix, nil
}

// chrom returns the section for name, or nil if the index lacks it.
func (ix *Index) chrom(name string) *ChromIndex {
	i, ok := ix.byName[name]
	if !ok {
		return nil
	}
	return &ix.Chroms[i]
}

// memTable returns the whole seed table, which a loaded index holds
// only after Verify; asking for it before is a caller bug.
func (ix *Index) memTable() *seedTable {
	if ix.table.starts == nil {
		panic("seedindex: a loaded index holds its whole seed table only after Verify")
	}
	return &ix.table
}

// maxStart is the last genome-wide position a seed can start at.
func (ix *Index) maxStart() int64 {
	var total int64
	for i := range ix.Chroms {
		total += int64(ix.Chroms[i].SeqLen)
	}
	return total - int64(ix.SeedLen)
}

// Keys returns the number of distinct seed keys in the table. A loaded
// index must be verified first (see Verify).
func (ix *Index) Keys() int {
	starts := ix.memTable().starts
	n := 0
	for k := 1; k < len(starts); k++ {
		if starts[k] != starts[k-1] {
			n++
		}
	}
	return n
}

// Postings returns the total posting-list length of the table: the
// number of concrete seeds in the genome.
func (ix *Index) Postings() int {
	if ix.file != nil {
		return ix.file.count
	}
	return len(ix.table.postings)
}

// ValidateGenome checks that the index exactly describes g: same
// chromosomes in the same order, same lengths, same content hashes. A
// mismatch means the FASTA changed after the index was built (or the
// index belongs to a different reference); scanning with such an index
// could silently miss sites, so callers must fail closed on error.
// Each chromosome it proves equal takes the index's own packed planes,
// so a scan of g with the index hashes no chromosome a second time.
func (ix *Index) ValidateGenome(g *genome.Genome) error {
	if g == nil {
		return fmt.Errorf("seedindex: nil genome")
	}
	if len(g.Chroms) != len(ix.Chroms) {
		return fmt.Errorf("%w: index has %d chromosomes, genome has %d", ErrStale, len(ix.Chroms), len(g.Chroms))
	}
	for i := range g.Chroms {
		c, ci := &g.Chroms[i], &ix.Chroms[i]
		if c.Name != ci.Name {
			return fmt.Errorf("%w: chromosome %d is %q in index, %q in genome", ErrStale, i, ci.Name, c.Name)
		}
		if len(c.Seq) != ci.SeqLen {
			return fmt.Errorf("%w: chromosome %q length %d in index, %d in genome", ErrStale, c.Name, ci.SeqLen, len(c.Seq))
		}
		if seqSHA(c.Seq) != ci.SeqSHA {
			return fmt.Errorf("%w: chromosome %q content hash differs (reference edited after indexing?)", ErrStale, c.Name)
		}
		c.Packed = ci.Packed
	}
	return nil
}

// Genome materializes the reference the index was built from: the index
// is self-contained, so a scan can run without the original FASTA.
// Ambiguous positions come back as the canonical N — exactly how the
// FASTA parser canonicalizes them, so scan output is identical. Each
// chromosome shares the index's own packed planes, which is how the
// engine knows it needs no content-hash recheck.
func (ix *Index) Genome() *genome.Genome {
	chroms := make([]genome.Chromosome, len(ix.Chroms))
	for i := range ix.Chroms {
		c := &ix.Chroms[i]
		chroms[i] = genome.Chromosome{Name: c.Name, Seq: c.Packed.Unpack(), Packed: c.Packed}
	}
	return genome.New(chroms...)
}
