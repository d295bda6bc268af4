package seedindex

import (
	"cmp"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"
	"sort"
	"unsafe"
)

// blockSize is the unit in which the seed table is checksummed and read:
// the starts and postings sections each carry one CRC-32C per block, so
// a query reads and checks only the blocks its keys touch.
const blockSize = 4096

// blockWords is the number of uint32 table entries in one block.
const blockWords = blockSize / 4

// mergeGap is the most unneeded blocks one read spans to join two
// needed ones, so that a query needing most of the table makes a few
// large reads. On a 6 Mbp genome, 20 guides at k = 4 read in 64 calls
// rather than 449, and 40 guides at k = 5 in 3 rather than 53. Each
// block spanned costs its copy, CRC and page fault (about 1.2 µs on a
// 2-vCPU Xeon) against about 0.3 µs per ReadAt saved, so the gap stays
// at one block.
const mergeGap = 1

// blockCount is the number of blocks that cover size bytes.
func blockCount(size int) int { return (size + blockSize - 1) / blockSize }

// section is one seed-table section of an index file: its extent and
// the CRC of each of its blocks.
type section struct {
	name string
	off  int64 // file offset
	size int   // bytes, padding included
	crcs []uint32
}

// blockFile reads a loaded index's seed table from the file, block by
// block, checking each block before any of its bytes are used.
type blockFile struct {
	r                io.ReaderAt
	starts, postings section
	count            int   // postings in the table
	maxStart         int64 // the last genome position a seed may start at
}

// extent is the blocks [first, last] of a section one key needs.
type extent struct{ first, last int }

// run is blocks read with one ReadAt: the section's entries from block
// first on.
type run struct {
	first int
	words []uint32
}

// resolve returns the posting list of each key (sorted, no repeats). It
// reads the starts blocks that bound the keys' lists, then the postings
// blocks the lists span, and checks each block it reads against its
// CRC. It then checks each list: its bounds in order and inside the
// postings, its seeds strictly ascending and none past the genome's
// last start. The lists point into the blocks read.
func (f *blockFile) resolve(ctx context.Context, keys []uint32) ([][]uint32, error) {
	need := make([]extent, len(keys))
	for i, k := range keys {
		need[i] = extent{int(k) / blockWords, (int(k) + 1) / blockWords}
	}
	starts, err := f.read(ctx, &f.starts, need)
	if err != nil {
		return nil, err
	}
	bounds := make([][2]uint32, len(keys))
	need = need[:0]
	for i, k := range keys {
		se := entries(starts, int(k), int(k)+2)
		s, e := se[0], se[1]
		if s > e || int(e) > f.count {
			return nil, fmt.Errorf("%w: seed starts of key %d are out of order or past the %d postings", ErrCorrupt, k, f.count)
		}
		bounds[i] = [2]uint32{s, e}
		if s < e {
			need = append(need, extent{int(s) / blockWords, int(e-1) / blockWords})
		}
	}
	postings, err := f.read(ctx, &f.postings, need)
	if err != nil {
		return nil, err
	}
	lists := make([][]uint32, len(keys))
	for i, b := range bounds {
		if b[0] == b[1] {
			continue
		}
		list := entries(postings, int(b[0]), int(b[1]))
		if !validList(list, f.maxStart) {
			return nil, fmt.Errorf("%w: posting list of key %d is not strictly ascending inside the genome", ErrCorrupt, keys[i])
		}
		lists[i] = list
	}
	return lists, nil
}

// read reads every block of sec that an extent of need covers. It sorts
// need (in place) and merges extents at most mergeGap blocks apart into
// runs, reads each run with one ReadAt into one shared buffer, and
// checks every block it reads. ctx is checked before each read. The
// runs come back in block order, and every extent lies inside one run.
func (f *blockFile) read(ctx context.Context, sec *section, need []extent) ([]run, error) {
	if len(need) == 0 {
		return nil, nil
	}
	slices.SortFunc(need, func(a, b extent) int { return cmp.Compare(a.first, b.first) })
	merged := need[:1]
	for _, x := range need[1:] {
		last := &merged[len(merged)-1]
		if x.first <= last.last+mergeGap+1 {
			last.last = max(last.last, x.last)
		} else {
			merged = append(merged, x)
		}
	}
	total := 0
	for _, x := range merged {
		total += sec.words(x)
	}
	buf := make([]uint32, total)
	runs := make([]run, len(merged))
	for i, x := range merged {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("seedindex: reading the %s section canceled: %w", sec.name, err)
		}
		n := sec.words(x)
		runs[i] = run{first: x.first, words: buf[:n:n]}
		buf = buf[n:]
		if err := sec.readBlocks(f.r, x.first, runs[i].words); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// words is the number of entries in the section's blocks x covers (the
// section's last block may be short).
func (s *section) words(x extent) int {
	return (min((x.last+1)*blockSize, s.size) - x.first*blockSize) / 4
}

// readBlocks fills words from the section's block first on with one
// ReadAt and checks each block against its CRC.
func (s *section) readBlocks(r io.ReaderAt, first int, words []uint32) error {
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), 4*len(words))
	if err := readFull(r, raw, s.off+int64(first)*blockSize); err != nil {
		return err
	}
	for b := first; len(raw) > 0; b++ {
		n := min(blockSize, len(raw))
		if crc32.Checksum(raw[:n], crcTable) != s.crcs[b] {
			return fmt.Errorf("%w: %s block %d checksum mismatch", ErrCorrupt, s.name, b)
		}
		raw = raw[n:]
	}
	if !littleEndian {
		for i, v := range words {
			words[i] = bits.ReverseBytes32(v)
		}
	}
	return nil
}

// entries returns the section's entries [lo, hi) from runs read by
// read, which hold them in one run.
func entries(runs []run, lo, hi int) []uint32 {
	b := lo / blockWords
	i := sort.Search(len(runs), func(i int) bool { return runs[i].first > b }) - 1
	base := runs[i].first * blockWords
	return runs[i].words[lo-base : hi-base]
}

// validList reports whether a posting list ascends strictly with every
// seed at or before maxStart. Like seedTable.valid it folds each
// comparison into a wrapped difference whose bit 63 flags a violation,
// so the loop has no branch to mispredict.
//
//crisprlint:hotpath
func validList(list []uint32, maxStart int64) bool {
	if len(list) == 0 {
		return true
	}
	if maxStart < 0 {
		return false
	}
	acc := uint64(maxStart) - uint64(list[len(list)-1])
	for i := 1; i < len(list); i++ {
		acc |= uint64(list[i]) - uint64(list[i-1]) - 1
	}
	return acc>>63 == 0
}

// lists returns the posting list of each key (sorted, no repeats): from
// the file for a loaded index, reading and checking only the blocks the
// keys touch, or from the table in memory for a built one.
func (ix *Index) lists(ctx context.Context, keys []uint32) ([][]uint32, error) {
	if ix.file != nil {
		return ix.file.resolve(ctx, keys)
	}
	return ix.table.lists(keys), nil
}

// Verify proves the whole index. For a loaded index it reads every
// block of the seed table, checks each against its CRC and the padding
// for zeros, and checks the table's structure (seedTable.valid); the
// table then stays in memory, which Encode and Keys need. For a built
// index it checks the structure alone. A query checks only what it
// reads, so Verify is how a caller proves a file intact before trusting
// all of it (genomeindex validate). Verify is not safe to run
// concurrently with Encode, Keys or another Verify; scans may run
// alongside it.
func (ix *Index) Verify() error {
	f := ix.file
	if f == nil {
		if !ix.table.valid(ix.maxStart()) {
			return fmt.Errorf("%w: seed table malformed", ErrCorrupt)
		}
		return nil
	}
	keys := 1 << (2 * uint(ix.SeedLen))
	starts, err := f.starts.readAll(f.r)
	if err != nil {
		return err
	}
	postings, err := f.postings.readAll(f.r)
	if err != nil {
		return err
	}
	// The sections end in zero padding; the CRCs cover it, and requiring
	// it zero keeps the encoding canonical.
	if !allZero(starts[keys+1:]) || !allZero(postings[f.count:]) {
		return fmt.Errorf("%w: seed table padding is not zero", ErrCorrupt)
	}
	t := seedTable{starts: starts[:keys+1], postings: postings[:f.count]}
	if !t.valid(f.maxStart) {
		return fmt.Errorf("%w: seed table malformed (starts not monotone to %d, or a posting list not ascending inside the genome)", ErrCorrupt, f.count)
	}
	ix.table = t
	return nil
}

// readAll reads and checks the whole section.
func (s *section) readAll(r io.ReaderAt) ([]uint32, error) {
	words := make([]uint32, s.size/4)
	return words, s.readBlocks(r, 0, words)
}
