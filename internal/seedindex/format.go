package seedindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"unsafe"

	"github.com/cap-repro/crisprscan/internal/checkpoint"
	"github.com/cap-repro/crisprscan/internal/dna"
)

// On-disk layout, version 3 (all integers little-endian):
//
//	header (28 bytes):
//	  [0:4)   magic "CSIX"
//	  [4:8)   format version (uint32)
//	  [8:12)  seed length L (uint32)
//	  [12:16) chromosome count (uint32)
//	  [16:24) TOC byte length (uint64, a multiple of 8)
//	  [24:28) CRC-32C of header bytes [0:24)
//	TOC (tocLen bytes):
//	  per chromosome, in genome order:
//	    nameLen uint32, name [nameLen]byte,
//	    seqLen uint64, seqSHA [32]byte, planesCRC uint32
//	  postingCount uint64
//	  one CRC-32C (uint32) per blockSize bytes of the starts section,
//	    then one per blockSize bytes of the postings section
//	  zero padding to a multiple of 8 bytes
//	TOC CRC-32C over the tocLen bytes (4 bytes)
//	section area (byte 32+tocLen to the end of the file), every section
//	8-byte aligned and sized from the TOC alone:
//	  per chromosome: packed code words [(n+31)/32]uint64, then
//	    ambiguity words [(n+63)/64]uint64
//	  starts [4^L+1]uint32, zero-padded to 8 bytes
//	  postings [postingCount]uint32 (genome-wide positions), zero-padded
//	    to 8 bytes
//
// Each chromosome's planes carry one CRC. The two seed-table sections
// carry one CRC per blockSize block (the last block of a section may be
// short, and the CRCs cover the padding), so a query reads and checks
// only the blocks its keys touch. The header and TOC CRCs make bit rot
// in the metadata, block CRCs included, fail closed before any section
// is trusted, and a file that is not exactly as long as its TOC says is
// corrupt.
const (
	formatMagic   = "CSIX"
	formatVersion = 3
	headerSize    = 28
)

// TOC geometry: the fixed bytes of one chromosome record and of the
// genome-wide tail before its block checksums.
const (
	tocRecordSize = 4 + 8 + 32 + 4
	tocTailSize   = 8
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms that matter.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Sentinel error classes. All index failures are permanent under the
// scan service's taxonomy (retrying cannot fix a corrupt or stale
// file); I/O errors from the underlying reader are wrapped with %w so a
// transient-marked cause keeps its classification.
var (
	// ErrCorrupt marks structural damage: bad magic, checksum
	// mismatch, truncation, or impossible geometry.
	ErrCorrupt = errors.New("seedindex: index corrupt")
	// ErrVersion marks a format-version skew: the file is well-formed
	// but written by an incompatible build.
	ErrVersion = errors.New("seedindex: unsupported index version")
	// ErrStale marks an index whose content hashes no longer match the
	// reference it is asked to serve.
	ErrStale = errors.New("seedindex: index does not match genome")
)

func align8(n int) int { return (n + 7) &^ 7 }

// planesSize is the byte size of an n-base chromosome's packed planes.
func planesSize(n int) int { return 8 * ((n+31)/32 + (n+63)/64) }

// Encode serializes the index to its on-disk byte form. The encoding is
// fully deterministic — no timestamps, map iteration, or padding
// garbage — so two builds of the same genome are byte-identical (the
// build-determinism test pins this). A loaded index holds its seed
// table in memory only after Verify, so encoding one that has not been
// verified is a caller bug and panics.
func (ix *Index) Encode() []byte {
	t := ix.memTable()
	startsSize, postingsSize := align8(4*len(t.starts)), align8(4*len(t.postings))
	tocLen := tocTailSize + 4*(blockCount(startsSize)+blockCount(postingsSize))
	planesTotal := 0
	for i := range ix.Chroms {
		tocLen += tocRecordSize + len(ix.Chroms[i].Name)
		planesTotal += planesSize(ix.Chroms[i].SeqLen)
	}
	tocLen = align8(tocLen)
	areaOff := headerSize + tocLen + 4
	startsOff := areaOff + planesTotal
	postingsOff := startsOff + startsSize
	buf := make([]byte, postingsOff+postingsSize)

	// Sections first, so the TOC can carry their checksums. The buffer
	// starts zeroed, which is the padding.
	off := areaOff
	planeCRCs := make([]uint32, len(ix.Chroms))
	for i := range ix.Chroms {
		words, amb := ix.Chroms[i].Packed.Words()
		end := putUint64s(buf, putUint64s(buf, off, words), amb)
		planeCRCs[i] = crc32.Checksum(buf[off:end], crcTable)
		off = end
	}
	putUint32s(buf, startsOff, t.starts)
	putUint32s(buf, postingsOff, t.postings)

	// Header.
	h := append(buf[:0], formatMagic...)
	h = binary.LittleEndian.AppendUint32(h, formatVersion)
	h = binary.LittleEndian.AppendUint32(h, uint32(ix.SeedLen))
	h = binary.LittleEndian.AppendUint32(h, uint32(len(ix.Chroms)))
	h = binary.LittleEndian.AppendUint64(h, uint64(tocLen))
	binary.LittleEndian.AppendUint32(h, crc32.Checksum(h, crcTable))

	// TOC, then its checksum over the padded length.
	toc := buf[headerSize:headerSize]
	for i := range ix.Chroms {
		c := &ix.Chroms[i]
		toc = binary.LittleEndian.AppendUint32(toc, uint32(len(c.Name)))
		toc = append(toc, c.Name...)
		toc = binary.LittleEndian.AppendUint64(toc, uint64(c.SeqLen))
		toc = append(toc, c.SeqSHA[:]...)
		toc = binary.LittleEndian.AppendUint32(toc, planeCRCs[i])
	}
	toc = binary.LittleEndian.AppendUint64(toc, uint64(len(t.postings)))
	toc = appendBlockCRCs(toc, buf[startsOff:postingsOff])
	appendBlockCRCs(toc, buf[postingsOff:])
	toc = buf[headerSize : headerSize+tocLen]
	binary.LittleEndian.PutUint32(buf[headerSize+tocLen:], crc32.Checksum(toc, crcTable))
	return buf
}

// appendBlockCRCs appends the CRC of each blockSize block of sec (the
// last one may be short).
func appendBlockCRCs(dst, sec []byte) []byte {
	for len(sec) > 0 {
		n := min(blockSize, len(sec))
		dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(sec[:n], crcTable))
		sec = sec[n:]
	}
	return dst
}

// putUint64s writes ws little-endian at buf[off:] and returns the
// offset past them.
func putUint64s(buf []byte, off int, ws []uint64) int {
	for _, w := range ws {
		binary.LittleEndian.PutUint64(buf[off:], w)
		off += 8
	}
	return off
}

// putUint32s writes ws little-endian at buf[off:] and returns the
// offset past them.
func putUint32s(buf []byte, off int, ws []uint32) int {
	for _, w := range ws {
		binary.LittleEndian.PutUint32(buf[off:], w)
		off += 4
	}
	return off
}

// WriteFile encodes the index and writes it crash-safely (temp file,
// fsync, rename): a torn write leaves the previous file intact, never a
// half-written index.
func (ix *Index) WriteFile(path string) error {
	if err := checkpoint.AtomicWriteFile(path, ix.Encode()); err != nil {
		return fmt.Errorf("seedindex: writing %s: %w", path, err)
	}
	return nil
}

// readFull fills buf from offset off, mapping a short read to
// ErrCorrupt (a truncated file) while preserving the underlying error
// chain for classification.
func readFull(r io.ReaderAt, buf []byte, off int64) error {
	got, err := r.ReadAt(buf, off)
	if got == len(buf) {
		return nil
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: truncated at offset %d (wanted %d bytes, file ends after %d)", ErrCorrupt, off, len(buf), got)
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("seedindex: read %d bytes at offset %d: %w", len(buf), off, err)
}

// checkSize proves the file holds at least end bytes (exactly end when
// exact is set) by reading its last byte (and one past it), so that a
// size field is checked against the file before anything is allocated
// for it.
func checkSize(r io.ReaderAt, end int64, exact bool) error {
	var b [2]byte
	want := 1
	if exact {
		want = 2
	}
	got, err := r.ReadAt(b[:want], end-1)
	eof := err == io.EOF || err == io.ErrUnexpectedEOF
	switch {
	case got == 0 && eof:
		return fmt.Errorf("%w: file ends before byte %d its geometry requires", ErrCorrupt, end)
	case got == 2:
		return fmt.Errorf("%w: trailing bytes after byte %d", ErrCorrupt, end)
	case got == 1 && (want == 1 || eof):
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("seedindex: read %d bytes at offset %d: %w", want, end-1, err)
}

// Read opens an index on any io.ReaderAt (a file, or a byte slice
// wrapped in bytes.NewReader). It reads and checks the header, the TOC
// with its block checksums and every chromosome's planes. A probe of
// the file's extent (checkSize) precedes each allocation sized from the
// file, and the file must be exactly as long as the TOC says. It reads
// nothing of the seed
// table: a query reads the table blocks its keys touch and checks each
// against the checksums read here before using it, and Verify proves
// the whole table. The index reads from r for as long as it is queried.
// A damaged header, TOC or plane fails closed here; a damaged table
// block fails the query that reads it. Neither becomes silently wrong
// scan output.
func Read(r io.ReaderAt) (*Index, error) {
	var hdr [headerSize]byte
	if err := readFull(r, hdr[:], 0); err != nil {
		return nil, err
	}
	if string(hdr[0:4]) != formatMagic {
		return nil, fmt.Errorf("%w: bad magic %q (not a genome seed index)", ErrCorrupt, hdr[0:4])
	}
	if crc32.Checksum(hdr[:24], crcTable) != binary.LittleEndian.Uint32(hdr[24:28]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != formatVersion {
		return nil, fmt.Errorf("%w: file version %d, this build reads version %d", ErrVersion, v, formatVersion)
	}
	seedLen := int(binary.LittleEndian.Uint32(hdr[8:12]))
	chromCount := uint64(binary.LittleEndian.Uint32(hdr[12:16]))
	tocLen := binary.LittleEndian.Uint64(hdr[16:24])
	if err := checkSeedLen(seedLen); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if tocLen%8 != 0 || tocLen < tocTailSize || tocLen > 1<<40 || chromCount > (tocLen-tocTailSize)/tocRecordSize {
		return nil, fmt.Errorf("%w: implausible TOC geometry (%d chromosomes, %d TOC bytes)", ErrCorrupt, chromCount, tocLen)
	}
	areaOff := headerSize + int64(tocLen) + 4
	if err := checkSize(r, areaOff, false); err != nil {
		return nil, err
	}
	toc := make([]byte, tocLen+4)
	if err := readFull(r, toc, headerSize); err != nil {
		return nil, err
	}
	if crc32.Checksum(toc[:tocLen], crcTable) != binary.LittleEndian.Uint32(toc[tocLen:]) {
		return nil, fmt.Errorf("%w: TOC checksum mismatch", ErrCorrupt)
	}

	ix := &Index{SeedLen: seedLen, Chroms: make([]ChromIndex, 0, chromCount), byName: make(map[string]int, chromCount)}
	d := tocDecoder{buf: toc[:tocLen]}
	planeCRCs := make([]uint32, 0, chromCount)
	var total uint64
	for i := uint64(0); i < chromCount; i++ {
		nameLen := d.u32()
		if nameLen > 1<<16 {
			return nil, fmt.Errorf("%w: chromosome %d name length %d implausible", ErrCorrupt, i, nameLen)
		}
		name := string(d.bytes(int(nameLen)))
		seqLen := d.u64()
		var sha [32]byte
		copy(sha[:], d.bytes(32))
		planeCRCs = append(planeCRCs, d.u32())
		if d.err {
			return nil, fmt.Errorf("%w: TOC ends mid-record (chromosome %d)", ErrCorrupt, i)
		}
		if _, dup := ix.byName[name]; dup {
			return nil, fmt.Errorf("%w: duplicate chromosome %q", ErrCorrupt, name)
		}
		if seqLen > MaxGenomeLen || checkGenomeLen(total+seqLen) != nil {
			return nil, fmt.Errorf("%w: chromosomes through %q exceed %d bases", ErrCorrupt, name, uint64(MaxGenomeLen))
		}
		ix.byName[name] = len(ix.Chroms)
		ix.Chroms = append(ix.Chroms, ChromIndex{Name: name, SeqLen: int(seqLen), SeqSHA: sha, off: uint32(total)})
		total += seqLen
	}
	postingCount := d.u64()
	if d.err {
		return nil, fmt.Errorf("%w: TOC ends before its seed-table record", ErrCorrupt)
	}
	if postingCount > total {
		return nil, fmt.Errorf("%w: %d postings for a %d-base genome", ErrCorrupt, postingCount, total)
	}
	keys := 1 << (2 * uint(seedLen))
	startsSize, postingsSize := align8(4*(keys+1)), align8(4*int(postingCount))
	startsCRCs, postingsCRCs := d.u32s(blockCount(startsSize)), d.u32s(blockCount(postingsSize))
	if d.err {
		return nil, fmt.Errorf("%w: TOC ends before its seed-table block checksums", ErrCorrupt)
	}
	if pad := d.buf[d.off:]; len(pad) >= 8 || !allZero(pad) {
		return nil, fmt.Errorf("%w: %d trailing TOC bytes", ErrCorrupt, len(pad))
	}

	// Size the section area from the TOC and prove the file is exactly
	// that long, then read the planes, which end at the table. The
	// buffer is []uint64 so every plane view is aligned.
	planesTotal := 0
	for i := range ix.Chroms {
		planesTotal += planesSize(ix.Chroms[i].SeqLen)
	}
	startsOff := areaOff + int64(planesTotal)
	postingsOff := startsOff + int64(startsSize)
	if err := checkSize(r, postingsOff+int64(postingsSize), true); err != nil {
		return nil, err
	}
	planes := make([]uint64, planesTotal/8)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(planes))), planesTotal)
	if err := readFull(r, raw, areaOff); err != nil {
		return nil, err
	}
	w := 0 // word offset of the next chromosome's planes
	for i := range ix.Chroms {
		c := &ix.Chroms[i]
		wc, ac := (c.SeqLen+31)/32, (c.SeqLen+63)/64
		if crc32.Checksum(raw[8*w:8*(w+wc+ac)], crcTable) != planeCRCs[i] {
			return nil, fmt.Errorf("%w: chromosome %q sequence section checksum mismatch", ErrCorrupt, c.Name)
		}
		var err error
		if c.Packed, err = dna.FromWords(view64(planes, w, wc), view64(planes, w+wc, ac), c.SeqLen); err != nil {
			return nil, fmt.Errorf("%w: chromosome %q: %v", ErrCorrupt, c.Name, err)
		}
		w += wc + ac
	}
	ix.file = &blockFile{
		r:        r,
		starts:   section{name: "seed starts", off: startsOff, size: startsSize, crcs: startsCRCs},
		postings: section{name: "seed postings", off: postingsOff, size: postingsSize, crcs: postingsCRCs},
		count:    int(postingCount),
		maxStart: ix.maxStart(),
	}
	return ix, nil
}

// valid checks the table's structure: starts run monotone from 0 to
// len(postings), and every posting list ascends strictly with every
// seed starting at or before maxStart. Looping per list would
// mispredict the loop exit once per key, so it makes branch-free passes
// instead, each comparison a wrapped difference whose bit 63 flags a
// violation. A descent (p[i] <= p[i-1]) is legal only where a list
// starts, so the descents counted at list starts must equal those
// counted over the whole array. A list's largest entry is its last,
// just before the next list's start, so that is where the limit is
// checked.
//
//crisprlint:hotpath
func (t *seedTable) valid(maxStart int64) bool {
	starts, postings := t.starts, t.postings
	n := len(postings)
	if len(starts) == 0 || starts[0] != 0 || int(starts[len(starts)-1]) != n {
		return false
	}
	if n == 0 {
		return true
	}
	if maxStart < 0 {
		return false
	}
	var acc uint64
	prev := uint32(0)
	for _, s := range starts {
		acc |= uint64(s) - uint64(prev)
		prev = s
	}
	if acc>>63 != 0 {
		return false
	}
	// Starts are monotone and end at n, so every start indexes postings.
	limit := uint64(maxStart)
	var descents uint64
	lo := uint32(0)
	for _, hi := range starts[1:] {
		if hi != lo && lo != 0 {
			descents -= (uint64(postings[lo]) - uint64(postings[lo-1]) - 1) >> 63
			acc |= limit - uint64(postings[lo-1])
		}
		lo = hi
	}
	acc |= limit - uint64(postings[n-1])
	for i := 1; i < n; i++ {
		descents += (uint64(postings[i]) - uint64(postings[i-1]) - 1) >> 63
	}
	return acc>>63 == 0 && descents == 0
}

// littleEndian reports whether this host stores integers in the file's
// byte order: there sections are viewed in place, elsewhere decoded
// into byte-swapped copies.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// view64 returns the n uint64s that start at word w of area.
func view64(area []uint64, w, n int) []uint64 {
	s := area[w : w+n : w+n]
	if littleEndian {
		return s
	}
	out := make([]uint64, n)
	for i, v := range s {
		out[i] = bits.ReverseBytes64(v)
	}
	return out
}

func allZero[T byte | uint32](s []T) bool {
	for _, x := range s {
		if x != 0 {
			return false
		}
	}
	return true
}

// Load opens an index file (see Read). The index keeps the file open
// to read its seed table from; Close releases it, and so does the
// file's finalizer once the index is unreachable.
func Load(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("seedindex: %w", err)
	}
	ix, err := Read(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("seedindex: %s: %w", path, err)
	}
	ix.closer = f
	return ix, nil
}

// Close releases the file Load opened; a query of the index after Close
// fails. An index that Build made, or that Read opened on the caller's
// reader, holds nothing to release.
func (ix *Index) Close() error {
	if ix.closer == nil {
		return nil
	}
	return ix.closer.Close()
}

// tocDecoder cursors over the TOC buffer; out-of-bounds reads set err
// instead of panicking or allocating, so the caller reports one clean
// corruption error.
type tocDecoder struct {
	buf []byte
	off int
	err bool
}

func (d *tocDecoder) bytes(n int) []byte {
	if n > len(d.buf)-d.off {
		d.err = true
		d.off = len(d.buf)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *tocDecoder) u32() uint32 {
	if b := d.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *tocDecoder) u64() uint64 {
	if b := d.bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// u32s decodes n uint32s; it allocates only once the TOC is known to
// hold them.
func (d *tocDecoder) u32s(n int) []uint32 {
	if n > (len(d.buf)-d.off)/4 {
		d.err, d.off = true, len(d.buf)
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = d.u32()
	}
	return out
}
