package seedindex_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/seedindex"
)

// The v3 layout as the tests see it (format.go documents it): a 28-byte
// header, the TOC (block checksums included) and its CRC, then the
// section area; the seed table is checksummed per 4 KiB block.
const (
	headerSize = 28
	tocAt      = headerSize
	blockSize  = 4096
)

var le = binary.LittleEndian

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crcOf(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// reseal recomputes the checksums of an encoded, possibly mutated index
// in place: the header's, then each plane's and each table block's that
// the TOC describes as far as the bytes reach, then the TOC's. A
// mutated field then reaches the structural checks behind the
// checksums. It never panics on arbitrary bytes.
func reseal(b []byte) []byte {
	if len(b) < headerSize {
		return b
	}
	le.PutUint32(b[24:], crcOf(b[:24]))
	seedLen, chroms, tocLen := le.Uint32(b[8:]), le.Uint32(b[12:]), le.Uint64(b[16:])
	if tocLen > uint64(len(b)) || tocAt+tocLen+4 > uint64(len(b)) {
		return b
	}
	toc := b[tocAt : tocAt+tocLen]
	// chunk is a checksummed stretch of the section area, in file order.
	type chunk struct{ size, crcAt uint64 }
	var chunks []chunk
	off := uint64(0)
	field := func(n uint64) (at uint64, ok bool) {
		at = off
		if n > tocLen-off {
			return 0, false
		}
		off += n
		return at, true
	}
	blocks := func(size uint64) bool {
		for ; size > 0; size -= min(size, blockSize) {
			at, ok := field(4)
			if !ok {
				return false
			}
			chunks = append(chunks, chunk{size: min(size, blockSize), crcAt: at})
		}
		return true
	}
	walk := func() {
		for i := uint32(0); i < chroms; i++ {
			at, ok := field(4)
			if !ok {
				return
			}
			if _, ok = field(uint64(le.Uint32(toc[at:]))); !ok {
				return
			}
			if at, ok = field(8); !ok {
				return
			}
			n := le.Uint64(toc[at:])
			if _, ok = field(32); !ok {
				return
			}
			if at, ok = field(4); !ok {
				return
			}
			chunks = append(chunks, chunk{size: 8 * ((n+31)/32 + (n+63)/64), crcAt: at})
		}
		at, ok := field(8)
		if !ok || seedLen > 16 {
			return
		}
		postings := le.Uint64(toc[at:])
		if postings > 1<<40 || !blocks(align8(4*(1<<(2*seedLen)+1))) {
			return
		}
		blocks(align8(4 * postings))
	}
	walk()
	pos := tocAt + tocLen + 4
	for _, c := range chunks {
		if c.size > uint64(len(b))-pos {
			break
		}
		le.PutUint32(toc[c.crcAt:], crcOf(b[pos:pos+c.size]))
		pos += c.size
	}
	le.PutUint32(b[tocAt+tocLen:], crcOf(toc))
	return b
}

// tableAt locates the encoded seed table of an index built by
// buildEncoded: the byte offsets of its starts and postings sections,
// which end the file.
func tableAt(ix *seedindex.Index, enc []byte) (starts, postings int) {
	keys := uint64(1) << (2 * uint(ix.SeedLen))
	postings = len(enc) - int(align8(4*uint64(ix.Postings())))
	starts = postings - int(align8(4*(keys+1)))
	return starts, postings
}

// TestOversizedExtentsFailClosed: a size read from the file is checked
// against the file before anything is allocated for it. Every case
// re-seals the checksums, so the size check alone stands between the
// field and the allocation.
func TestOversizedExtentsFailClosed(t *testing.T) {
	_, enc, _ := buildEncoded(t)
	seqLenAt := tocAt + 4 + int(le.Uint32(enc[tocAt:])) // chromosome 0's seqLen
	for _, tc := range []struct {
		name   string
		mutate func(b []byte)
	}{
		{"1 GiB TOC", func(b []byte) { le.PutUint64(b[16:24], 1<<30) }},
		{"chromosome planes past the file", func(b []byte) {
			// The genome total lands exactly on the limit, so only the
			// 1.5 GB of planes it implies is wrong.
			le.PutUint64(b[seqLenAt:], seedindex.MaxGenomeLen-700)
		}},
		{"genome past 2^32-1 bases", func(b []byte) { le.PutUint64(b[seqLenAt:], seedindex.MaxGenomeLen) }},
	} {
		mut := append([]byte(nil), enc...)
		tc.mutate(mut)
		reseal(mut)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := seedindex.Read(bytes.NewReader(mut))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, seedindex.ErrCorrupt) {
			t.Fatalf("%s: error %v, want ErrCorrupt", tc.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: Read allocated %d bytes before failing", tc.name, got)
		}
	}
}

// TestTrailingBytesAreCorrupt: the file must be exactly as long as its
// TOC says.
func TestTrailingBytesAreCorrupt(t *testing.T) {
	_, enc, _ := buildEncoded(t)
	_, err := seedindex.Read(bytes.NewReader(append(append([]byte(nil), enc...), 0)))
	if !errors.Is(err, seedindex.ErrCorrupt) {
		t.Fatalf("trailing byte error %v, want ErrCorrupt", err)
	}
}

// TestResealedTableDamageIsCorrupt: structural damage to the seed table
// behind valid checksums — as a buggy or hostile writer would leave it —
// fails Verify, and a query that resolves a damaged posting list fails
// too. Read reads no table block, so it loads every case.
func TestResealedTableDamageIsCorrupt(t *testing.T) {
	ix, enc, _ := buildEncoded(t)
	startsOff, postingsOff := tableAt(ix, enc)
	keys := 1 << (2 * uint(ix.SeedLen))
	start := func(b []byte, k int) uint32 { return le.Uint32(b[startsOff+4*k:]) }
	// A key with at least two postings, for the in-list damage, and the
	// key whose list holds posting 0.
	multi, first := -1, -1
	for k := 0; k < keys; k++ {
		n := start(enc, k+1) - start(enc, k)
		if multi < 0 && n >= 2 {
			multi = k
		}
		if first < 0 && n > 0 {
			first = k
		}
	}
	if multi < 0 {
		t.Fatal("fixture has no key with two postings")
	}
	for _, tc := range []struct {
		name   string
		key    int // a key whose resolve must fail, or -1 if only Verify sees the damage
		mutate func(b []byte)
	}{
		{"posting past the genome", first, func(b []byte) { le.PutUint32(b[postingsOff:], 0xFFFFFFF0) }},
		{"posting list out of order", multi, func(b []byte) {
			at := postingsOff + 4*int(start(b, multi))
			p0, p1 := le.Uint32(b[at:]), le.Uint32(b[at+4:])
			le.PutUint32(b[at:], p1)
			le.PutUint32(b[at+4:], p0)
		}},
		{"posting list repeats a position", multi, func(b []byte) {
			at := postingsOff + 4*int(start(b, multi))
			le.PutUint32(b[at+4:], le.Uint32(b[at:]))
		}},
		{"starts not monotone", multi, func(b []byte) { le.PutUint32(b[startsOff+4*(multi+1):], start(b, multi)-1) }},
		{"starts past the postings", keys - 1, func(b []byte) { le.PutUint32(b[startsOff+4*keys:], start(b, keys)+1) }},
		{"starts end short of the postings", -1, func(b []byte) { le.PutUint32(b[startsOff+4*keys:], start(b, keys)-1) }},
		{"nonzero starts padding", -1, func(b []byte) { b[startsOff+4*(keys+1)] = 1 }},
	} {
		mut := append([]byte(nil), enc...)
		tc.mutate(mut)
		reseal(mut)
		loaded, err := seedindex.Read(bytes.NewReader(mut))
		if err != nil {
			t.Fatalf("%s: Read, which reads no table block, failed: %v", tc.name, err)
		}
		// The checksums match, so the structural checks must be what
		// fails.
		if err := loaded.Verify(); !errors.Is(err, seedindex.ErrCorrupt) || strings.Contains(err.Error(), "checksum") {
			t.Errorf("%s: Verify error %v, want a structural ErrCorrupt", tc.name, err)
		}
		if tc.key < 0 {
			continue
		}
		_, err = seedindex.Resolve(context.Background(), loaded, []uint32{uint32(tc.key)})
		if !errors.Is(err, seedindex.ErrCorrupt) || strings.Contains(err.Error(), "checksum") {
			t.Errorf("%s: resolving key %d: error %v, want a structural ErrCorrupt", tc.name, tc.key, err)
		}
	}
	// The helper itself must leave an undamaged file intact.
	loaded, err := seedindex.Read(bytes.NewReader(reseal(append([]byte(nil), enc...))))
	if err != nil {
		t.Fatalf("resealed undamaged index: %v", err)
	}
	if err := loaded.Verify(); err != nil {
		t.Fatalf("resealed undamaged index fails Verify: %v", err)
	}
}

// FuzzIndexRead: any bytes open as an index or fail with a wrapped
// ErrCorrupt or ErrVersion, never a panic. Every index that opens is
// verified and then queried over its own genome: the query reads the
// table on its own, so it may fail, but only with ErrCorrupt and only
// when Verify fails too. With sealed set the checksums are recomputed
// first, so mutations reach the structural checks behind them.
func FuzzIndexRead(f *testing.F) {
	g := genome.Synthesize(genome.SynthConfig{Seed: 21, NumChroms: 2, ChromLen: 300, NRunRate: 50, NRunLen: 10})
	ix, err := seedindex.Build(g, seedindex.MinSeedLen)
	if err != nil {
		f.Fatal(err)
	}
	enc := ix.Encode()
	f.Add(enc, false)
	f.Add(enc, true)
	f.Add(enc[:len(enc)/2], true)
	f.Add([]byte("CSIX"), false)
	f.Fuzz(func(t *testing.T, data []byte, sealed bool) {
		if sealed {
			data = reseal(append([]byte(nil), data...))
		}
		ix, err := seedindex.Read(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, seedindex.ErrCorrupt) && !errors.Is(err, seedindex.ErrVersion) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		verr := ix.Verify()
		if verr != nil && !errors.Is(verr, seedindex.ErrCorrupt) {
			t.Fatalf("unclassified Verify error: %v", verr)
		}
		g := ix.Genome()
		e := engineFor(t, ix)
		for i := range g.Chroms {
			err := e.ScanChrom(context.Background(), &g.Chroms[i], func(automata.Report) {})
			if err == nil {
				continue
			}
			if !errors.Is(err, seedindex.ErrCorrupt) {
				t.Fatalf("query over the index's own genome: unclassified error %v", err)
			}
			if verr == nil {
				t.Fatalf("query failed (%v) on an index that Verify passes", err)
			}
		}
	})
}
