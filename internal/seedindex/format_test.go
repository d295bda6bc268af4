package seedindex_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/seedindex"
)

// The v2 layout as the tests see it (format.go documents it): a 28-byte
// header, the TOC and its CRC, then the section area.
const (
	headerSize = 28
	tocAt      = headerSize
)

var le = binary.LittleEndian

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crcOf(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// reseal recomputes the checksums of an encoded, possibly mutated index
// in place: the header's, then each section's that the TOC describes as
// far as the bytes reach, then the TOC's. A mutated field then reaches
// the structural checks behind the checksums. It never panics on
// arbitrary bytes.
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
	type section struct{ size, crcAt uint64 }
	var secs []section
	off := uint64(0)
	field := func(n uint64) (at uint64, ok bool) {
		at = off
		if n > tocLen-off {
			return 0, false
		}
		off += n
		return at, true
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
			secs = append(secs, section{size: 8 * ((n+31)/32 + (n+63)/64), crcAt: at})
		}
		at, ok := field(8)
		if !ok || seedLen > 16 {
			return
		}
		postings := le.Uint64(toc[at:])
		startsAt, ok1 := field(4)
		postingsAt, ok2 := field(4)
		if !ok1 || !ok2 {
			return
		}
		secs = append(secs,
			section{size: align8(4 * (1<<(2*seedLen) + 1)), crcAt: startsAt},
			section{size: align8(4 * postings), crcAt: postingsAt})
	}
	walk()
	pos := tocAt + tocLen + 4
	for _, s := range secs {
		if s.size > uint64(len(b))-pos {
			break
		}
		le.PutUint32(toc[s.crcAt:], crcOf(b[pos:pos+s.size]))
		pos += s.size
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
// fails the load-time validation pass.
func TestResealedTableDamageIsCorrupt(t *testing.T) {
	ix, enc, _ := buildEncoded(t)
	startsOff, postingsOff := tableAt(ix, enc)
	keys := 1 << (2 * uint(ix.SeedLen))
	start := func(b []byte, k int) uint32 { return le.Uint32(b[startsOff+4*k:]) }
	// A key with at least two postings, for the in-list damage.
	multi := -1
	for k := 0; k < keys && multi < 0; k++ {
		if start(enc, k+1)-start(enc, k) >= 2 {
			multi = k
		}
	}
	if multi < 0 {
		t.Fatal("fixture has no key with two postings")
	}
	for _, tc := range []struct {
		name   string
		mutate func(b []byte)
	}{
		{"posting past the genome", func(b []byte) { le.PutUint32(b[postingsOff:], 0xFFFFFFF0) }},
		{"posting list out of order", func(b []byte) {
			at := postingsOff + 4*int(start(b, multi))
			p0, p1 := le.Uint32(b[at:]), le.Uint32(b[at+4:])
			le.PutUint32(b[at:], p1)
			le.PutUint32(b[at+4:], p0)
		}},
		{"posting list repeats a position", func(b []byte) {
			at := postingsOff + 4*int(start(b, multi))
			le.PutUint32(b[at+4:], le.Uint32(b[at:]))
		}},
		{"starts not monotone", func(b []byte) { le.PutUint32(b[startsOff+4*(multi+1):], start(b, multi)-1) }},
		{"starts end short of the postings", func(b []byte) { le.PutUint32(b[startsOff+4*keys:], start(b, keys)-1) }},
		{"nonzero starts padding", func(b []byte) { b[startsOff+4*(keys+1)] = 1 }},
	} {
		mut := append([]byte(nil), enc...)
		tc.mutate(mut)
		reseal(mut)
		if _, err := seedindex.Read(bytes.NewReader(mut)); !errors.Is(err, seedindex.ErrCorrupt) {
			t.Errorf("%s: error %v, want ErrCorrupt", tc.name, err)
		}
	}
	// The helper itself must leave an undamaged file loadable.
	if _, err := seedindex.Read(bytes.NewReader(reseal(append([]byte(nil), enc...)))); err != nil {
		t.Fatalf("resealed undamaged index: %v", err)
	}
}

// FuzzIndexRead: any bytes decode to an index or fail with a wrapped
// ErrCorrupt or ErrVersion, never a panic, and an index that loads
// serves a guide query over its own genome. With sealed set the
// checksums are recomputed first, so mutations reach the structural
// checks behind them.
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
		g := ix.Genome()
		e := engineFor(t, ix)
		for i := range g.Chroms {
			if err := e.ScanChrom(context.Background(), &g.Chroms[i], func(automata.Report) {}); err != nil {
				t.Fatalf("query over the index's own genome: %v", err)
			}
		}
	})
}
