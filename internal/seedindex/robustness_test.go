package seedindex_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"runtime"
	"slices"
	"testing"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/faultinject"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/scanserve"
	"github.com/cap-repro/crisprscan/internal/seedindex"
)

// The robustness battery: every way an index file can go bad must fail
// closed with a wrapped, classified error — never load into silently
// wrong scan results. Damage classes map to the scan service's error
// taxonomy: corruption, version skew and staleness are permanent
// (retrying cannot fix the file); injected I/O faults keep whatever
// classification the underlying error carries.

// buildEncoded indexes a small genome at the shortest seed length, so the
// direct-address table (4^L+1 starts) stays small enough for the
// byte-by-byte sweeps below.
func buildEncoded(t *testing.T) (*seedindex.Index, []byte, *genome.Genome) {
	t.Helper()
	g := genome.Synthesize(genome.SynthConfig{Seed: 9, NumChroms: 2, ChromLen: 700, NRunRate: 50, NRunLen: 20})
	ix, err := seedindex.Build(g, seedindex.MinSeedLen)
	if err != nil {
		t.Fatal(err)
	}
	return ix, ix.Encode(), g
}

func TestTruncatedFileFailsClosed(t *testing.T) {
	_, enc, _ := buildEncoded(t)
	for _, cut := range []int{0, 3, 27, 60, len(enc) / 2, len(enc) - 1} {
		_, err := seedindex.Read(bytes.NewReader(enc[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d loaded successfully", cut, len(enc))
		}
		if !errors.Is(err, seedindex.ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v is not ErrCorrupt", cut, err)
		}
		if scanserve.Classify(err) != scanserve.ClassPermanent {
			t.Fatalf("truncation at %d classified %v, want Permanent", cut, scanserve.Classify(err))
		}
	}
}

// TestEveryBitFlipFailsClosed sweeps a single-bit flip across the whole
// file: the layered checksums (header, TOC, per-section) must catch all
// of them. This is the strongest form of the "never silently wrong"
// claim for stored bytes.
func TestEveryBitFlipFailsClosed(t *testing.T) {
	_, enc, _ := buildEncoded(t)
	flipped := make([]byte, len(enc))
	for i := range enc {
		copy(flipped, enc)
		flipped[i] ^= 1
		if _, err := seedindex.Read(bytes.NewReader(flipped)); err == nil {
			t.Fatalf("bit flip at byte %d/%d loaded successfully", i, len(enc))
		}
	}
}

func TestSectionBitFlipIsCorrupt(t *testing.T) {
	_, enc, _ := buildEncoded(t)
	// Flip a byte deep in the section area (past header + TOC).
	mut := append([]byte(nil), enc...)
	mut[len(mut)-10] ^= 0x40
	_, err := seedindex.Read(bytes.NewReader(mut))
	if !errors.Is(err, seedindex.ErrCorrupt) {
		t.Fatalf("section flip error %v, want ErrCorrupt", err)
	}
	if scanserve.Classify(err) != scanserve.ClassPermanent {
		t.Fatalf("section flip classified %v, want Permanent", scanserve.Classify(err))
	}
}

// TestVersionSkewFailsClosed covers a future version and version 1,
// whose header layout v2 kept, so a v1 file is refused by its version.
func TestVersionSkewFailsClosed(t *testing.T) {
	_, enc, _ := buildEncoded(t)
	for _, version := range []uint32{1, 99} {
		mut := append([]byte(nil), enc...)
		// Set the version field and re-seal the header checksum so the
		// failure is attributed to the version, not to corruption.
		binary.LittleEndian.PutUint32(mut[4:8], version)
		crc := crc32.Checksum(mut[:24], crc32.MakeTable(crc32.Castagnoli))
		binary.LittleEndian.PutUint32(mut[24:28], crc)
		_, err := seedindex.Read(bytes.NewReader(mut))
		if !errors.Is(err, seedindex.ErrVersion) {
			t.Fatalf("version %d skew error %v, want ErrVersion", version, err)
		}
		if scanserve.Classify(err) != scanserve.ClassPermanent {
			t.Fatalf("version %d skew classified %v, want Permanent", version, scanserve.Classify(err))
		}
	}
}

func TestNotAnIndexFailsClosed(t *testing.T) {
	_, err := seedindex.Read(bytes.NewReader([]byte(">chr1\nACGTACGTACGT\n")))
	if !errors.Is(err, seedindex.ErrCorrupt) {
		t.Fatalf("FASTA-as-index error %v, want ErrCorrupt", err)
	}
}

// TestStaleIndexFailsClosed covers the mutated-FASTA case end to end:
// content-hash validation rejects the pair, and the engine's cheap
// per-chromosome guards reject structural drift even without a
// validation call.
func TestStaleIndexFailsClosed(t *testing.T) {
	ix, _, g := buildEncoded(t)

	mutated := genome.Synthesize(genome.SynthConfig{Seed: 9, NumChroms: 2, ChromLen: 700, NRunRate: 50, NRunLen: 20})
	mutated.Chroms[0].Seq[123] ^= 2
	err := ix.ValidateGenome(mutated)
	if !errors.Is(err, seedindex.ErrStale) {
		t.Fatalf("mutated FASTA validation error %v, want ErrStale", err)
	}
	if scanserve.Classify(err) != scanserve.ClassPermanent {
		t.Fatalf("stale classified %v, want Permanent", scanserve.Classify(err))
	}

	// Renamed chromosome: engine refuses at scan time.
	e := engineFor(t, ix)
	drop := func(automata.Report) {}
	renamed := genome.New(genome.Chromosome{Name: "other", Seq: g.Chroms[0].Seq})
	scanErr := e.ScanChrom(context.Background(), &renamed.Chroms[0], drop)
	if !errors.Is(scanErr, seedindex.ErrStale) {
		t.Fatalf("renamed chromosome scan error %v, want ErrStale", scanErr)
	}

	// Length drift: engine refuses at scan time.
	short := genome.New(genome.Chromosome{Name: g.Chroms[0].Name, Seq: g.Chroms[0].Seq[:600]})
	scanErr = e.ScanChrom(context.Background(), &short.Chroms[0], drop)
	if !errors.Is(scanErr, seedindex.ErrStale) {
		t.Fatalf("length-drift scan error %v, want ErrStale", scanErr)
	}

	// Same-shape content drift: name and length agree, only the bases
	// changed — the per-chromosome content hash must still refuse.
	edited := append(dna.Seq(nil), g.Chroms[0].Seq...)
	edited[50] ^= 1
	drifted := genome.New(genome.Chromosome{Name: g.Chroms[0].Name, Seq: edited})
	scanErr = e.ScanChrom(context.Background(), &drifted.Chroms[0], drop)
	if !errors.Is(scanErr, seedindex.ErrStale) {
		t.Fatalf("content-drift scan error %v, want ErrStale", scanErr)
	}
}

// TestScanOverOwnGenomeSkipsRehash: a scan over ix.Genome() carries the
// index's own CRC-checked planes, so it allocates no sequence-sized
// buffer for a SHA-256 recheck; the same bases in another genome are
// hashed, and a same-shape edit still fails closed.
func TestScanOverOwnGenomeSkipsRehash(t *testing.T) {
	const n = 1 << 20
	g := genome.Synthesize(genome.SynthConfig{Seed: 5, NumChroms: 1, ChromLen: n, NRunRate: 40, NRunLen: 30})
	built, err := seedindex.Build(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := seedindex.Read(bytes.NewReader(built.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	e := engineFor(t, ix)
	drop := func(automata.Report) {}
	scanBytes := func(c *genome.Chromosome) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		testing.AllocsPerRun(4, func() {
			if err := e.ScanChrom(context.Background(), c, drop); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 5 // AllocsPerRun adds a warm-up run
	}
	own := ix.Genome()
	if got := scanBytes(&own.Chroms[0]); got >= n/2 {
		t.Errorf("scan over ix.Genome() allocated %d bytes per run, a sequence-sized buffer for %d bases", got, n)
	}
	other := genome.New(genome.Chromosome{Name: own.Chroms[0].Name, Seq: own.Chroms[0].Seq})
	if got := scanBytes(&other.Chroms[0]); got < n {
		t.Errorf("scan over a copy allocated %d bytes per run; the recheck's %d-byte buffer is missing, so this test cannot see a rehash", got, n)
	}
	edited := append(dna.Seq(nil), own.Chroms[0].Seq...)
	edited[n/2] ^= 1
	drifted := genome.New(genome.Chromosome{Name: own.Chroms[0].Name, Seq: edited})
	if err := e.ScanChrom(context.Background(), &drifted.Chroms[0], drop); !errors.Is(err, seedindex.ErrStale) {
		t.Fatalf("content-drift scan error %v, want ErrStale", err)
	}
}

// TestValidatedGenomeScansWithIndexPlanes loads a genome apart from its
// index, as offtarget -index X -genome Y does. ValidateGenome hashes
// each chromosome; the ones it proves equal must then carry the index's
// own planes, so the scan's stale check does not hash them a second
// time. The scan must report what a scan of ix.Genome() reports, and a
// chromosome that fails validation keeps its own planes.
func TestValidatedGenomeScansWithIndexPlanes(t *testing.T) {
	g := genome.Synthesize(genome.SynthConfig{Seed: 6, NumChroms: 3, ChromLen: 60000, NRunRate: 40, NRunLen: 30})
	built, err := seedindex.Build(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := seedindex.Read(bytes.NewReader(built.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	copyOf := func(src *genome.Genome) *genome.Genome {
		chroms := make([]genome.Chromosome, len(src.Chroms))
		for i, c := range src.Chroms {
			chroms[i] = genome.Chromosome{Name: c.Name, Seq: append(dna.Seq(nil), c.Seq...)}
		}
		return genome.New(chroms...)
	}
	loaded := copyOf(g)
	if err := ix.ValidateGenome(loaded); err != nil {
		t.Fatal(err)
	}
	e := engineFor(t, ix)
	own := ix.Genome()
	for i := range loaded.Chroms {
		if loaded.Chroms[i].Packed != own.Chroms[i].Packed {
			t.Fatalf("chromosome %s does not carry the index's planes after validation", loaded.Chroms[i].Name)
		}
		var got, want []automata.Report
		if err := e.ScanChrom(context.Background(), &loaded.Chroms[i], func(r automata.Report) { got = append(got, r) }); err != nil {
			t.Fatal(err)
		}
		if err := e.ScanChrom(context.Background(), &own.Chroms[i], func(r automata.Report) { want = append(want, r) }); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("chromosome %s: validated genome reports %v, the index's own %v", loaded.Chroms[i].Name, got, want)
		}
	}
	edited := copyOf(g)
	edited.Chroms[1].Seq[100] ^= 1
	edited.Chroms[1].Packed = dna.Pack(edited.Chroms[1].Seq)
	if err := ix.ValidateGenome(edited); !errors.Is(err, seedindex.ErrStale) {
		t.Fatalf("edited genome validated with %v, want ErrStale", err)
	}
	if edited.Chroms[1].Packed == own.Chroms[1].Packed {
		t.Fatal("a chromosome that failed validation took the index's planes")
	}
}

// engineFor builds a one-guide engine bound to ix.
func engineFor(t *testing.T, ix *seedindex.Index) *seedindex.Engine {
	t.Helper()
	spec := arch.PatternSpec{
		Spacer: dna.MustParsePattern("ACGTACGTACGTACGTACGT"),
		PAM:    dna.MustParsePattern("NGG"),
		K:      3,
		Code:   0,
	}
	e, err := seedindex.New([]arch.PatternSpec{spec}, ix, seedindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestFaultyReaderAt injects I/O failures at every call index: loads
// must fail with the injected error in the chain, and a transient-
// marked cause must classify transient (the scan service will retry the
// load, which is exactly right for flaky storage).
func TestFaultyReaderAt(t *testing.T) {
	_, enc, _ := buildEncoded(t)

	// Count the calls a clean load takes, then fail each one in turn.
	probe := &faultinject.ReaderAt{Inner: bytes.NewReader(enc)}
	if _, err := seedindex.Read(probe); err != nil {
		t.Fatalf("clean load through pass-through wrapper: %v", err)
	}
	total := probe.Calls()
	if total < 3 {
		t.Fatalf("expected at least header+TOC+section reads, got %d", total)
	}
	for call := 1; call <= total; call++ {
		r := &faultinject.ReaderAt{
			Inner:      bytes.NewReader(enc),
			FailOnCall: call,
			Err:        faultinject.Transient(faultinject.ErrInjected),
		}
		_, err := seedindex.Read(r)
		if err == nil {
			t.Fatalf("injected failure on call %d/%d loaded successfully", call, total)
		}
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("call %d: injected cause lost from chain: %v", call, err)
		}
		if scanserve.Classify(err) != scanserve.ClassTransient {
			t.Fatalf("call %d: transient fault classified %v: %v", call, scanserve.Classify(err), err)
		}
	}
}

// TestLoadMissingFile pins the plain-I/O error path of Load.
func TestLoadMissingFile(t *testing.T) {
	_, err := seedindex.Load(t.TempDir() + "/nope.csix")
	if err == nil || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file error %v, want os.ErrNotExist in chain", err)
	}
}
