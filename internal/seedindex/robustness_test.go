package seedindex_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
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
// file: the layered checksums (header, TOC with its block checksums,
// planes, table blocks) must catch all of them. A flip ahead of the
// seed table fails Read itself. A flip in a table block fails Verify,
// and fails with a permanent ErrCorrupt a query that reads every block.
// No flip changes what a query reports: a narrow query either fails the
// same way or reports what the intact index reports. This is the
// strongest form of the "never silently wrong" claim for stored bytes.
func TestEveryBitFlipFailsClosed(t *testing.T) {
	built, enc, g := buildEncoded(t)
	startsOff, _ := tableAt(built, enc)
	// The narrow query is the plus strand of one guide sampled from the
	// genome: it has a site to lose, and its keys leave a postings block
	// unread, so the sweep compares its output under flips it does not
	// read (the checks after the loop fail if either stops holding).
	specs := querySpecs(t, g, 1, 3, 13)[:1]
	narrow := func(ix *seedindex.Index) *seedindex.Engine {
		e, err := seedindex.New(specs, ix, seedindex.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	want, err := scanOwn(narrow(built), built)
	if err != nil || len(want) == 0 {
		t.Fatalf("narrow query over the built index: %v, %d sites", err, len(want))
	}
	flipped := make([]byte, len(enc))
	unread := 0 // table flips the narrow query does not read
	for i := range enc {
		copy(flipped, enc)
		flipped[i] ^= 1
		ix, err := seedindex.Read(bytes.NewReader(flipped))
		if i < startsOff {
			if err == nil {
				t.Fatalf("bit flip at byte %d/%d, ahead of the seed table, opened", i, len(enc))
			}
			continue
		}
		if err != nil {
			t.Fatalf("bit flip at table byte %d failed Read, which reads no table block: %v", i, err)
		}
		if err := ix.Verify(); !errors.Is(err, seedindex.ErrCorrupt) {
			t.Fatalf("bit flip at byte %d: Verify error %v, want ErrCorrupt", i, err)
		}
		_, err = scanOwn(allKeysEngine(t, ix), ix)
		if !errors.Is(err, seedindex.ErrCorrupt) || scanserve.Classify(err) != scanserve.ClassPermanent {
			t.Fatalf("bit flip at byte %d: a query reading every block got %v, want a permanent ErrCorrupt", i, err)
		}
		got, err := scanOwn(narrow(ix), ix)
		if err != nil && !errors.Is(err, seedindex.ErrCorrupt) {
			t.Fatalf("bit flip at byte %d: narrow query error %v, want nil or ErrCorrupt", i, err)
		}
		if err == nil {
			unread++
			if !slices.Equal(got, want) {
				t.Fatalf("bit flip at byte %d changed the narrow query's output: %v, want %v", i, got, want)
			}
		}
	}
	if unread == 0 {
		t.Fatal("every table flip failed the narrow query, so its output was never compared")
	}
	t.Logf("%d of %d table flips fell outside the narrow query's blocks; its output (%d sites) matched on each", unread, len(enc)-startsOff, len(want))
}

func TestSectionBitFlipIsCorrupt(t *testing.T) {
	_, enc, _ := buildEncoded(t)
	// Flip a byte deep in the section area (the postings' last block).
	mut := append([]byte(nil), enc...)
	mut[len(mut)-10] ^= 0x40
	ix, err := seedindex.Read(bytes.NewReader(mut))
	if err != nil {
		t.Fatalf("Read, which reads no table block, failed: %v", err)
	}
	_, err = scanOwn(allKeysEngine(t, ix), ix)
	if !errors.Is(err, seedindex.ErrCorrupt) {
		t.Fatalf("section flip query error %v, want ErrCorrupt", err)
	}
	if scanserve.Classify(err) != scanserve.ClassPermanent {
		t.Fatalf("section flip classified %v, want Permanent", scanserve.Classify(err))
	}
	if err := ix.Verify(); !errors.Is(err, seedindex.ErrCorrupt) {
		t.Fatalf("section flip Verify error %v, want ErrCorrupt", err)
	}
}

// TestVersionSkewFailsClosed covers a future version and versions 1 and
// 2, whose header layout v3 kept, so their files are refused by version.
func TestVersionSkewFailsClosed(t *testing.T) {
	_, enc, _ := buildEncoded(t)
	for _, version := range []uint32{1, 2, 99} {
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
	other := genome.New(genome.Chromosome{Name: own.Chroms[0].Name, Seq: own.Chroms[0].Bases()})
	if got := scanBytes(&other.Chroms[0]); got < n {
		t.Errorf("scan over a copy allocated %d bytes per run; the recheck's %d-byte buffer is missing, so this test cannot see a rehash", got, n)
	}
	edited := append(dna.Seq(nil), own.Chroms[0].Bases()...)
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

// allKeysEngine builds a one-guide engine whose query resolves every key
// of a seed-length-4 index, so it reads every table block: a 20-nt
// spacer makes five 4-base fragments, and a budget of 20 gives each a
// Hamming radius of 4.
func allKeysEngine(t *testing.T, ix *seedindex.Index) *seedindex.Engine {
	t.Helper()
	if ix.SeedLen != seedindex.MinSeedLen {
		t.Fatalf("allKeysEngine needs seed length %d, index has %d", seedindex.MinSeedLen, ix.SeedLen)
	}
	spec := arch.PatternSpec{
		Spacer: dna.MustParsePattern("ACGTACGTACGTACGTACGT"),
		PAM:    dna.MustParsePattern("NGG"),
		K:      20,
	}
	e, err := seedindex.New([]arch.PatternSpec{spec}, ix, seedindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// scanOwn scans the index's own genome with e and returns every report
// in order, tagged with its chromosome.
func scanOwn(e arch.Engine, ix *seedindex.Index) ([][2]int, error) {
	g := ix.Genome()
	var out [][2]int
	for i := range g.Chroms {
		if err := e.ScanChrom(context.Background(), &g.Chroms[i], func(r automata.Report) {
			out = append(out, [2]int{i, r.End})
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestFaultyReaderAt injects I/O failures at every call index of an
// open and of a query that reads every table block: the open or the
// query must fail with the injected error in the chain, and a
// transient-marked cause must classify transient (the scan service will
// retry, which is exactly right for flaky storage).
func TestFaultyReaderAt(t *testing.T) {
	_, enc, _ := buildEncoded(t)

	// Count the calls a clean open and query take, then fail each one in
	// turn.
	probe := &faultinject.ReaderAt{Inner: bytes.NewReader(enc)}
	ix, err := seedindex.Read(probe)
	if err != nil {
		t.Fatalf("clean load through pass-through wrapper: %v", err)
	}
	opened := probe.Calls()
	if _, err := scanOwn(allKeysEngine(t, ix), ix); err != nil {
		t.Fatalf("clean query through pass-through wrapper: %v", err)
	}
	total := probe.Calls()
	if opened < 3 || total <= opened {
		t.Fatalf("expected at least header+TOC+planes reads and then table reads, got %d and %d", opened, total-opened)
	}
	for call := 1; call <= total; call++ {
		r := &faultinject.ReaderAt{
			Inner:      bytes.NewReader(enc),
			FailOnCall: call,
			Err:        faultinject.Transient(faultinject.ErrInjected),
		}
		ix, err := seedindex.Read(r)
		if err == nil {
			_, err = scanOwn(allKeysEngine(t, ix), ix)
		}
		if err == nil {
			t.Fatalf("injected failure on call %d/%d went unnoticed", call, total)
		}
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("call %d: injected cause lost from chain: %v", call, err)
		}
		if scanserve.Classify(err) != scanserve.ClassTransient {
			t.Fatalf("call %d: transient fault classified %v: %v", call, scanserve.Classify(err), err)
		}
	}
}

// countingReaderAt counts the ReadAt calls and bytes that reach r.
type countingReaderAt struct {
	r            io.ReaderAt
	calls, bytes int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.calls++
	c.bytes += len(p)
	return c.r.ReadAt(p, off)
}

// querySpecs samples n guides of g and returns their plus- and
// minus-strand specs at budget k.
func querySpecs(t *testing.T, g *genome.Genome, n, k int, seed int64) []arch.PatternSpec {
	t.Helper()
	pam := dna.MustParsePattern("NGG")
	raw := genome.SampleGuides(g, n, 20, pam, seed)
	if len(raw) < n {
		t.Fatalf("sampled %d/%d guides", len(raw), n)
	}
	var specs []arch.PatternSpec
	for i, spacer := range raw {
		plus := arch.PatternSpec{Spacer: dna.PatternFromSeq(spacer), PAM: pam, K: k, Code: int32(2 * i)}
		specs = append(specs, plus, plus.MinusSpec(int32(2*i+1)))
	}
	return specs
}

// TestQueryReadsOnlyItsBlocks pins how much of the file a query reads.
// On a 6 × 1 Mbp genome, the size of the benchmark's index-queries
// input, a 4-guide query at k = 3 resolves about 500 keys and reads
// under a tenth of the 30 MB file. A query that resolves every key of a
// table reads each of its two sections in one ReadAt.
func TestQueryReadsOnlyItsBlocks(t *testing.T) {
	g := genome.Synthesize(genome.SynthConfig{Seed: 31, NumChroms: 6, ChromLen: 1_000_000, NRunRate: 40, NRunLen: 30})
	built, err := seedindex.Build(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc := built.Encode()
	cr := &countingReaderAt{r: bytes.NewReader(enc)}
	ix, err := seedindex.Read(cr)
	if err != nil {
		t.Fatal(err)
	}
	specs := querySpecs(t, g, 4, 3, 32)
	e, err := seedindex.New(specs, ix, seedindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opened := cr.bytes
	got, err := scanOwn(e, ix)
	if err != nil {
		t.Fatal(err)
	}
	read := cr.bytes - opened
	t.Logf("open read %d bytes; the query read %d bytes of the %d-byte file (%.1f%%) in %d calls",
		opened, read, len(enc), 100*float64(read)/float64(len(enc)), cr.calls)
	if read*10 > len(enc) {
		t.Errorf("a 4-guide, k = 3 query read %d of %d bytes, more than a tenth", read, len(enc))
	}
	ref, err := seedindex.New(specs, built, seedindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want, err := scanOwn(ref, built); err != nil || !slices.Equal(got, want) {
		t.Fatalf("the loaded index reports %d sites (%v), the built one %d", len(got), err, len(want))
	}

	// Every key: seed length 6 makes three fragments of a 20-nt spacer,
	// and a budget of 18 gives each a radius of 6, all 4096 keys.
	small := genome.Synthesize(genome.SynthConfig{Seed: 33, NumChroms: 2, ChromLen: 25_000})
	built, err = seedindex.Build(small, 6)
	if err != nil {
		t.Fatal(err)
	}
	cr = &countingReaderAt{r: bytes.NewReader(built.Encode())}
	if ix, err = seedindex.Read(cr); err != nil {
		t.Fatal(err)
	}
	spec := arch.PatternSpec{Spacer: dna.MustParsePattern("ACGTACGTACGTACGTACGT"), PAM: dna.MustParsePattern("NGG"), K: 18}
	if e, err = seedindex.New([]arch.PatternSpec{spec}, ix, seedindex.Options{}); err != nil {
		t.Fatal(err)
	}
	calls := cr.calls
	if _, err := scanOwn(e, ix); err != nil {
		t.Fatal(err)
	}
	if n := cr.calls - calls; n > 2 {
		t.Errorf("a query resolving all 4096 keys made %d ReadAt calls, want one per section", n)
	}
}

// TestResolveStopsOnCancel: the batch resolve checks the scan's ctx
// before each read, so a canceled query reads no table block and
// returns the cancellation.
func TestResolveStopsOnCancel(t *testing.T) {
	_, enc, _ := buildEncoded(t)
	cr := &countingReaderAt{r: bytes.NewReader(enc)}
	ix, err := seedindex.Read(cr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opened := cr.calls
	if _, err := seedindex.Resolve(ctx, ix, []uint32{0, 1, 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("resolve under a canceled ctx: error %v, want context.Canceled", err)
	}
	if n := cr.calls - opened; n != 0 {
		t.Fatalf("a canceled resolve made %d reads", n)
	}
}

// TestRewriteAfterOpenFailsQuery: a loaded index reads its table from
// the file as queries need it, so a block rewritten after Load fails the
// next engine's query with ErrCorrupt instead of reaching it unchecked.
// An engine that resolved its lists before the rewrite keeps the checked
// copies, and after Close a query fails.
func TestRewriteAfterOpenFailsQuery(t *testing.T) {
	built, enc, _ := buildEncoded(t)
	_, postingsOff := tableAt(built, enc)
	path := t.TempDir() + "/g.csix"
	if err := built.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	ix, err := seedindex.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scanOwn(allKeysEngine(t, built), built)
	if err != nil {
		t.Fatal(err)
	}
	early := allKeysEngine(t, ix)
	if got, err := scanOwn(early, ix); err != nil || !slices.Equal(got, want) {
		t.Fatalf("query before the rewrite: %v, %d sites, want %d", err, len(got), len(want))
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{enc[postingsOff] ^ 0x10}, int64(postingsOff)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := scanOwn(allKeysEngine(t, ix), ix); !errors.Is(err, seedindex.ErrCorrupt) {
		t.Fatalf("query after the rewrite: error %v, want ErrCorrupt", err)
	}
	if got, err := scanOwn(early, ix); err != nil || !slices.Equal(got, want) {
		t.Fatalf("engine resolved before the rewrite: %v, %d sites, want %d", err, len(got), len(want))
	}

	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := scanOwn(allKeysEngine(t, ix), ix); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("query after Close: error %v, want os.ErrClosed", err)
	}
}

// TestConcurrentQueriesShareALoadedIndex: engines on one loaded index
// read its file at once, two goroutines share one engine's first
// resolve, and Verify runs alongside them. Every query must report what
// the built index reports (run under -race).
func TestConcurrentQueriesShareALoadedIndex(t *testing.T) {
	built, enc, _ := buildEncoded(t)
	want, err := scanOwn(allKeysEngine(t, built), built)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := seedindex.Read(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	shared := allKeysEngine(t, ix)
	engines := []*seedindex.Engine{shared, shared, allKeysEngine(t, ix), allKeysEngine(t, ix)}
	var wg sync.WaitGroup
	for _, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := scanOwn(e, ix); err != nil || !slices.Equal(got, want) {
				t.Errorf("concurrent query: %v, %d sites, want %d", err, len(got), len(want))
			}
		}()
	}
	if err := ix.Verify(); err != nil {
		t.Error(err)
	}
	wg.Wait()
}

// TestLoadMissingFile pins the plain-I/O error path of Load.
func TestLoadMissingFile(t *testing.T) {
	_, err := seedindex.Load(t.TempDir() + "/nope.csix")
	if err == nil || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file error %v, want os.ErrNotExist in chain", err)
	}
}
