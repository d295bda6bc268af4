package seedindex

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

// testGenome synthesizes a deterministic genome with N runs so the
// ambiguity paths are exercised.
func testGenome(t *testing.T, chroms, length int) *genome.Genome {
	t.Helper()
	return genome.Synthesize(genome.SynthConfig{
		Seed:      42,
		NumChroms: chroms,
		ChromLen:  length,
		NRunRate:  40,
		NRunLen:   30,
	})
}

func sampleSpecs(t *testing.T, g *genome.Genome, n, k int) []arch.PatternSpec {
	t.Helper()
	pam := dna.MustParsePattern("NGG")
	raw := genome.SampleGuides(g, n, 20, pam, 7)
	if len(raw) < n {
		t.Fatalf("sampled %d/%d guides", len(raw), n)
	}
	var specs []arch.PatternSpec
	for gi, spacer := range raw {
		plus := arch.PatternSpec{Spacer: dna.PatternFromSeq(spacer), PAM: pam, K: k, Code: int32(gi * 2)}
		specs = append(specs, plus, plus.MinusSpec(int32(gi*2+1)))
	}
	return specs
}

// scanAll collects every (code, end) event an engine reports over a
// genome, deduplicated the way the collector would.
func scanAll(t *testing.T, e arch.Engine, g *genome.Genome) map[[2]int64]bool {
	t.Helper()
	out := make(map[[2]int64]bool)
	for i := range g.Chroms {
		c := &g.Chroms[i]
		if err := e.ScanChrom(context.Background(), c, func(r automata.Report) {
			out[[2]int64{int64(i)<<32 | int64(r.Code), int64(r.End)}] = true
		}); err != nil {
			t.Fatalf("scan %s: %v", c.Name, err)
		}
	}
	return out
}

// bruteSpecScan is the oracle: verify every window position directly.
func bruteSpecScan(g *genome.Genome, specs []arch.PatternSpec) map[[2]int64]bool {
	out := make(map[[2]int64]bool)
	for ci := range g.Chroms {
		seq := g.Chroms[ci].Seq
		for si := range specs {
			spec := &specs[si]
			site := spec.SiteLen()
			for p := 0; p+site <= len(seq); p++ {
				pamW := seq[p+spec.PAMOffset() : p+spec.PAMOffset()+len(spec.PAM)]
				if !spec.PAM.Matches(pamW) {
					continue
				}
				window := seq[p+spec.SpacerOffset() : p+spec.SpacerOffset()+len(spec.Spacer)]
				if window.HasAmbiguous() || spec.Spacer.Mismatches(window) > spec.K {
					continue
				}
				out[[2]int64{int64(ci)<<32 | int64(spec.Code), int64(p + site - 1)}] = true
			}
		}
	}
	return out
}

func diffHits(t *testing.T, label string, got, want map[[2]int64]bool) {
	t.Helper()
	for h := range want {
		if !got[h] {
			t.Errorf("%s: missing hit code=%d end=%d", label, h[0], h[1])
		}
	}
	for h := range got {
		if !want[h] {
			t.Errorf("%s: spurious hit code=%d end=%d", label, h[0], h[1])
		}
	}
}

// TestEngineMatchesOracle differential-tests both engine modes — self-
// indexing and persistent-index-backed — against a brute-force oracle,
// across mismatch budgets spanning radius 0, 1 and 2 fragments.
func TestEngineMatchesOracle(t *testing.T) {
	g := testGenome(t, 2, 6000)
	for _, k := range []int{0, 1, 3, 5} {
		specs := sampleSpecs(t, g, 3, k)
		want := bruteSpecScan(g, specs)

		self, err := New(specs, nil, Options{})
		if err != nil {
			t.Fatalf("k=%d self: %v", k, err)
		}
		diffHits(t, "self-indexing", scanAll(t, self, g), want)

		ix, err := Build(g, 0)
		if err != nil {
			t.Fatalf("k=%d build: %v", k, err)
		}
		bound, err := New(specs, ix, Options{})
		if err != nil {
			t.Fatalf("k=%d bound: %v", k, err)
		}
		diffHits(t, "index-backed", scanAll(t, bound, g), want)
	}
}

// TestDegenerateGuideFallsBack forces the variant cap and checks the
// fallback sweep still matches the oracle: an all-N spacer matches
// every concrete window next to a PAM.
func TestDegenerateGuideFallsBack(t *testing.T) {
	g := testGenome(t, 1, 3000)
	spacer := dna.Pattern{}
	for i := 0; i < 20; i++ {
		spacer = append(spacer, dna.MaskAny)
	}
	specs := []arch.PatternSpec{{Spacer: spacer, PAM: dna.MustParsePattern("NGG"), K: 2, Code: 0}}
	e, err := New(specs, nil, Options{MaxFragmentVariants: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !e.plans[0].fallback {
		t.Fatal("expected the all-N spacer to exceed the variant cap")
	}
	diffHits(t, "fallback", scanAll(t, e, g), bruteSpecScan(g, specs))
}

// TestRoundTrip pins encode→write→load fidelity: the reloaded index
// reproduces the genome byte-for-byte and serves identical scans.
func TestRoundTrip(t *testing.T) {
	g := testGenome(t, 3, 2500)
	ix, err := Build(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/g.csix"
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SeedLen != 8 || len(got.Chroms) != 3 {
		t.Fatalf("loaded SeedLen=%d chroms=%d", got.SeedLen, len(got.Chroms))
	}
	if err := got.ValidateGenome(g); err != nil {
		t.Fatalf("reloaded index fails validation: %v", err)
	}
	rg := got.Genome()
	if rg.TotalLen() != g.TotalLen() {
		t.Fatalf("reconstructed genome %d bases, want %d", rg.TotalLen(), g.TotalLen())
	}
	for i := range g.Chroms {
		if g.Chroms[i].Name != rg.Chroms[i].Name {
			t.Fatalf("chrom %d name %q, want %q", i, rg.Chroms[i].Name, g.Chroms[i].Name)
		}
		if g.Chroms[i].Seq.String() != rg.Chroms[i].Bases().String() {
			t.Fatalf("chrom %q sequence differs after round trip", g.Chroms[i].Name)
		}
	}
	specs := sampleSpecs(t, g, 2, 3)
	fresh, err := New(specs, ix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := New(specs, got, Options{})
	if err != nil {
		t.Fatal(err)
	}
	diffHits(t, "reloaded", scanAll(t, reloaded, g), scanAll(t, fresh, g))
}

// TestBuildDeterminism pins the satellite claim: two builds of the same
// reference encode byte-identically (no timestamps, no map ordering).
func TestBuildDeterminism(t *testing.T) {
	g1 := testGenome(t, 2, 4000)
	g2 := testGenome(t, 2, 4000)
	ix1, err := Build(g1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := Build(g2, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc := ix1.Encode()
	if !bytes.Equal(enc, ix2.Encode()) {
		t.Fatal("two builds of the same genome encode differently")
	}
	// Pin the v3 encoding itself: a layout change must move the version.
	if v := binary.LittleEndian.Uint32(enc[4:8]); v != 3 {
		t.Fatalf("encoded format version %d, want 3", v)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != v3Digest {
		t.Fatalf("v3 encoding changed: SHA-256 %s, want %s", got, v3Digest)
	}
}

// v3Digest is the SHA-256 of the version-3 encoding of
// testGenome(t, 2, 4000) at the default seed length.
const v3Digest = "e5b722e6abd6c648028866205ccedf21eafde9c0cd44a1212b7ecbee1382e546"

// TestValidateGenomeDetectsDrift mutates one base and expects the
// content hash to fail closed.
func TestValidateGenomeDetectsDrift(t *testing.T) {
	g := testGenome(t, 2, 2000)
	ix, err := Build(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.ValidateGenome(g); err != nil {
		t.Fatalf("unmutated genome rejected: %v", err)
	}
	mut := testGenome(t, 2, 2000)
	mut.Chroms[1].Seq[17] ^= 1
	err = ix.ValidateGenome(mut)
	if err == nil {
		t.Fatal("mutated genome accepted")
	}
	t.Logf("drift error: %v", err)
}

// TestTableLookup unit-tests the seed table on a tiny sequence with an
// ambiguity gap.
func TestTableLookup(t *testing.T) {
	seq, _ := dna.ParseSeq("ACGTACGTNNACGTACGT")
	tbl := buildTable([]*dna.Packed{dna.Pack(seq)}, 4)
	key, ok := dna.KmerOf(dna.MustParseSeq("ACGT"))
	if !ok {
		t.Fatal("kmer not concrete")
	}
	got := tbl.lookup(uint32(key))
	want := []uint32{0, 4, 10, 14}
	if len(got) != len(want) {
		t.Fatalf("ACGT postings %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ACGT postings %v, want %v", got, want)
		}
	}
	// No k-mer may straddle the N run.
	for _, pos := range []uint32{7, 8, 9} {
		for _, p := range tbl.lookup(uint32(key)) {
			if p == pos {
				t.Fatalf("posting %d straddles the N run", p)
			}
		}
	}
	// TTTT: the direct-address table spans every 4-mer key, so an
	// absent key is in range and its list is empty.
	if len(tbl.lookup(0xFF)) != 0 {
		t.Fatal("absent key returned postings")
	}
}

// TestPigeonholeFragments checks the fragment geometry invariants the
// exactness proof relies on: disjoint, in-bounds, seed-length fragments
// with radius floor(K/J).
func TestPigeonholeFragments(t *testing.T) {
	for _, l := range []int{20, 23, 24, 10, 31} {
		spacer := make(dna.Pattern, l)
		for i := range spacer {
			spacer[i] = dna.MaskA
		}
		for _, k := range []int{0, 2, 5} {
			spec := arch.PatternSpec{Spacer: spacer, PAM: dna.MustParsePattern("NGG"), K: k}
			plan := compilePlan(&spec, 10, DefaultMaxFragmentVariants)
			if l < 10 {
				if !plan.fallback {
					t.Fatalf("l=%d should fall back", l)
				}
				continue
			}
			j := l / 10
			if k/j > 2 {
				// Radius above 2 overflows the variant cap on a 10-mer
				// (81922 > 2^16); falling back is the designed behavior.
				if !plan.fallback {
					t.Fatalf("l=%d k=%d radius %d should fall back", l, k, k/j)
				}
				continue
			}
			if plan.fallback {
				t.Fatalf("l=%d k=%d unexpectedly fell back", l, k)
			}
			if len(plan.frags) != j {
				t.Fatalf("l=%d: %d fragments, want %d", l, len(plan.frags), j)
			}
			for fi, fr := range plan.frags {
				if fr.off < 0 || fr.off+10 > l {
					t.Fatalf("l=%d fragment %d out of bounds at %d", l, fi, fr.off)
				}
				if fi > 0 && fr.off < plan.frags[fi-1].off+10 {
					t.Fatalf("l=%d fragments %d/%d overlap", l, fi-1, fi)
				}
			}
			// J*(floor(K/J)+1) > K is the pigeonhole inequality.
			r := k / j
			if j*(r+1) <= k {
				t.Fatalf("pigeonhole violated: J=%d r=%d K=%d", j, r, k)
			}
		}
	}
}

// TestSlotKeys: the engine's key set is every variant of every plan,
// ascending without repeats, and each fragment's slots point at its
// variants in it.
func TestSlotKeys(t *testing.T) {
	g := testGenome(t, 1, 3000)
	e, err := New(sampleSpecs(t, g, 5, 3), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var all []uint32
	for _, plan := range e.plans {
		for _, fr := range plan.frags {
			for v, k := range fr.variants {
				if e.keys[fr.slots[v]] != k {
					t.Fatalf("variant %d of a fragment is key %d, its slot holds %d", v, k, e.keys[fr.slots[v]])
				}
				all = append(all, k)
			}
		}
	}
	slices.Sort(all)
	if all = slices.Compact(all); !slices.Equal(all, e.keys) {
		t.Fatalf("key set has %d keys, the plans %d distinct variants", len(e.keys), len(all))
	}
}

// TestEnumerateFragment checks neighborhood sizes and the degenerate-
// position zero-cost rule.
func TestEnumerateFragment(t *testing.T) {
	frag := dna.MustParsePattern("ACGTACGTAC")
	for r, want := range map[int]int{0: 1, 1: 31, 2: 436} {
		keys, ok := enumerateFragment(frag, r, DefaultMaxFragmentVariants)
		if !ok || len(keys) != want {
			t.Fatalf("radius %d: %d variants (ok=%v), want %d", r, len(keys), ok, want)
		}
	}
	// An N position multiplies by 4 for free at radius 0.
	nfrag := dna.MustParsePattern("NCGTACGTAC")
	keys, ok := enumerateFragment(nfrag, 0, DefaultMaxFragmentVariants)
	if !ok || len(keys) != 4 {
		t.Fatalf("N fragment radius 0: %d variants, want 4", len(keys))
	}
	if _, ok := enumerateFragment(frag, 2, 10); ok {
		t.Fatal("cap not enforced")
	}
}

// TestSeedLenLimit: the direct-address table holds 4^L+1 starts, so a
// seed longer than 12 fails at build, naming the range.
func TestSeedLenLimit(t *testing.T) {
	g := genome.Synthesize(genome.SynthConfig{Seed: 3, NumChroms: 1, ChromLen: 500})
	for _, seedLen := range []int{MinSeedLen - 1, MaxSeedLen + 1} {
		_, err := Build(g, seedLen)
		if err == nil || !strings.Contains(err.Error(), "4..12") {
			t.Errorf("Build(g, %d) error %v, want one naming 4..12", seedLen, err)
		}
	}
}

// TestGenomeLenLimit pins the uint32-postings bound on its check:
// 2^32-1 bases pass, one more fails naming the limit. Build and Read
// both apply it, so neither needs a 4 Gbp genome to test.
func TestGenomeLenLimit(t *testing.T) {
	if err := checkGenomeLen(MaxGenomeLen); err != nil {
		t.Fatalf("2^32-1 bases rejected: %v", err)
	}
	err := checkGenomeLen(MaxGenomeLen + 1)
	if err == nil || !strings.Contains(err.Error(), "2^32-1") {
		t.Fatalf("2^32 bases: error %v, want one naming 2^32-1", err)
	}
}

// TestTableValidation drives the load-time structure check over a
// built table and over each kind of damage to it.
func TestTableValidation(t *testing.T) {
	withN, _ := dna.ParseSeq("ACGTNACGTTTTACG")
	seqs := []dna.Seq{dna.MustParseSeq("ACGTACGTACGAACGT"), withN}
	total := int64(len(seqs[0]) + len(seqs[1]))
	build := func() seedTable { return buildTable([]*dna.Packed{dna.Pack(seqs[0]), dna.Pack(seqs[1])}, 4) }
	acgt := 0x1B // ACGT as a 2-bit key
	if tbl := build(); fmt.Sprint(tbl.lookup(uint32(acgt))) != "[0 4 12 16 21]" {
		t.Fatalf("ACGT postings %v, want genome-wide positions [0 4 12 16 21]", tbl.lookup(uint32(acgt)))
	}
	if tbl := build(); !tbl.valid(total - 4) {
		t.Fatal("built table fails validation")
	}
	if tbl := (seedTable{starts: make([]uint32, 257)}); !tbl.valid(-1) {
		t.Fatal("empty table fails validation")
	}
	for name, damage := range map[string]func(*seedTable) (maxStart int64){
		"posting past the genome":    func(tb *seedTable) int64 { return int64(tb.postings[len(tb.postings)-1]) - 1 },
		"list out of order":          func(tb *seedTable) int64 { l := tb.lookup(uint32(acgt)); l[1], l[2] = l[2], l[1]; return total - 4 },
		"list repeats a position":    func(tb *seedTable) int64 { l := tb.lookup(uint32(acgt)); l[1] = l[0]; return total - 4 },
		"starts not monotone":        func(tb *seedTable) int64 { tb.starts[acgt+1] = tb.starts[acgt] - 1; return total - 4 },
		"starts do not begin at 0":   func(tb *seedTable) int64 { tb.starts[0] = 1; return total - 4 },
		"starts end short":           func(tb *seedTable) int64 { tb.starts[256]--; return total - 4 },
		"postings in a short genome": func(tb *seedTable) int64 { return -1 },
	} {
		tbl := build()
		if maxStart := damage(&tbl); tbl.valid(maxStart) {
			t.Errorf("%s: damaged table passes validation", name)
		}
	}
}
