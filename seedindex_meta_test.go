package crisprscan

import (
	"bytes"
	"testing"
)

// Metamorphic properties of the persistent-index scan path: the index
// is rebuilt for each transformed input, so these pin the whole
// build→bind→query pipeline, not just the engine.

func indexedSearch(t *testing.T, g *Genome, guides []Guide, p Params) *Result {
	t.Helper()
	ix, err := BuildSeedIndex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Engine = EngineSeedIndex
	p.SeedIndex = ix
	res, err := Search(g, guides, p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMetamorphicIndexChromPermutation: permuting chromosome order
// changes neither the per-chromosome site sets nor anything about how
// each chromosome is indexed — the indexed scan must return the
// identical tuple multiset.
func TestMetamorphicIndexChromPermutation(t *testing.T) {
	g, guides := metamorphicFixture(t)
	perm := &Genome{}
	order := []int{2, 0, 1}
	for _, i := range order {
		perm.Chroms = append(perm.Chroms, g.Chroms[i])
	}
	p := Params{MaxMismatches: 3}
	orig := indexedSearch(t, g, guides, p)
	permuted := indexedSearch(t, perm, guides, p)
	diffTuples(t, "chrom permutation", siteTuples(orig.Sites), siteTuples(permuted.Sites))
}

// TestMetamorphicIndexGuideDuplication: duplicating a guide adds a
// second identical probe set over the same index; every site of the
// original guide must appear once more under the duplicate's index and
// nothing else may change.
func TestMetamorphicIndexGuideDuplication(t *testing.T) {
	g, guides := metamorphicFixture(t)
	dup := append(append([]Guide{}, guides...), Guide{Name: "dup0", Spacer: guides[0].Spacer})
	p := Params{MaxMismatches: 3}
	orig := indexedSearch(t, g, guides, p)
	duped := indexedSearch(t, g, dup, p)

	var wantExtra, gotExtra int
	for _, s := range orig.Sites {
		if s.Guide == 0 {
			wantExtra++
		}
	}
	for _, s := range duped.Sites {
		if s.Guide == len(guides) {
			gotExtra++
		}
	}
	if gotExtra != wantExtra {
		t.Fatalf("duplicate guide found %d sites, original guide 0 found %d", gotExtra, wantExtra)
	}
	if len(duped.Sites) != len(orig.Sites)+wantExtra {
		t.Fatalf("duplication changed unrelated sites: %d vs %d+%d", len(duped.Sites), len(orig.Sites), wantExtra)
	}
	// The non-duplicate share must be tuple-identical.
	var rest []Site
	for _, s := range duped.Sites {
		if s.Guide != len(guides) {
			rest = append(rest, s)
		}
	}
	diffTuples(t, "guide duplication", siteTuples(orig.Sites), siteTuples(rest))
}

// TestSeedIndexBuildDeterministic pins the public-API form of the
// build-determinism satellite: two builds of the same reference are
// byte-identical on disk.
func TestSeedIndexBuildDeterministic(t *testing.T) {
	g, _ := metamorphicFixture(t)
	ix1, err := BuildSeedIndex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := BuildSeedIndex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ix1.Encode(), ix2.Encode()) {
		t.Fatal("two builds of the same genome encode differently")
	}
	// And the round trip through disk preserves the bytes.
	dir := t.TempDir()
	if err := ix1.WriteFile(dir + "/a.csix"); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadSeedIndex(dir + "/a.csix")
	if err != nil {
		t.Fatal(err)
	}
	// A loaded index holds its whole seed table only once verified.
	if err := reloaded.Verify(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reloaded.Encode(), ix1.Encode()) {
		t.Fatal("reload→re-encode is not byte-identical")
	}
}

// TestIndexedMatchesFullScan is the public-API differential: the
// persistent-index path must match the flagship full-scan engine
// tuple-for-tuple, including on a genome with ambiguity runs.
func TestIndexedMatchesFullScan(t *testing.T) {
	g := SynthesizeGenome(SynthConfig{Seed: 77, ChromLen: 9000, NumChroms: 2, NRunRate: 60, NRunLen: 40})
	guides, err := SampleGuides(g, 3, 20, "NGG", 78)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 3, 5} {
		full, err := Search(g, guides, Params{MaxMismatches: k, AltPAMs: []string{"NAG"}, Engine: EngineHyperscan})
		if err != nil {
			t.Fatal(err)
		}
		indexed := indexedSearch(t, g, guides, Params{MaxMismatches: k, AltPAMs: []string{"NAG"}})
		diffTuples(t, "indexed vs hyperscan", siteTuples(full.Sites), siteTuples(indexed.Sites))
	}
}

// TestIndexedScanFromReconstructedGenome: the index is self-contained —
// scanning the genome materialized from the index itself must equal
// scanning the original reference.
func TestIndexedScanFromReconstructedGenome(t *testing.T) {
	g, guides := metamorphicFixture(t)
	ix, err := BuildSeedIndex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	rg := ix.Genome()
	if err := ix.ValidateGenome(rg); err != nil {
		t.Fatalf("reconstructed genome fails validation: %v", err)
	}
	p := Params{MaxMismatches: 3, Engine: EngineSeedIndex, SeedIndex: ix}
	orig, err := Search(g, guides, p)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := Search(rg, guides, p)
	if err != nil {
		t.Fatal(err)
	}
	diffTuples(t, "reconstructed genome", siteTuples(orig.Sites), siteTuples(recon.Sites))
}
