package genome

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/fasta"
)

func TestFromFasta(t *testing.T) {
	recs := []*fasta.Record{
		{ID: "chr1", Seq: []byte("ACGTN")},
		{ID: "chr2", Seq: []byte("gg")},
	}
	g, err := FromFasta(recs)
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalLen() != 7 {
		t.Errorf("TotalLen = %d, want 7", g.TotalLen())
	}
	if g.Chrom("chr1") == nil || g.Chrom("chr3") != nil {
		t.Error("Chrom lookup wrong")
	}
	if g.Chroms[0].Seq[4] != dna.BadBase {
		t.Error("N must parse to BadBase")
	}
	if g.Chroms[1].Seq.String() != "GG" {
		t.Error("lower case must normalize")
	}
	for _, c := range g.Chroms {
		if c.Packed == nil {
			t.Fatal("packed form must be computed")
		}
		gw, ga := c.Packed.Words()
		ww, wa := dna.Pack(c.Seq).Words()
		if c.Packed.Len() != len(c.Seq) || !slices.Equal(gw, ww) || !slices.Equal(ga, wa) {
			t.Errorf("%s: packed planes differ from Pack(Seq)", c.Name)
		}
	}
}

func TestFromFastaErrors(t *testing.T) {
	if _, err := FromFasta(nil); err == nil {
		t.Error("empty record set must error")
	}
	dup := []*fasta.Record{{ID: "a", Seq: []byte("A")}, {ID: "a", Seq: []byte("C")}}
	if _, err := FromFasta(dup); err == nil {
		t.Error("duplicate chromosome must error")
	}
}

func TestWindow(t *testing.T) {
	g := New(Chromosome{Name: "c", Seq: dna.MustParseSeq("ACGTACGT")})
	w, err := g.Window("c", 2, 4)
	if err != nil || w.String() != "GTAC" {
		t.Errorf("Window = %v, %v", w, err)
	}
	if _, err := g.Window("c", 6, 4); err == nil {
		t.Error("out-of-range window must error")
	}
	if _, err := g.Window("x", 0, 1); err == nil {
		t.Error("unknown chromosome must error")
	}
}

func TestSynthesizeDeterminism(t *testing.T) {
	cfg := SynthConfig{Seed: 42, ChromLen: 5000, NumChroms: 2}
	a := Synthesize(cfg)
	b := Synthesize(cfg)
	if a.TotalLen() != 10000 {
		t.Fatalf("TotalLen = %d", a.TotalLen())
	}
	for i := range a.Chroms {
		if a.Chroms[i].Seq.String() != b.Chroms[i].Seq.String() {
			t.Fatal("same seed must produce identical genomes")
		}
	}
	c := Synthesize(SynthConfig{Seed: 43, ChromLen: 5000, NumChroms: 2})
	if a.Chroms[0].Seq.String() == c.Chroms[0].Seq.String() {
		t.Error("different seeds should differ")
	}
}

func TestSynthesizeGC(t *testing.T) {
	g := Synthesize(SynthConfig{Seed: 1, ChromLen: 200000, GC: 0.6, RepeatRate: 0})
	gcCount := 0
	for _, b := range g.Chroms[0].Seq {
		if b == dna.G || b == dna.C {
			gcCount++
		}
	}
	frac := float64(gcCount) / float64(g.TotalLen())
	if frac < 0.58 || frac > 0.62 {
		t.Errorf("GC fraction = %.3f, want ~0.60", frac)
	}
}

func TestSynthesizeNRuns(t *testing.T) {
	g := Synthesize(SynthConfig{Seed: 1, ChromLen: 1000000, NRunRate: 20, RepeatRate: 0})
	n := 0
	for _, b := range g.Chroms[0].Seq {
		if b == dna.BadBase {
			n++
		}
	}
	if n == 0 {
		t.Error("expected some N bases")
	}
}

func TestSampleGuides(t *testing.T) {
	g := Synthesize(SynthConfig{Seed: 5, ChromLen: 100000})
	pam := dna.MustParsePattern("NGG")
	guides := SampleGuides(g, 25, 20, pam, 9)
	if len(guides) != 25 {
		t.Fatalf("got %d guides, want 25", len(guides))
	}
	// Each guide must actually occur in the genome followed by a PAM.
	for i, guide := range guides {
		if len(guide) != 20 {
			t.Fatalf("guide %d has length %d", i, len(guide))
		}
		found := false
		gs := guide.String()
		for _, c := range g.Chroms {
			text := c.Seq.String()
			for off := 0; ; {
				j := strings.Index(text[off:], gs)
				if j < 0 {
					break
				}
				pos := off + j
				if pos+23 <= len(text) && pam.Matches(c.Seq[pos+20:pos+23]) {
					found = true
					break
				}
				off = pos + 1
			}
			if found {
				break
			}
		}
		if !found {
			t.Errorf("guide %d (%s) has no on-target site", i, gs)
		}
	}
}

func TestRandomGuides(t *testing.T) {
	a := RandomGuides(10, 20, 3)
	b := RandomGuides(10, 20, 3)
	if len(a) != 10 || len(a[0]) != 20 {
		t.Fatal("shape wrong")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Error("same seed must give same guides")
		}
	}
}

func TestPlantGroundTruth(t *testing.T) {
	g := Synthesize(SynthConfig{Seed: 11, ChromLen: 200000, NumChroms: 2})
	guides := RandomGuides(5, 20, 12)
	pam := dna.MustParsePattern("NGG")
	plan := PlantPlan{0: 2, 1: 2, 3: 2}
	sites, err := Plant(g, guides, pam, plan, 77)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 5*6 {
		t.Fatalf("got %d sites, want 30", len(sites))
	}
	for _, s := range sites {
		window, err := g.Window(s.Chrom, s.Pos, 23)
		if err != nil {
			t.Fatal(err)
		}
		if s.Strand == '-' {
			window = window.ReverseComplement()
		}
		spacer, pamSeq := window[:20], window[20:]
		if !pam.Matches(pamSeq) {
			t.Errorf("site %+v: PAM %s invalid", s, pamSeq)
		}
		got := dna.PatternFromSeq(guides[s.Guide]).Mismatches(spacer)
		if got != s.Mismatches {
			t.Errorf("site %+v: measured %d mismatches", s, got)
		}
	}
	// Packed form must reflect the mutations.
	for _, c := range g.Chroms {
		for i := 0; i < len(c.Seq); i += 997 {
			if c.Packed.Base(i) != c.Seq[i] {
				t.Fatal("packed form stale after Plant")
			}
		}
	}
}

func TestPlantTooSmallFails(t *testing.T) {
	g := Synthesize(SynthConfig{Seed: 1, ChromLen: 60})
	guides := RandomGuides(3, 20, 1)
	_, err := Plant(g, guides, dna.MustParsePattern("NGG"), PlantPlan{0: 5}, 1)
	if err == nil {
		t.Error("planting into a tiny genome must fail, not loop")
	}
}

func TestGenomeString(t *testing.T) {
	g := Synthesize(SynthConfig{Seed: 1, ChromLen: 100, NumChroms: 6})
	s := g.String()
	if !strings.Contains(s, "6 chroms") || !strings.Contains(s, "600 bp") {
		t.Errorf("String = %s", s)
	}
	if !strings.Contains(s, "...") {
		t.Errorf("many chromosomes should elide: %s", s)
	}
}

func TestLoadFastaRoundTrip(t *testing.T) {
	g := Synthesize(SynthConfig{Seed: 2, ChromLen: 500, NumChroms: 2, NRunRate: 1000})
	dir := t.TempDir()
	path := filepath.Join(dir, "g.fa")
	if err := fasta.WriteFile(path, g.ToFasta()); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFasta(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalLen() != g.TotalLen() {
		t.Fatalf("round trip length %d != %d", back.TotalLen(), g.TotalLen())
	}
	for i := range g.Chroms {
		if back.Chroms[i].Seq.String() != g.Chroms[i].Seq.String() {
			t.Fatalf("chromosome %d differs after round trip", i)
		}
	}
	if _, err := LoadFasta(filepath.Join(dir, "missing.fa")); err == nil {
		t.Error("missing file must error")
	}
}

func TestSynthesizePanicsOnZeroLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ChromLen 0 must panic")
		}
	}()
	Synthesize(SynthConfig{Seed: 1})
}

func TestRepeatsIncreaseSelfSimilarity(t *testing.T) {
	// A repeat-heavy genome must contain more duplicated 20-mers than a
	// repeat-free one.
	count20merDups := func(g *Genome) int {
		seen := map[uint64]bool{}
		dups := 0
		c := g.Chroms[0]
		for p := 0; p+20 <= len(c.Seq); p += 20 {
			k, ok := dna.KmerOf(c.Seq[p : p+20])
			if !ok {
				continue
			}
			if seen[k] {
				dups++
			}
			seen[k] = true
		}
		return dups
	}
	plain := Synthesize(SynthConfig{Seed: 3, ChromLen: 400_000, RepeatRate: 0})
	repeaty := Synthesize(SynthConfig{Seed: 3, ChromLen: 400_000, RepeatRate: 0.4, RepeatLen: 1000})
	if count20merDups(repeaty) <= count20merDups(plain) {
		t.Errorf("repeats should add duplicate 20-mers: %d vs %d", count20merDups(repeaty), count20merDups(plain))
	}
}

// BenchmarkLoadFasta times the whole ingest of a 6 Mbp FASTA file in 60
// column lines with N runs: read, line split, decode and pack.
func BenchmarkLoadFasta(b *testing.B) {
	g := Synthesize(SynthConfig{Seed: 1, ChromLen: 1_000_000, NumChroms: 6, NRunRate: 5})
	path := filepath.Join(b.TempDir(), "g.fa")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	w := fasta.NewWriter(f, 60)
	for _, rec := range g.ToFasta() {
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(g.TotalLen()))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := LoadFasta(path); err != nil {
			b.Fatal(err)
		}
	}
}
