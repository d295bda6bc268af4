package report

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

func TestCodeRoundTrip(t *testing.T) {
	for guide := 0; guide < 100; guide += 7 {
		for _, strand := range []byte{'+', '-'} {
			g, s := DecodeCode(CodeFor(guide, strand))
			if g != guide || s != strand {
				t.Fatalf("(%d,%c) -> %d -> (%d,%c)", guide, strand, CodeFor(guide, strand), g, s)
			}
		}
	}
}

func fixture(t *testing.T) (*Resolver, *genome.Chromosome, dna.Pattern) {
	t.Helper()
	guide := dna.PatternFromSeq(dna.MustParseSeq("ACGTA"))
	pam := dna.MustParsePattern("NGG")
	r, err := NewResolver([]dna.Pattern{guide}, pam)
	if err != nil {
		t.Fatal(err)
	}
	// Plus site ACGTA+AGG at 3; minus site = revcomp(TCGTA+TGG) at 14:
	// revcomp(TCGTATGG) = CCATACGA.
	seq := dna.MustParseSeq("TTTACGTAAGGTTTCCATACGATT")
	c := &genome.Chromosome{Name: "chrT", Seq: seq, Packed: dna.Pack(seq)}
	return r, c, guide
}

func TestResolvePlus(t *testing.T) {
	r, c, _ := fixture(t)
	site, err := r.Resolve(c, automata.Report{Code: CodeFor(0, '+'), End: 10})
	if err != nil {
		t.Fatal(err)
	}
	if site.Pos != 3 || site.Strand != '+' || site.Mismatches != 0 {
		t.Errorf("site = %+v", site)
	}
	if site.SiteSeq != "ACGTAAGG" {
		t.Errorf("SiteSeq = %s", site.SiteSeq)
	}
	if site.Alignment != "....." {
		t.Errorf("Alignment = %q", site.Alignment)
	}
}

func TestResolveMinus(t *testing.T) {
	r, c, _ := fixture(t)
	// Window CCATACGA at 14..21; oriented = TCGTATGG: spacer TCGTA has
	// 1 mismatch vs ACGTA (position 0), PAM TGG valid.
	site, err := r.Resolve(c, automata.Report{Code: CodeFor(0, '-'), End: 21})
	if err != nil {
		t.Fatal(err)
	}
	if site.Pos != 14 || site.Strand != '-' || site.Mismatches != 1 {
		t.Errorf("site = %+v", site)
	}
	if site.SiteSeq != "TCGTATGG" {
		t.Errorf("SiteSeq = %s", site.SiteSeq)
	}
	if site.Alignment != "T...." {
		t.Errorf("Alignment = %q", site.Alignment)
	}
}

func TestResolveErrors(t *testing.T) {
	r, c, _ := fixture(t)
	if _, err := r.Resolve(c, automata.Report{Code: 99, End: 10}); err == nil {
		t.Error("out-of-range code must error")
	}
	if _, err := r.Resolve(c, automata.Report{Code: 0, End: 3}); err == nil {
		t.Error("window before chromosome start must error")
	}
	if _, err := r.Resolve(c, automata.Report{Code: 0, End: 999}); err == nil {
		t.Error("end beyond chromosome must error")
	}
	// Event pointing at a non-PAM window.
	if _, err := r.Resolve(c, automata.Report{Code: 0, End: 12}); err == nil {
		t.Error("invalid PAM must error (engine-bug detector)")
	}
	// The minus site at 14 has one mismatch: over a budget of zero.
	tight := *r
	tight.MaxMismatches = 0
	if _, err := tight.Resolve(c, automata.Report{Code: CodeFor(0, '-'), End: 21}); err == nil || !strings.Contains(err.Error(), "chrT:14-") {
		t.Errorf("recount over the budget must error and name the site, got %v", err)
	}
}

func TestNewResolverErrors(t *testing.T) {
	if _, err := NewResolver(nil, nil); err == nil {
		t.Error("no guides must error")
	}
	gs := []dna.Pattern{dna.MustParsePattern("ACGT"), dna.MustParsePattern("ACGTA")}
	if _, err := NewResolver(gs, nil); err == nil {
		t.Error("ragged guides must error")
	}
}

func TestCollectorDedup(t *testing.T) {
	r, c, _ := fixture(t)
	col := NewCollector(r)
	ev := automata.Report{Code: CodeFor(0, '+'), End: 10}
	if err := col.Add(c, ev); err != nil {
		t.Fatal(err)
	}
	if err := col.Add(c, ev); err != nil {
		t.Fatal(err)
	}
	if len(col.Sites()) != 1 || col.Dropped != 1 {
		t.Errorf("dedup failed: %d sites, %d dropped", len(col.Sites()), col.Dropped)
	}
}

func TestCollectorSorting(t *testing.T) {
	guide := dna.PatternFromSeq(dna.MustParseSeq("ACGTA"))
	pam := dna.MustParsePattern("NGG")
	r, _ := NewResolver([]dna.Pattern{guide}, pam)
	seq := dna.MustParseSeq("ACGTAAGGTTTACGTAAGG")
	c := &genome.Chromosome{Name: "chrA", Seq: seq, Packed: dna.Pack(seq)}
	col := NewCollector(r)
	// Add in reverse order.
	if err := col.Add(c, automata.Report{Code: 0, End: 18}); err != nil {
		t.Fatal(err)
	}
	if err := col.Add(c, automata.Report{Code: 0, End: 7}); err != nil {
		t.Fatal(err)
	}
	sites := col.Sites()
	if len(sites) != 2 || sites[0].Pos != 0 || sites[1].Pos != 11 {
		t.Errorf("sorting wrong: %+v", sites)
	}
}

func TestHistogram(t *testing.T) {
	sites := []Site{{Mismatches: 0}, {Mismatches: 2}, {Mismatches: 2}, {Mismatches: 3}}
	h := Histogram(sites)
	if h[0] != 1 || h[2] != 2 || h[3] != 1 {
		t.Errorf("histogram = %v", h)
	}
}

func TestWriteTSV(t *testing.T) {
	var buf bytes.Buffer
	sites := []Site{{Guide: 1, Chrom: "chr2", Pos: 42, Strand: '-', Mismatches: 2, SiteSeq: "ACGTAAGG", Alignment: "..T.A"}}
	if err := WriteTSV(&buf, sites); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "guide\tchrom") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "1\tchr2\t42\t-\t2\tACGTAAGG\t..T.A") {
		t.Errorf("row missing: %q", out)
	}
}

func TestWriteBED(t *testing.T) {
	var buf bytes.Buffer
	sites := []Site{
		{Guide: 0, Chrom: "chr1", Pos: 10, Strand: '+', Mismatches: 0, SiteSeq: "ACGTAAGG"},
		{Guide: 2, Chrom: "chr2", Pos: 50, Strand: '-', Mismatches: 7, SiteSeq: "ACGTAAGG"},
	}
	if err := WriteBED(&buf, sites); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "chr1\t10\t18\tguide0\t1000\t+") {
		t.Errorf("BED line 1 wrong: %q", out)
	}
	if !strings.Contains(out, "chr2\t50\t58\tguide2\t0\t-") {
		t.Errorf("BED score must clamp at 0: %q", out)
	}
}

func TestCollectorAddAllocatesNothing(t *testing.T) {
	r, c, _ := fixture(t)
	col := NewCollector(r)
	ev := automata.Report{Code: CodeFor(0, '-'), End: 21}
	for i := 0; i < 1000; i++ {
		if err := col.Add(c, ev); err != nil {
			t.Fatal(err)
		}
	}
	// Sites drops the duplicates; the record slice keeps its capacity.
	if sites := col.Sites(); len(sites) != 1 {
		t.Fatalf("%d sites, want 1", len(sites))
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := col.Add(c, ev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Collector.Add allocates %v per event once its slice has grown", allocs)
	}
}

func TestRowAppendersAllocateNothing(t *testing.T) {
	s := Site{Guide: 12, Chrom: "chr2", Pos: 1234567, Strand: '-', Mismatches: 3, SiteSeq: "ACGTACGTACGTACGTACGTAGG", Alignment: "..T.A..............C"}
	buf := make([]byte, 0, 256)
	for name, appendRow := range map[string]func([]byte, Site) []byte{
		"AppendTSVRow": AppendTSVRow, "AppendBEDRow": AppendBEDRow,
	} {
		if allocs := testing.AllocsPerRun(100, func() { buf = appendRow(buf[:0], s) }); allocs != 0 {
			t.Errorf("%s allocates %v per row into a buffer with room", name, allocs)
		}
	}
}

// TestResolveLongWindow resolves every event end on both strands of a
// chromosome with N runs, for a 70-nt guide and a 3' PAM and for the
// same guide with a 5' PAM, so each window spans two 64-base steps of
// the planes. Resolve must agree with the reference resolver, which
// reads Seq, on a chromosome with Seq and on one with only its planes.
func TestResolveLongWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seq := make(dna.Seq, 400)
	for i := range seq {
		seq[i] = dna.Base(rng.Intn(4))
		if i%97 > 93 {
			seq[i] = dna.BadBase
		}
	}
	c := &genome.Chromosome{Name: "chrL", Seq: seq, Packed: dna.Pack(seq)}
	planes := &genome.Chromosome{Name: c.Name, Packed: c.Packed}
	guide := dna.PatternFromSeq(seq[100:170])
	guide[5], guide[66] = dna.MustParsePattern("N")[0], dna.MustParsePattern("R")[0]
	for _, pam5 := range []bool{false, true} {
		pam := dna.MustParsePattern("NGG")
		if pam5 {
			pam = dna.MustParsePattern("TTTV")
		}
		r, err := NewResolverOriented([]dna.Pattern{guide}, pam5, pam)
		if err != nil {
			t.Fatal(err)
		}
		sites := 0
		for end := -1; end <= len(seq); end++ {
			for _, strand := range []byte{'+', '-'} {
				ev := automata.Report{Code: CodeFor(0, strand), End: end}
				want, wantErr := refResolve(r, c, ev)
				for _, cc := range []*genome.Chromosome{c, planes} {
					got, err := r.Resolve(cc, ev)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) || got != want {
						t.Fatalf("pam5=%v Resolve(%+v) seq=%v = %+v, %v; reference %+v, %v",
							pam5, ev, cc.Seq != nil, got, err, want, wantErr)
					}
				}
				if wantErr == nil {
					sites++
				}
			}
		}
		if sites == 0 {
			t.Fatalf("pam5=%v: no event resolved, so the test compared only errors", pam5)
		}
	}
}
