package report

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

// refResolve is the original per-site resolver (a reverse-complemented
// window per minus-strand site, the alignment built in a
// strings.Builder), kept as the reference Collector and Resolve must
// agree with site for site and error for error. The final budget check
// is the one rule added since; the original never compared the recount
// with k.
func refResolve(r *Resolver, c *genome.Chromosome, ev automata.Report) (Site, error) {
	guide, strand := DecodeCode(ev.Code)
	if guide < 0 || guide >= len(r.Guides) {
		return Site{}, fmt.Errorf("report: event code %d outside guide set", ev.Code)
	}
	pos := ev.End - r.SiteLen + 1
	if pos < 0 || ev.End >= len(c.Seq) {
		return Site{}, fmt.Errorf("report: event end %d out of range on %s", ev.End, c.Name)
	}
	window := c.Seq[pos : pos+r.SiteLen]
	oriented := window
	if strand == '-' {
		oriented = window.ReverseComplement()
	}
	var spacer, pamSeq dna.Seq
	if r.PAM5 {
		pamLen := r.SiteLen - len(r.Guides[guide])
		pamSeq, spacer = oriented[:pamLen], oriented[pamLen:]
	} else {
		spacer, pamSeq = oriented[:len(r.Guides[guide])], oriented[len(r.Guides[guide]):]
	}
	pamOK := len(r.PAMs) == 0
	for _, p := range r.PAMs {
		if p.Matches(pamSeq) {
			pamOK = true
			break
		}
	}
	if !pamOK {
		return Site{}, fmt.Errorf("report: PAM %s invalid at %s:%d%c", pamSeq, c.Name, pos, strand)
	}
	g := r.Guides[guide]
	mism := 0
	var align strings.Builder
	for i, m := range g {
		if m.Has(spacer[i]) {
			align.WriteByte('.')
		} else {
			align.WriteByte(spacer[i].Char())
			mism++
		}
	}
	if mism > r.MaxMismatches {
		return Site{}, fmt.Errorf("report: %d mismatches over budget %d at %s:%d%c (guide %d)",
			mism, r.MaxMismatches, c.Name, pos, strand, guide)
	}
	return Site{
		Guide:      guide,
		Chrom:      c.Name,
		Pos:        pos,
		Strand:     strand,
		Mismatches: mism,
		SiteSeq:    oriented.String(),
		Alignment:  align.String(),
	}, nil
}

// refCollector is the original map-deduplicating collector.
type refCollector struct {
	r       *Resolver
	seen    map[refKey]bool
	sites   []Site
	dropped int
}

type refKey struct {
	guide  int
	chrom  string
	pos    int
	strand byte
}

func (col *refCollector) add(c *genome.Chromosome, ev automata.Report) error {
	site, err := refResolve(col.r, c, ev)
	if err != nil {
		return err
	}
	key := refKey{site.Guide, site.Chrom, site.Pos, site.Strand}
	if col.seen[key] {
		col.dropped++
		return nil
	}
	col.seen[key] = true
	col.sites = append(col.sites, site)
	return nil
}

func (col *refCollector) sorted() []Site {
	sort.Slice(col.sites, func(i, j int) bool {
		a, b := col.sites[i], col.sites[j]
		if a.Chrom != b.Chrom {
			return a.Chrom < b.Chrom
		}
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		if a.Strand != b.Strand {
			return a.Strand < b.Strand
		}
		return a.Guide < b.Guide
	})
	return col.sites
}

// refWriteTSV and refWriteBED are the original fmt.Fprintf writers.
func refWriteTSV(w io.Writer, sites []Site) {
	fmt.Fprintln(w, "guide\tchrom\tpos\tstrand\tmismatches\tsite\talignment")
	for _, s := range sites {
		fmt.Fprintf(w, "%d\t%s\t%d\t%c\t%d\t%s\t%s\n",
			s.Guide, s.Chrom, s.Pos, s.Strand, s.Mismatches, s.SiteSeq, s.Alignment)
	}
}

func refWriteBED(w io.Writer, sites []Site) {
	for _, s := range sites {
		score := 1000 - 150*s.Mismatches
		if score < 0 {
			score = 0
		}
		fmt.Fprintf(w, "%s\t%d\t%d\tguide%d\t%d\t%c\n",
			s.Chrom, s.Pos, s.Pos+len(s.SiteSeq), s.Guide, score, s.Strand)
	}
}

// fuzzBytes hands out the fuzzer's bytes, then zeros once they run out.
type fuzzBytes []byte

func (f *fuzzBytes) next() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

// fuzzMask draws a non-empty IUPAC mask, a single base three times in
// four.
func (f *fuzzBytes) fuzzMask() dna.Mask {
	b := f.next()
	if b&0xC0 != 0 {
		return dna.Base(b & 3).Mask()
	}
	return dna.Mask(1 + b%15)
}

// fuzzChrom draws a chromosome of up to 63 bases with runs of N.
func (f *fuzzBytes) fuzzChrom(name string) *genome.Chromosome {
	n := int(f.next() % 64)
	seq := make(dna.Seq, 0, n)
	for len(seq) < n {
		b := f.next()
		if b&0xF0 == 0 {
			for i := 0; i <= int(b&7) && len(seq) < n; i++ {
				seq = append(seq, dna.BadBase)
			}
			continue
		}
		seq = append(seq, dna.Base(b&3))
	}
	return &genome.Chromosome{Name: name, Seq: seq, Packed: dna.Pack(seq)}
}

// FuzzCollector drives Collector, Resolve and the writers against the
// reference implementation above. Inputs cover 3' and 5' PAM geometry,
// one to three degenerate PAMs, degenerate guides, a mismatch budget,
// two chromosomes with N runs whose events interleave, and event lists
// with duplicates, codes and ends out of range, and windows with no
// valid PAM. Both must give the same error (or none) for every event,
// the same sites and drop count, and byte-identical TSV and BED from
// the batch, per-row and bufio-backed row writers.
func FuzzCollector(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("\x03\x41\x82\xc1\x42\x83\xc0\x04\x00\x40\x51\x92\xd3\x44\x85\xc6\x07\x48\x89\xca\x0b\x2c\x4d\x8e\xcf\x10\x51\x92\x13\x14\x95\x16"))
	f.Add([]byte("\x05\x11\xc2\xc2\x02\x01\xff\x00\x3f\x41\x42\x43\x44\x45\x46\x47\x48\x49\x4a\x4b\x4c\x4d\x4e\x4f\x50\x51\x52\x53\x0a\x1f\x0b\x2f\x8c\x3f\x0d\x10\x0e\x20\x0f\x30"))
	f.Add(bytes.Repeat([]byte("\x9d\x47\x13\xe2\x5a\xc4\x38\x0f"), 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		flags := in.next()
		pams := make([]dna.Pattern, 1+int(flags>>1)%3)
		pamLen := 1 + int(flags>>3)%3
		for i := range pams {
			pams[i] = make(dna.Pattern, pamLen)
			for j := range pams[i] {
				pams[i][j] = in.fuzzMask()
			}
		}
		guides := make([]dna.Pattern, 1+int(flags>>5)%3)
		guideLen := 2 + int(in.next()%6)
		for i := range guides {
			guides[i] = make(dna.Pattern, guideLen)
			for j := range guides[i] {
				guides[i][j] = in.fuzzMask()
			}
		}
		r, err := NewResolverOriented(guides, flags&1 == 1, pams...)
		if err != nil {
			t.Fatal(err)
		}
		if b := in.next(); b&1 == 1 {
			r.MaxMismatches = int(b>>1) % (guideLen + 1)
		}
		// chrB precedes chrA in event order but follows it in the output.
		chroms := []*genome.Chromosome{in.fuzzChrom("chrB"), in.fuzzChrom("chrA")}

		col := NewCollector(r)
		ref := &refCollector{r: r, seen: make(map[refKey]bool)}
		var prev automata.Report
		var prevChrom *genome.Chromosome
		for len(in) > 0 {
			b := in.next()
			c, ev := prevChrom, prev
			if b&0x80 == 0 || prevChrom == nil {
				c = chroms[b&1]
				ev = automata.Report{
					Code: int32(int(b>>1&0x3F)%(2*len(guides)+2)) - 1,
					End:  int(in.next())%(len(c.Seq)+4) - 2,
				}
			}
			prev, prevChrom = ev, c
			gotErr, wantErr := col.Add(c, ev), ref.add(c, ev)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("Add(%s, %+v): error %v, reference %v", c.Name, ev, gotErr, wantErr)
			}
			site, gotErr := r.Resolve(c, ev)
			want, wantErr := refResolve(r, c, ev)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || site != want {
				t.Fatalf("Resolve(%s, %+v) = %+v, %v; reference %+v, %v", c.Name, ev, site, gotErr, want, wantErr)
			}
		}

		got, want := col.Sites(), ref.sorted()
		if !slices.Equal(got, want) {
			t.Fatalf("sites differ:\n got %+v\nwant %+v", got, want)
		}
		if col.Dropped != ref.dropped {
			t.Fatalf("dropped %d, reference %d", col.Dropped, ref.dropped)
		}
		checkWriters(t, got)
	})
}

// checkWriters compares every TSV and BED writer with the reference
// writers on sites.
func checkWriters(t *testing.T, sites []Site) {
	t.Helper()
	var wantTSV, wantBED bytes.Buffer
	refWriteTSV(&wantTSV, sites)
	refWriteBED(&wantBED, sites)

	var tsv, bed bytes.Buffer
	if err := WriteTSV(&tsv, sites); err != nil {
		t.Fatal(err)
	}
	if err := WriteBED(&bed, sites); err != nil {
		t.Fatal(err)
	}
	var rowTSV, rowBED, bufTSV, bufBED bytes.Buffer
	// A small bufio.Writer makes rows outgrow the buffer it lends.
	bwTSV, bwBED := bufio.NewWriterSize(&bufTSV, 16), bufio.NewWriterSize(&bufBED, 16)
	for _, w := range []io.Writer{&rowTSV, bwTSV} {
		if err := WriteTSVHeader(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sites {
		for _, err := range []error{
			WriteTSVRow(&rowTSV, s), WriteTSVRow(bwTSV, s),
			WriteBEDRow(&rowBED, s), WriteBEDRow(bwBED, s),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := bwTSV.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bwBED.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{
		"WriteTSV": tsv.Bytes(), "WriteTSVRow": rowTSV.Bytes(), "WriteTSVRow(bufio)": bufTSV.Bytes(),
	} {
		if !bytes.Equal(got, wantTSV.Bytes()) {
			t.Fatalf("%s:\n%q\nreference:\n%q", name, got, wantTSV.Bytes())
		}
	}
	for name, got := range map[string][]byte{
		"WriteBED": bed.Bytes(), "WriteBEDRow": rowBED.Bytes(), "WriteBEDRow(bufio)": bufBED.Bytes(),
	} {
		if !bytes.Equal(got, wantBED.Bytes()) {
			t.Fatalf("%s:\n%q\nreference:\n%q", name, got, wantBED.Bytes())
		}
	}
}
