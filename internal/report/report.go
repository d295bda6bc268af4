// Package report converts raw engine match events into resolved
// off-target sites: genomic coordinates, strand, verified mismatch
// counts, and human-readable alignments — the post-processing stage the
// paper's end-to-end measurements charge to the host.
//
// The per-event path allocates nothing: Collector.Add re-verifies an
// event against the chromosome and stores a pointer-free record, and
// Collector.Sites sorts the records, drops duplicates and renders the
// strings of every site into one backing string. Rows are encoded by
// AppendTSVRow and AppendBEDRow, which every writer shares.
package report

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

// Site is one resolved off-target site. The SiteSeq and Alignment
// strings of all the sites one Collector.Sites call returns are
// substrings of a single backing string, so keeping any one site keeps
// that whole string alive.
type Site struct {
	// Guide is the index into the searched guide set.
	Guide int
	// Chrom and Pos locate the site: Pos is the 0-based plus-strand
	// start of the full window (spacer plus PAM).
	Chrom string
	Pos   int
	// Strand is '+' or '-'.
	Strand byte
	// Mismatches is the verified spacer mismatch count.
	Mismatches int
	// SiteSeq is the guide-oriented site sequence (reverse complemented
	// for minus-strand sites), spacer followed by PAM.
	SiteSeq string
	// Alignment marks mismatched spacer positions with the genomic base
	// and matches with '.', guide-oriented (e.g. "..A....T....").
	Alignment string
}

// CodeFor encodes a (guide, strand) pair as an engine event code.
func CodeFor(guide int, strand byte) int32 {
	c := int32(guide) * 2
	if strand == '-' {
		c++
	}
	return c
}

// DecodeCode inverts CodeFor.
func DecodeCode(code int32) (guide int, strand byte) {
	guide = int(code / 2)
	strand = '+'
	if code%2 == 1 {
		strand = '-'
	}
	return guide, strand
}

// Resolver turns events from one chromosome into Sites.
type Resolver struct {
	Guides  []dna.Pattern // spacer patterns, guide-oriented
	PAMs    []dna.Pattern // acceptable PAM patterns (same length each)
	SiteLen int
	// PAM5 marks Cas12a-style geometry: in guide orientation the PAM
	// precedes the spacer (and SiteSeq reads PAM-then-spacer).
	PAM5 bool
	// MaxMismatches is the spacer mismatch budget k. An event whose
	// recount exceeds it fails verification, because an engine reported
	// a window outside the search. NewResolverOriented sets it to the
	// spacer length, which bounds nothing.
	MaxMismatches int
}

// NewResolver builds a resolver for a guide set. All guides must share a
// length, and all PAM patterns must share a length (multi-PAM searches
// such as NGG plus NAG pass several).
func NewResolver(guides []dna.Pattern, pams ...dna.Pattern) (*Resolver, error) {
	return NewResolverOriented(guides, false, pams...)
}

// NewResolverOriented is NewResolver with a selectable PAM side (pam5 =
// true for Cas12a-style 5' PAMs).
func NewResolverOriented(guides []dna.Pattern, pam5 bool, pams ...dna.Pattern) (*Resolver, error) {
	if len(guides) == 0 {
		return nil, fmt.Errorf("report: no guides")
	}
	for i, g := range guides {
		if len(g) != len(guides[0]) {
			return nil, fmt.Errorf("report: guide %d length differs", i)
		}
	}
	pamLen := 0
	if len(pams) > 0 {
		pamLen = len(pams[0])
		for i, p := range pams {
			if len(p) != pamLen {
				return nil, fmt.Errorf("report: PAM %d length differs", i)
			}
		}
	}
	return &Resolver{
		Guides: guides, PAMs: pams, SiteLen: len(guides[0]) + pamLen, PAM5: pam5,
		MaxMismatches: len(guides[0]),
	}, nil
}

// record is one verified site with no pointers: the unit Collector
// stores per event. Its strings are rendered only by Collector.Sites.
type record struct {
	pos    int
	chrom  int32 // index into Collector.chroms
	guide  int32
	mism   int32
	strand byte
}

// fault names the check an event failed in verify.
type fault uint8

const (
	faultNone   fault = iota
	faultCode         // guide code outside the guide set
	faultEnd          // window not inside the chromosome
	faultPAM          // no accepted PAM matches
	faultBudget       // spacer recount over MaxMismatches
)

// layout returns the guide-oriented offsets of the PAM and the spacer
// within a site window.
func (r *Resolver) layout() (pamAt, spacerAt int) {
	if r.PAM5 {
		return 0, r.SiteLen - len(r.Guides[0])
	}
	return len(r.Guides[0]), 0
}

// Lookup tables for verify and render. Indexed by a dna.Base (BadBase
// included): the base's singleton mask and letter, and the same for its
// complement; BadBase maps to the empty mask and 'N'. alignChar[m][ch]
// is the alignment letter for a site letter ch under a guide mask m:
// '.' where m accepts ch's base, else ch itself. A lookup rather than a
// compare keeps the alignment loop free of branches on mismatches.
var baseMask, complementMask [256]dna.Mask
var baseChar, complementChar [256]byte
var alignChar [16][256]byte

func init() {
	for i := range baseMask {
		b := dna.Base(i)
		baseMask[i], complementMask[i] = b.Mask(), b.Complement().Mask()
		baseChar[i], complementChar[i] = b.Char(), b.Complement().Char()
	}
	for m := range alignChar {
		for ch := range alignChar[m] {
			alignChar[m][ch] = byte(ch)
			if dna.Mask(m).Has(dna.BaseFromChar(byte(ch))) {
				alignChar[m][ch] = '.'
			}
		}
	}
}

// mismatches counts the bases of pattern p that reject window w read in
// guide orientation from offset at: w itself for a plus-strand site,
// its reverse complement for a minus one.
func mismatches(p dna.Pattern, w dna.Seq, at int, minus bool) int32 {
	n := int32(0)
	if minus {
		w = w[:len(w)-at]
		for i, m := range p {
			if m&complementMask[w[len(w)-1-i]] == 0 {
				n++
			}
		}
	} else {
		w = w[at:]
		for i, m := range p {
			if m&baseMask[w[i]] == 0 {
				n++
			}
		}
	}
	return n
}

// verify re-checks one event against chromosome c, reading the window
// in place: the guide code is in range, the window lies inside c, an
// accepted PAM matches, and the spacer recount is within MaxMismatches.
// It returns the site's record (chrom unset) and faultNone, or the
// check that failed.
//
//crisprlint:hotpath
func (r *Resolver) verify(c *genome.Chromosome, ev automata.Report) (record, fault) {
	guide, strand := DecodeCode(ev.Code)
	if guide < 0 || guide >= len(r.Guides) {
		return record{}, faultCode
	}
	pos := ev.End - r.SiteLen + 1
	if pos < 0 || ev.End >= len(c.Seq) {
		return record{}, faultEnd
	}
	rec := record{pos: pos, guide: int32(guide), strand: strand}
	w := c.Seq[pos : ev.End+1]
	minus := strand == '-'
	pamAt, spacerAt := r.layout()
	pamOK := len(r.PAMs) == 0
	for _, p := range r.PAMs {
		if mismatches(p, w, pamAt, minus) == 0 {
			pamOK = true
			break
		}
	}
	if !pamOK {
		return rec, faultPAM
	}
	rec.mism = mismatches(r.Guides[guide], w, spacerAt, minus)
	if int(rec.mism) > r.MaxMismatches {
		return rec, faultBudget
	}
	return rec, faultNone
}

// faultErr is the error for an event that verify rejected with f.
func (r *Resolver) faultErr(f fault, c *genome.Chromosome, ev automata.Report, rec record) error {
	switch f {
	case faultCode:
		return fmt.Errorf("report: event code %d outside guide set", ev.Code)
	case faultEnd:
		return fmt.Errorf("report: event end %d out of range on %s", ev.End, c.Name)
	case faultPAM:
		pamAt, _ := r.layout()
		text := make([]byte, r.textLen())
		r.render(text, c.Seq, rec)
		pam := text[pamAt : pamAt+r.SiteLen-len(r.Guides[0])]
		return fmt.Errorf("report: PAM %s invalid at %s:%d%c", pam, c.Name, rec.pos, rec.strand)
	}
	return fmt.Errorf("report: %d mismatches over budget %d at %s:%d%c (guide %d)",
		rec.mism, r.MaxMismatches, c.Name, rec.pos, rec.strand, rec.guide)
}

// textLen is the length of one site's text as render writes it.
func (r *Resolver) textLen() int { return r.SiteLen + len(r.Guides[0]) }

// render writes the text of rec's site into out, which holds textLen
// bytes: the guide-oriented site sequence (Site.SiteSeq), then the
// spacer alignment (Site.Alignment).
func (r *Resolver) render(out []byte, seq dna.Seq, rec record) {
	site, align := out[:r.SiteLen], out[r.SiteLen:]
	w := seq[rec.pos:][:len(site)]
	if rec.strand == '-' {
		for i := range site {
			site[i] = complementChar[w[len(w)-1-i]]
		}
	} else {
		for i := range site {
			site[i] = baseChar[w[i]]
		}
	}
	_, spacerAt := r.layout()
	spacer := site[spacerAt:][:len(align)]
	for i, m := range r.Guides[rec.guide][:len(align)] {
		align[i] = alignChar[m&15][spacer[i]]
	}
}

// site builds rec's Site from its text, as render wrote it.
func (r *Resolver) site(rec record, chrom, text string) Site {
	return Site{
		Guide:      int(rec.guide),
		Chrom:      chrom,
		Pos:        rec.pos,
		Strand:     rec.strand,
		Mismatches: int(rec.mism),
		SiteSeq:    text[:r.SiteLen],
		Alignment:  text[r.SiteLen:],
	}
}

// Resolve converts one event on chromosome c into a Site, re-verifying
// the match against the sequence. Engines that emitted a correct event
// always resolve successfully; an error indicates an engine bug.
func (r *Resolver) Resolve(c *genome.Chromosome, ev automata.Report) (Site, error) {
	rec, f := r.verify(c, ev)
	if f != faultNone {
		return Site{}, r.faultErr(f, c, ev, rec)
	}
	text := make([]byte, r.textLen())
	r.render(text, c.Seq, rec)
	return r.site(rec, c.Name, string(text)), nil
}

// Collector accumulates verified sites across chromosomes as compact
// records; Sites sorts them, drops duplicates and renders the Sites.
// Chromosomes are told apart by pointer, and each one passed to Add must
// stay unchanged until Sites has rendered its sites.
type Collector struct {
	resolver *Resolver
	recs     []record
	chroms   []*genome.Chromosome // record.chrom indexes this
	index    map[*genome.Chromosome]int32
	// Dropped counts duplicate events (multiple engine paths reporting
	// the same site). Sites counts them as it drops them.
	Dropped int
}

// NewCollector wraps a resolver.
func NewCollector(r *Resolver) *Collector {
	return &Collector{resolver: r, index: make(map[*genome.Chromosome]int32)}
}

// Add verifies one event on c and stores its record. Once the record
// slice has grown it allocates nothing, except one map entry for each
// new chromosome.
//
//crisprlint:hotpath
func (col *Collector) Add(c *genome.Chromosome, ev automata.Report) error {
	rec, f := col.resolver.verify(c, ev)
	if f != faultNone {
		return col.resolver.faultErr(f, c, ev, rec)
	}
	rec.chrom = col.chromIndex(c)
	if len(col.recs) == cap(col.recs) {
		// Double, where append would grow a large slice by a quarter
		// and allocate about five times the final size on the way.
		//crisprlint:allow hotpath the record slice doubles when full: one allocation per doubling, not per event
		col.recs = append(make([]record, 0, max(2*len(col.recs), 256)), col.recs...)
	}
	//crisprlint:allow hotpath never grows: the check above made room
	col.recs = append(col.recs, rec)
	return nil
}

// chromIndex returns c's index in col.chroms, adding it on first sight.
// Events arrive one chromosome at a time, so the last chromosome almost
// always matches and the map is consulted only when the chromosome
// changes.
func (col *Collector) chromIndex(c *genome.Chromosome) int32 {
	if n := len(col.chroms); n > 0 && col.chroms[n-1] == c {
		return int32(n - 1)
	}
	if i, ok := col.index[c]; ok {
		return i
	}
	i := int32(len(col.chroms))
	col.index[c] = i
	col.chroms = append(col.chroms, c)
	return i
}

// Sites returns the collected sites sorted by (chrom, pos, strand,
// guide), with duplicate events dropped and counted in Dropped.
func (col *Collector) Sites() []Site {
	slices.SortFunc(col.recs, col.compare)
	kept := col.recs[:0]
	for _, rec := range col.recs {
		if n := len(kept); n > 0 && kept[n-1] == rec {
			col.Dropped++
			continue
		}
		kept = append(kept, rec)
	}
	col.recs = kept

	r := col.resolver
	per := r.textLen()
	var text strings.Builder
	text.Grow(len(kept) * per)
	buf := make([]byte, per)
	for _, rec := range kept {
		r.render(buf, col.chroms[rec.chrom].Seq, rec)
		text.Write(buf)
	}
	all := text.String()
	sites := make([]Site, len(kept))
	for i, rec := range kept {
		sites[i] = r.site(rec, col.chroms[rec.chrom].Name, all[i*per:(i+1)*per])
	}
	return sites
}

// compare orders records by (chromosome name, pos, strand, guide), with
// the chromosome index breaking ties between equal names.
func (col *Collector) compare(a, b record) int {
	if a.chrom != b.chrom {
		if c := strings.Compare(col.chroms[a.chrom].Name, col.chroms[b.chrom].Name); c != 0 {
			return c
		}
	}
	if a.pos != b.pos {
		return cmp.Compare(a.pos, b.pos)
	}
	if a.strand != b.strand {
		return cmp.Compare(a.strand, b.strand)
	}
	if a.guide != b.guide {
		return cmp.Compare(a.guide, b.guide)
	}
	return cmp.Compare(a.chrom, b.chrom)
}

// Histogram counts sites per mismatch level.
func Histogram(sites []Site) map[int]int {
	h := make(map[int]int)
	for _, s := range sites {
		h[s.Mismatches]++
	}
	return h
}

// appendStr and appendByte append to a row buffer. They are the only
// places the row appenders grow it.
//
//crisprlint:hotpath
func appendStr(dst []byte, s string) []byte {
	//crisprlint:allow hotpath a row buffer grows until it holds the longest row; reused across rows it stops allocating
	return append(dst, s...)
}

//crisprlint:hotpath
func appendByte(dst []byte, c byte) []byte {
	//crisprlint:allow hotpath a row buffer grows until it holds the longest row; reused across rows it stops allocating
	return append(dst, c)
}

// AppendBEDRow appends s to dst as one BED6 row: chrom, start, end,
// name = guide index, score = 1000 less 150 per mismatch (floored at
// 0), strand. It allocates only when dst lacks room for the row.
//
//crisprlint:hotpath
func AppendBEDRow(dst []byte, s Site) []byte {
	dst = appendStr(dst, s.Chrom)
	dst = appendByte(dst, '\t')
	dst = strconv.AppendInt(dst, int64(s.Pos), 10)
	dst = appendByte(dst, '\t')
	dst = strconv.AppendInt(dst, int64(s.Pos+len(s.SiteSeq)), 10)
	dst = appendStr(dst, "\tguide")
	dst = strconv.AppendInt(dst, int64(s.Guide), 10)
	dst = appendByte(dst, '\t')
	dst = strconv.AppendInt(dst, int64(max(1000-150*s.Mismatches, 0)), 10)
	dst = appendByte(dst, '\t')
	dst = utf8.AppendRune(dst, rune(s.Strand))
	return appendByte(dst, '\n')
}

// AppendTSVRow appends s to dst as one TSV row: guide, chrom, pos,
// strand, mismatches, site and alignment. It allocates only when dst
// lacks room for the row.
//
//crisprlint:hotpath
func AppendTSVRow(dst []byte, s Site) []byte {
	dst = strconv.AppendInt(dst, int64(s.Guide), 10)
	dst = appendByte(dst, '\t')
	dst = appendStr(dst, s.Chrom)
	dst = appendByte(dst, '\t')
	dst = strconv.AppendInt(dst, int64(s.Pos), 10)
	dst = appendByte(dst, '\t')
	dst = utf8.AppendRune(dst, rune(s.Strand))
	dst = appendByte(dst, '\t')
	dst = strconv.AppendInt(dst, int64(s.Mismatches), 10)
	dst = appendByte(dst, '\t')
	dst = appendStr(dst, s.SiteSeq)
	dst = appendByte(dst, '\t')
	dst = appendStr(dst, s.Alignment)
	return appendByte(dst, '\n')
}

// writeRows encodes the rows of sites with appendRow into one reused
// buffer and writes it whenever it holds rowChunk bytes, so a file
// behind a small bufio.Writer takes few large writes.
func writeRows(w io.Writer, sites []Site, appendRow func([]byte, Site) []byte) error {
	buf := make([]byte, 0, rowChunk+256)
	for i := range sites {
		buf = appendRow(buf, sites[i])
		if len(buf) >= rowChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// rowChunk is the batch writers' write size.
const rowChunk = 64 << 10

// writeRow writes one row encoded by appendRow. A buffered writer
// (*bufio.Writer, or a checkpoint output) lends its free buffer space,
// so the row is encoded in place.
func writeRow(w io.Writer, s Site, appendRow func([]byte, Site) []byte) error {
	var buf []byte
	if bw, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		buf = bw.AvailableBuffer()
	}
	_, err := w.Write(appendRow(buf, s))
	return err
}

// WriteBED emits sites as BED6 intervals (0-based half-open, the
// genomics interchange convention); see AppendBEDRow for the columns.
func WriteBED(w io.Writer, sites []Site) error {
	return writeRows(w, sites, AppendBEDRow)
}

// WriteBEDRow emits one site as a BED6 row — the incremental unit the
// streaming CLI writes from its yield callback. It encodes with the
// same AppendBEDRow as WriteBED, so batch and streamed output are
// byte-identical by construction.
func WriteBEDRow(w io.Writer, s Site) error {
	return writeRow(w, s, AppendBEDRow)
}

// WriteTSV emits sites in a Cas-OFFinder-like tab-separated layout.
func WriteTSV(w io.Writer, sites []Site) error {
	if err := WriteTSVHeader(w); err != nil {
		return err
	}
	return writeRows(w, sites, AppendTSVRow)
}

// WriteTSVHeader emits the TSV column header line.
func WriteTSVHeader(w io.Writer) error {
	_, err := io.WriteString(w, "guide\tchrom\tpos\tstrand\tmismatches\tsite\talignment\n")
	return err
}

// WriteTSVRow emits one site as a TSV row (see WriteBEDRow on why rows
// are exposed individually).
func WriteTSVRow(w io.Writer, s Site) error {
	return writeRow(w, s, AppendTSVRow)
}
