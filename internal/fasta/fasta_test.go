package fasta

import (
	"bytes"
	"compress/gzip"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadBasic(t *testing.T) {
	in := ">chr1 test chromosome\nACGT\nacgt\n>chr2\nTTTT\n"
	recs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].ID != "chr1" || recs[0].Description != "test chromosome" {
		t.Errorf("header parse: %q / %q", recs[0].ID, recs[0].Description)
	}
	if string(recs[0].Seq) != "ACGTacgt" {
		t.Errorf("seq = %q", recs[0].Seq)
	}
	if recs[1].ID != "chr2" || string(recs[1].Seq) != "TTTT" {
		t.Errorf("record 2 wrong: %+v", recs[1])
	}
}

func TestReadCRLFAndNoTrailingNewline(t *testing.T) {
	in := ">a\r\nAC\r\nGT\r\n>b\r\nGG"
	recs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0].Seq) != "ACGT" || string(recs[1].Seq) != "GG" {
		t.Errorf("CRLF parse wrong: %+v", recs)
	}
}

func TestReadEmptyAndBlankLines(t *testing.T) {
	recs, err := ReadAll(strings.NewReader(""))
	if err != nil || len(recs) != 0 {
		t.Errorf("empty input: recs=%v err=%v", recs, err)
	}
	recs, err = ReadAll(strings.NewReader(">a\n\nAC\n\nGT\n\n"))
	if err != nil || len(recs) != 1 || string(recs[0].Seq) != "ACGT" {
		t.Errorf("blank lines: recs=%+v err=%v", recs, err)
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("ACGT\n")); err == nil {
		t.Error("sequence before header must error")
	}
	if _, err := ReadAll(strings.NewReader(">\nACGT\n")); err == nil {
		t.Error("empty ID must error")
	}
	if _, err := ReadAll(strings.NewReader(">a\nAC>GT\n")); err == nil {
		t.Error("'>' inside sequence must error")
	}
}

func TestStreamingNext(t *testing.T) {
	r := NewReader(strings.NewReader(">a\nAA\n>b\nCC\n"))
	rec, err := r.Next()
	if err != nil || rec.ID != "a" {
		t.Fatalf("first: %v %v", rec, err)
	}
	rec, err = r.Next()
	if err != nil || rec.ID != "b" {
		t.Fatalf("second: %v %v", rec, err)
	}
	if _, err = r.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	if _, err = r.Next(); err != io.EOF {
		t.Fatalf("Next after EOF must keep returning io.EOF, got %v", err)
	}
}

func TestWriteWrapAndRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	letters := []byte("ACGTN")
	var recs []*Record
	for i := 0; i < 5; i++ {
		seq := make([]byte, rng.Intn(500))
		for j := range seq {
			seq[j] = letters[rng.Intn(len(letters))]
		}
		recs = append(recs, &Record{ID: string(rune('a' + i)), Description: "d", Seq: seq})
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, 60)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if len(line) > 61 {
			t.Fatalf("line longer than wrap: %q", line)
		}
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip count: %d != %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].ID != recs[i].ID || !bytes.Equal(got[i].Seq, recs[i].Seq) {
			t.Errorf("record %d differs after round trip", i)
		}
	}
}

func TestWriteEmptyIDFails(t *testing.T) {
	w := NewWriter(io.Discard, 0)
	if err := w.Write(&Record{Seq: []byte("A")}); err == nil {
		t.Error("empty ID must fail")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.fa")
	in := []*Record{{ID: "chr1", Seq: []byte("ACGTACGT")}, {ID: "chr2", Seq: []byte("GG")}}
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || string(out[0].Seq) != "ACGTACGT" || out[1].ID != "chr2" {
		t.Errorf("file round trip wrong: %+v", out)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.fa")); err == nil {
		t.Error("missing file must error")
	}
}

func TestReadFileGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.fa.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	if _, err := gz.Write([]byte(">chrZ\nACGTACGT\n")); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "chrZ" || string(recs[0].Seq) != "ACGTACGT" {
		t.Errorf("gzip read: %+v", recs)
	}
	// A corrupt gzip header after the magic must error, not panic.
	bad := filepath.Join(dir, "bad.fa.gz")
	if err := os.WriteFile(bad, []byte{0x1f, 0x8b, 0x00}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Error("corrupt gzip must error")
	}
}

// randomBases returns n random upper-case bases.
func randomBases(rng *rand.Rand, n int) string {
	letters := "ACGT"
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// TestReadLinesAcrossBufferFills covers lines at and past the 64 KiB
// read buffer, where the Reader assembles a line from several fills;
// each input must also parse as the reference parser parses it.
func TestReadLinesAcrossBufferFills(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	chr := randomBases(rng, 200_000)
	l65535, l65536, l65537 := randomBases(rng, 65535), randomBases(rng, 65536), randomBases(rng, 65537)
	id, desc := "id"+strings.Repeat("x", 70_000), strings.Repeat("d", 70_000)
	tail := randomBases(rng, 100)
	cases := []struct {
		name string
		in   string
		want []Record
	}{
		{"single-line 200 kbp chromosome", ">chr1 one line\n" + chr + "\n>chr2\nACGT\n",
			[]Record{{ID: "chr1", Description: "one line", Seq: []byte(chr)}, {ID: "chr2", Seq: []byte("ACGT")}}},
		{"line of 65535 bytes", ">a\n" + l65535 + "\n" + tail + "\n",
			[]Record{{ID: "a", Seq: []byte(l65535 + tail)}}},
		{"line of 65536 bytes", ">a\n" + l65536 + "\n" + tail + "\n",
			[]Record{{ID: "a", Seq: []byte(l65536 + tail)}}},
		{"line of 65537 bytes", ">a\n" + l65537 + "\n" + tail + "\n",
			[]Record{{ID: "a", Seq: []byte(l65537 + tail)}}},
		{"header longer than the buffer", ">" + id + " " + desc + "\nACGT\n",
			[]Record{{ID: id, Description: desc, Seq: []byte("ACGT")}}},
		// The first fill of the long line ends on its '\r'; the '\n'
		// arrives with the next fill.
		{"CR last byte of a fill", ">a\n" + l65535 + "\r\n" + tail + "\r\n",
			[]Record{{ID: "a", Seq: []byte(l65535 + tail)}}},
		{"no trailing newline", ">a\n" + l65537 + "\n>b\n" + l65536,
			[]Record{{ID: "a", Seq: []byte(l65537)}, {ID: "b", Seq: []byte(l65536)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstReference(t, tc.in)
			got, err := ReadAll(strings.NewReader(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("%d records, want %d", len(got), len(tc.want))
			}
			for i, w := range tc.want {
				g := got[i]
				if g.ID != w.ID || g.Description != w.Description || !bytes.Equal(g.Seq, w.Seq) {
					t.Fatalf("record %d = {%.20q %.20q %d bytes}, want {%.20q %.20q %d bytes}",
						i, g.ID, g.Description, len(g.Seq), w.ID, w.Description, len(w.Seq))
				}
			}
		})
	}
}

// TestReadErrorLineNumbers pins the line an error names, including
// after a line assembled from several buffer fills.
func TestReadErrorLineNumbers(t *testing.T) {
	long := strings.Repeat("A", 70_000)
	for in, want := range map[string]string{
		">a\nAC\n\nG>T\n":               "fasta: line 4: '>' inside sequence data",
		">a\n" + long + "\nAC>\n":       "fasta: line 3: '>' inside sequence data",
		"\n\nACGT\n":                    "fasta: line 3: sequence data before any '>' header",
		">a\nAC\n>\nGT\n":               "fasta: line 4: sequence data before any '>' header",
		">a\r\n\r\n" + long + "\r\n>\t": "fasta: record with empty ID",
	} {
		checkAgainstReference(t, in)
		_, err := ReadAll(strings.NewReader(in))
		if err == nil || err.Error() != want {
			t.Errorf("%.12q...: error %v, want %q", in, err, want)
		}
	}
}

// TestNextRecordsOwnTheirBytes checks that a record keeps its sequence
// after later Next calls reuse the Reader's scratch, and that Seq is
// copied out at its exact size.
func TestNextRecordsOwnTheirBytes(t *testing.T) {
	in := ">a\nACGTACGT\nAC\n>b\nTTTTTTTTTTTTTTTT\n>c\nGG\n>d\n" + strings.Repeat("C", 100_000) + "\n"
	r := NewReader(strings.NewReader(in))
	var recs []*Record
	var kept [][]byte
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if cap(rec.Seq) != len(rec.Seq) {
			t.Errorf("%s: Seq cap %d, len %d", rec.ID, cap(rec.Seq), len(rec.Seq))
		}
		recs = append(recs, rec)
		kept = append(kept, bytes.Clone(rec.Seq))
	}
	for i, rec := range recs {
		if !bytes.Equal(rec.Seq, kept[i]) {
			t.Errorf("%s: Seq changed after later Next calls", rec.ID)
		}
	}
}
