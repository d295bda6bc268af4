package fasta

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// refReader is the original line-at-a-time parser (ReadBytes per line,
// bytes.TrimRight, a bytes.Buffer per record), kept as the reference
// the in-place Reader must agree with record for record and error for
// error.
type refReader struct {
	br      *bufio.Reader
	pending []byte
	done    bool
	lineNo  int
}

func (r *refReader) next() (*Record, error) {
	if r.done {
		return nil, io.EOF
	}
	header := r.pending
	r.pending = nil
	var seq bytes.Buffer
	for {
		line, err := r.br.ReadBytes('\n')
		r.lineNo++
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) > 0 && line[0] == '>':
			if header == nil && seq.Len() == 0 {
				header = append([]byte(nil), line[1:]...)
				continue
			}
			r.pending = append([]byte(nil), line[1:]...)
			return refRecord(header, seq.Bytes())
		case len(line) > 0:
			if header == nil {
				return nil, fmt.Errorf("fasta: line %d: sequence data before any '>' header", r.lineNo)
			}
			if i := bytes.IndexByte(line, '>'); i >= 0 {
				return nil, fmt.Errorf("fasta: line %d: '>' inside sequence data", r.lineNo)
			}
			seq.Write(line)
		}
		if err == io.EOF {
			r.done = true
			if header == nil {
				return nil, io.EOF
			}
			return refRecord(header, seq.Bytes())
		}
		if err != nil {
			return nil, err
		}
	}
}

func refRecord(header, seq []byte) (*Record, error) {
	h := string(header)
	rec := &Record{Seq: append([]byte(nil), seq...)}
	if i := strings.IndexAny(h, " \t"); i >= 0 {
		rec.ID = h[:i]
		rec.Description = strings.TrimSpace(h[i+1:])
	} else {
		rec.ID = h
	}
	if rec.ID == "" {
		return nil, fmt.Errorf("fasta: record with empty ID")
	}
	return rec, nil
}

func refReadAll(in string) ([]*Record, error) {
	r := &refReader{br: bufio.NewReaderSize(strings.NewReader(in), 1<<16)}
	var out []*Record
	for {
		rec, err := r.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// readAllSize is ReadAll through a Reader with a size-byte buffer, so
// short inputs exercise the long-line path.
func readAllSize(in string, size int) ([]*Record, error) {
	r := newReaderSize(strings.NewReader(in), size)
	var out []*Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// checkAgainstReference fails t unless the Reader, at the default
// buffer size and at the 16-byte minimum, returns the reference
// parser's records, or the same error.
func checkAgainstReference(t *testing.T, in string) []*Record {
	t.Helper()
	want, wantErr := refReadAll(in)
	for _, size := range []int{1 << 16, 16} {
		got, err := readAllSize(in, size)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("buffer %d: error %v, reference %v", size, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("buffer %d: %d records, reference %d", size, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.ID != w.ID || g.Description != w.Description || !bytes.Equal(g.Seq, w.Seq) {
				t.Fatalf("buffer %d: record %d = {%q %q %d bytes}, reference {%q %q %d bytes}",
					size, i, g.ID, g.Description, len(g.Seq), w.ID, w.Description, len(w.Seq))
			}
		}
	}
	return want
}

// FuzzReader checks the parser never panics, agrees with the reference
// parser on every input, and that successfully parsed records survive a
// write/read round trip.
func FuzzReader(f *testing.F) {
	f.Add(">a\nACGT\n")
	f.Add(">a desc\nACGT\nNNNN\n>b\nGG\n")
	f.Add("")
	f.Add(">\nACGT\n")
	f.Add("ACGT\n>late\nAC\n")
	f.Add(">crlf\r\nAC\r\nGT\r\n")
	f.Add(">a\n>\n>b\tx y \nAC\r\rGT\n\n>c")
	f.Add(">long-header-longer-than-sixteen-bytes desc\nACGTACGTACGTACGTACGTAC\r\nGT")
	f.Fuzz(func(t *testing.T, in string) {
		recs := checkAgainstReference(t, in)
		if recs == nil {
			return // malformed input rejected by both is fine; panics are not
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, 60)
		for _, rec := range recs {
			if strings.ContainsAny(string(rec.Seq), ">\n\r") {
				return // writer does not escape; such content round-trips lossily by design
			}
			if strings.ContainsAny(rec.ID, " \t\n\r") || strings.ContainsAny(rec.Description, "\n\r") {
				return
			}
			if err := w.Write(rec); err != nil {
				t.Fatalf("write of parsed record failed: %v", err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("round trip parse failed: %v", err)
		}
		if len(back) != len(recs) {
			t.Fatalf("round trip count %d != %d", len(back), len(recs))
		}
		for i := range recs {
			if back[i].ID != recs[i].ID || !bytes.Equal(back[i].Seq, recs[i].Seq) {
				t.Fatalf("record %d changed in round trip", i)
			}
		}
	})
}
