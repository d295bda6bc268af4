// Package fasta reads and writes FASTA files. It is deliberately small:
// multi-record files, free line lengths, '>' headers with the first word
// taken as the record ID, and tolerant of Windows line endings. This is
// the on-disk interchange format between cmd/genomegen and cmd/offtarget,
// and the loader for real reference genomes.
package fasta

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// Record is one FASTA entry.
type Record struct {
	ID          string // first whitespace-delimited token after '>'
	Description string // remainder of the header line, if any
	Seq         []byte // raw sequence bytes, newlines stripped
}

// Reader streams records from FASTA input. It reads lines in place
// from its read buffer, so the only per-record allocations are the
// header string, the Record and its exact-size Seq.
type Reader struct {
	br      *bufio.Reader
	pending string // header line of the next record, without '>'
	done    bool
	lineNo  int
	seq     []byte // sequence scratch, reused across records
	long    []byte // assembly buffer for lines longer than br's buffer
}

// NewReader wraps r for FASTA parsing.
func NewReader(r io.Reader) *Reader { return newReaderSize(r, 1<<16) }

// newReaderSize is NewReader with a read buffer of size bytes (at least
// 16); lines longer than the buffer are assembled across fills.
func newReaderSize(r io.Reader, size int) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, size)}
}

// Next returns the next record, or io.EOF when input is exhausted.
// Trailing '\r' and '\n' are stripped from every line, blank lines are
// skipped, and a header line with nothing after '>' names no record.
func (r *Reader) Next() (*Record, error) {
	if r.done {
		return nil, io.EOF
	}
	header := r.pending
	r.pending = ""
	r.seq = r.seq[:0]
	for {
		line, err := r.readLine()
		r.lineNo++
		line = trimEOL(line)
		switch {
		case len(line) > 0 && line[0] == '>':
			if header == "" && len(r.seq) == 0 {
				header = string(line[1:])
				continue
			}
			r.pending = string(line[1:])
			return makeRecord(header, r.seq)
		case len(line) > 0:
			if header == "" {
				return nil, fmt.Errorf("fasta: line %d: sequence data before any '>' header", r.lineNo)
			}
			if bytes.IndexByte(line, '>') >= 0 {
				return nil, fmt.Errorf("fasta: line %d: '>' inside sequence data", r.lineNo)
			}
			r.seq = append(r.seq, line...)
		}
		if err == io.EOF {
			r.done = true
			if header == "" {
				return nil, io.EOF
			}
			return makeRecord(header, r.seq)
		}
		if err != nil {
			return nil, err
		}
	}
}

// readLine returns the next line with its '\n', or the final unterminated
// line with io.EOF, as bufio.Reader.ReadBytes would. The slice aliases
// the read buffer (or r.long for a line longer than it) and is valid
// until the next call.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	r.long = append(r.long[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = r.br.ReadSlice('\n')
		r.long = append(r.long, line...)
	}
	return r.long, err
}

// trimEOL strips every trailing '\r' and '\n'.
func trimEOL(line []byte) []byte {
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	return line
}

// makeRecord builds a record from a header and the sequence scratch,
// copying the sequence out at its exact size.
func makeRecord(header string, seq []byte) (*Record, error) {
	rec := &Record{}
	if len(seq) > 0 {
		b := make([]byte, len(seq)) // make+copy of a local: one allocation, not zeroed
		copy(b, seq)
		rec.Seq = b
	}
	if i := strings.IndexAny(header, " \t"); i >= 0 {
		rec.ID = header[:i]
		rec.Description = strings.TrimSpace(header[i+1:])
	} else {
		rec.ID = header
	}
	if rec.ID == "" {
		return nil, fmt.Errorf("fasta: record with empty ID")
	}
	return rec, nil
}

// ReadAll parses every record from r.
func ReadAll(r io.Reader) ([]*Record, error) {
	fr := NewReader(r)
	var out []*Record
	for {
		rec, err := fr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// ReadFile parses every record from the named file. Gzip-compressed
// files (how reference genomes usually ship) are detected by their
// magic bytes and decompressed transparently.
func ReadFile(path string) ([]*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var src io.Reader = br
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		defer gz.Close()
		src = gz
	}
	recs, err := ReadAll(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// Writer emits FASTA with fixed line wrapping.
type Writer struct {
	w    *bufio.Writer
	wrap int
}

// NewWriter returns a Writer wrapping sequences at wrap columns
// (default 70 if wrap <= 0).
func NewWriter(w io.Writer, wrap int) *Writer {
	if wrap <= 0 {
		wrap = 70
	}
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), wrap: wrap}
}

// Write emits one record.
func (w *Writer) Write(rec *Record) error {
	if rec.ID == "" {
		return fmt.Errorf("fasta: refusing to write record with empty ID")
	}
	if _, err := w.w.WriteString(">" + rec.ID); err != nil {
		return err
	}
	if rec.Description != "" {
		if _, err := w.w.WriteString(" " + rec.Description); err != nil {
			return err
		}
	}
	if err := w.w.WriteByte('\n'); err != nil {
		return err
	}
	for off := 0; off < len(rec.Seq); off += w.wrap {
		end := off + w.wrap
		if end > len(rec.Seq) {
			end = len(rec.Seq)
		}
		if _, err := w.w.Write(rec.Seq[off:end]); err != nil {
			return err
		}
		if err := w.w.WriteByte('\n'); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// WriteFile writes all records to the named file.
func WriteFile(path string, recs []*Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := NewWriter(f, 0)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
