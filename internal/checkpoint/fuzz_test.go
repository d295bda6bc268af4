package checkpoint

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzFingerprint is the identity every fuzzed journal is opened under.
var fuzzFingerprint = Fingerprint("fuzz")

// FuzzJournalOpen checks the journal decoder a resume trusts: any bytes
// either open as a journal whose Chroms, Sites and OutBytes match its
// entries and whose watermarks never decrease, or fail with a
// checkpoint: error — never a panic. An opened journal that takes one
// more Commit reopens with that entry added.
func FuzzJournalOpen(f *testing.F) {
	dir := f.TempDir()
	j, err := Open(filepath.Join(dir, "seed.ckpt"), fuzzFingerprint)
	if err != nil {
		f.Fatal(err)
	}
	for i, e := range []Entry{
		{Chrom: "chr1", Sites: 2, ScannedBases: 1000, OutBytes: 150},
		{Chrom: "chr2", Sites: 0, ScannedBases: 1800, OutBytes: 150},
		{Chrom: "chr3", Sites: 5, ScannedBases: 3000, OutBytes: 420},
	} {
		if err := j.Commit(e); err != nil {
			f.Fatal(i, err)
		}
	}
	real, err := os.ReadFile(filepath.Join(dir, "seed.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add(bytes.Replace(real, []byte(`"version": 1`), []byte(`"version": 2`), 1))
	f.Add(bytes.Replace(real, []byte(`"chr2"`), []byte(`"chr1"`), 1))
	f.Add(bytes.Replace(real, []byte(fuzzFingerprint), []byte(Fingerprint("other")), 1))
	f.Add(bytes.Replace(real, []byte(`"out_bytes": 420`), []byte(`"out_bytes": 100`), 1))
	f.Add(bytes.Replace(real, []byte(`"scanned_bases": 1000`), []byte(`"scanned_bases": -1`), 1))
	f.Add([]byte(`{"version":1,"fingerprint":"` + fuzzFingerprint + `","entries":null}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "scan.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path, fuzzFingerprint)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "checkpoint: ") {
				t.Fatalf("error %q lacks the checkpoint: prefix", err)
			}
			return
		}
		var doc journalFile
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("Open accepted bytes that do not decode: %v", err)
		}
		sites := 0
		var last Entry
		for _, e := range doc.Entries {
			if e.Sites < 0 || e.ScannedBases < last.ScannedBases || e.OutBytes < last.OutBytes {
				t.Fatalf("Open accepted a decreasing or negative entry %+v after %+v", e, last)
			}
			if !j.Done(e.Chrom) {
				t.Fatalf("journaled chromosome %q not done", e.Chrom)
			}
			sites += e.Sites
			last = e
		}
		if j.Chroms() != len(doc.Entries) || j.Sites() != sites || j.OutBytes() != last.OutBytes {
			t.Fatalf("journal reports %d chroms / %d sites / %d bytes, entries say %d / %d / %d",
				j.Chroms(), j.Sites(), j.OutBytes(), len(doc.Entries), sites, last.OutBytes)
		}

		if last.ScannedBases == math.MaxInt64 || last.OutBytes == math.MaxInt64 || sites == math.MaxInt {
			return
		}
		next := Entry{Chrom: "fuzz-next", Sites: 1, ScannedBases: last.ScannedBases + 1, OutBytes: last.OutBytes + 1}
		for j.Done(next.Chrom) {
			next.Chrom += "+"
		}
		if err := j.Commit(next); err != nil {
			t.Fatal(err)
		}
		back, err := Open(path, fuzzFingerprint)
		if err != nil {
			t.Fatalf("reopening after Commit: %v", err)
		}
		if back.Chroms() != len(doc.Entries)+1 || back.Sites() != sites+1 || back.OutBytes() != next.OutBytes || !back.Done(next.Chrom) {
			t.Fatalf("reopened journal has %d chroms / %d sites / %d bytes after committing %+v",
				back.Chroms(), back.Sites(), back.OutBytes(), next)
		}
	})
}

// TestOutputResumesAtWatermark: Output cuts the file back to the last
// watermark, writes the header only at byte 0, commits the output size
// with bases counted across runs, and refuses a file shorter than the
// watermark or a journal with sites but no watermark.
func TestOutputResumesAtWatermark(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scan.ckpt")
	outPath := filepath.Join(dir, "out.tsv")
	header := func(w io.Writer) error { _, err := io.WriteString(w, "H\n"); return err }
	open := func(content string) (*Journal, *os.File) {
		t.Helper()
		if err := os.WriteFile(outPath, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(outPath, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		j, err := Open(path, fuzzFingerprint)
		if err != nil {
			t.Fatal(err)
		}
		return j, f
	}

	j, f := open("stale bytes from an older run\n")
	o, err := j.Output(f, header)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(o, "row1\n")
	if err := o.Commit("chr1", 1, 100); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(outPath); string(got) != "H\nrow1\n" {
		t.Fatalf("fresh output = %q", got)
	}

	// A crash left a torn row past the watermark.
	j, f = open("H\nrow1\nro")
	if o, err = j.Output(f, header); err != nil {
		t.Fatal(err)
	}
	io.WriteString(o, "row2\n")
	if err := o.Commit("chr2", 1, 50); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(outPath); string(got) != "H\nrow1\nrow2\n" {
		t.Fatalf("resumed output = %q", got)
	}
	if j.OutBytes() != 12 || j.last().ScannedBases != 150 {
		t.Fatalf("watermarks %d bytes / %d bases, want 12 / 150", j.OutBytes(), j.last().ScannedBases)
	}

	j, f = open("H\nrow1\n")
	if _, err := j.Output(f, header); err == nil || !strings.Contains(err.Error(), "delete the journal") {
		t.Fatalf("short output: got %v", err)
	}

	legacy := filepath.Join(dir, "legacy.ckpt")
	old, err := Open(legacy, fuzzFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Commit(Entry{Chrom: "chr1", Sites: 3, ScannedBases: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := old.Output(new(bytes.Buffer), header); err == nil || !strings.Contains(err.Error(), "no output watermark") {
		t.Fatalf("journal without watermarks: got %v", err)
	}
}
