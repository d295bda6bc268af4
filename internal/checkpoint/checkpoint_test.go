package checkpoint

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestOpenMissingFileIsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	j, err := Open(path, Fingerprint("a"))
	if err != nil {
		t.Fatal(err)
	}
	if j.Chroms() != 0 || j.Sites() != 0 || j.Done("chr1") {
		t.Fatalf("fresh journal not empty: %d chroms, %d sites", j.Chroms(), j.Sites())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("Open must not create the journal file before the first Commit")
	}
}

func TestCommitRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	fp := Fingerprint(CanonicalFields([]string{"ACGT"}, map[string]string{"k": "3"})...)
	j, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(Entry{Chrom: "chr1", Sites: 7, ScannedBases: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(Entry{Chrom: "chr2", Sites: 3, ScannedBases: 2500}); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Chroms() != 2 || j2.Sites() != 10 {
		t.Fatalf("reloaded journal has %d chroms / %d sites, want 2 / 10", j2.Chroms(), j2.Sites())
	}
	if !j2.Done("chr1") || !j2.Done("chr2") || j2.Done("chr3") {
		t.Fatal("Done map does not match committed entries")
	}
}

func TestDoubleCommitRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	j, err := Open(path, Fingerprint("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(Entry{Chrom: "chr1"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(Entry{Chrom: "chr1"}); err == nil {
		t.Fatal("second Commit of the same chromosome must error")
	}
}

func TestFingerprintMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	j, err := Open(path, Fingerprint("k=3"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(Entry{Chrom: "chr1"}); err != nil {
		t.Fatal(err)
	}
	_, err = Open(path, Fingerprint("k=4"))
	if err == nil {
		t.Fatal("fingerprint mismatch must be rejected")
	}
	if !strings.Contains(err.Error(), "different parameters") {
		t.Fatalf("mismatch error not actionable: %v", err)
	}
}

func TestCorruptJournalRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Fingerprint("a")); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt journal must be rejected, got %v", err)
	}
}

func TestCommitLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(filepath.Join(dir, "scan.ckpt"), Fingerprint("a"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"chr1", "chr2", "chr3"} {
		if err := j.Commit(Entry{Chrom: c}); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "scan.ckpt" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only scan.ckpt (temp files must be cleaned up)", names)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := CanonicalFields([]string{"ACGT", "TTTT"}, map[string]string{"k": "3", "pam": "NGG"})
	same := CanonicalFields([]string{"ACGT", "TTTT"}, map[string]string{"pam": "NGG", "k": "3"})
	if Fingerprint(base...) != Fingerprint(same...) {
		t.Fatal("label order must not change the fingerprint")
	}
	diffs := [][]string{
		CanonicalFields([]string{"ACGT"}, map[string]string{"k": "3", "pam": "NGG"}),
		CanonicalFields([]string{"TTTT", "ACGT"}, map[string]string{"k": "3", "pam": "NGG"}),
		CanonicalFields([]string{"ACGT", "TTTT"}, map[string]string{"k": "4", "pam": "NGG"}),
		CanonicalFields([]string{"ACGT", "TTTT"}, map[string]string{"k": "3", "pam": "NAG"}),
	}
	for i, d := range diffs {
		if Fingerprint(d...) == Fingerprint(base...) {
			t.Errorf("variant %d collides with the base fingerprint", i)
		}
	}
	// Length-prefixing means field boundaries cannot be confused.
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Fatal("field boundaries must be unambiguous")
	}
}

func TestCommitSyncsJournalDirectory(t *testing.T) {
	// Crash durability: the rename that installs a journal is not
	// durable until the parent directory is fsynced, so every Commit
	// must reach the directory-sync path. Count calls through the
	// swappable hook while keeping the real sync behavior.
	realSync := syncDir
	defer func() { syncDir = realSync }()
	var syncs int
	var lastDir string
	syncDir = func(dir string) error {
		syncs++
		lastDir = dir
		return realSync(dir)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "scan.ckpt")
	j, err := Open(path, Fingerprint("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(Entry{Chrom: "chr1", Sites: 2, ScannedBases: 100, OutBytes: 64}); err != nil {
		t.Fatal(err)
	}
	if syncs != 1 {
		t.Fatalf("Commit performed %d directory syncs, want exactly 1", syncs)
	}
	if lastDir != dir {
		t.Fatalf("Commit synced %q, want the journal's parent %q", lastDir, dir)
	}
	if err := j.Commit(Entry{Chrom: "chr2", Sites: 0, ScannedBases: 200, OutBytes: 96}); err != nil {
		t.Fatal(err)
	}
	if syncs != 2 {
		t.Fatalf("two Commits performed %d directory syncs, want 2", syncs)
	}
}

func TestCommitSurfacesDirectorySyncFailure(t *testing.T) {
	realSync := syncDir
	defer func() { syncDir = realSync }()
	injected := os.ErrPermission
	syncDir = func(dir string) error { return injected }

	path := filepath.Join(t.TempDir(), "scan.ckpt")
	j, err := Open(path, Fingerprint("a"))
	if err != nil {
		t.Fatal(err)
	}
	err = j.Commit(Entry{Chrom: "chr1"})
	if err == nil || !strings.Contains(err.Error(), "syncing journal directory") {
		t.Fatalf("Commit with failing directory sync returned %v, want a directory-sync error", err)
	}
}

func TestOutBytesWatermarkRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	fp := Fingerprint("a")
	j, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if j.OutBytes() != 0 {
		t.Fatalf("empty journal OutBytes = %d, want 0", j.OutBytes())
	}
	if err := j.Commit(Entry{Chrom: "chr1", OutBytes: 128}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(Entry{Chrom: "chr2", OutBytes: 321}); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if j2.OutBytes() != 321 {
		t.Fatalf("reloaded OutBytes = %d, want the last committed watermark 321", j2.OutBytes())
	}
}

func TestAtomicWriteFileInstallsAndSyncs(t *testing.T) {
	realSync := syncDir
	defer func() { syncDir = realSync }()
	syncs := 0
	syncDir = func(dir string) error {
		syncs++
		return realSync(dir)
	}

	path := filepath.Join(t.TempDir(), "job.json")
	if err := AtomicWriteFile(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "two" {
		t.Fatalf("AtomicWriteFile left %q, want the last write", data)
	}
	if syncs != 2 {
		t.Fatalf("AtomicWriteFile performed %d directory syncs, want 2", syncs)
	}
}

// TestOutputGroupCommits counts journal writes through syncDir: inside
// the budget, N chromosomes plus Flush write the journal twice (the
// first chromosome at once, the rest at Flush); with no budget each
// chromosome writes it. Either way every chromosome is journaled with
// the output size at its own last row.
func TestOutputGroupCommits(t *testing.T) {
	realSync, realEvery := syncDir, commitEvery
	defer func() { syncDir, commitEvery = realSync, realEvery }()
	writes := 0
	syncDir = func(dir string) error {
		writes++
		return realSync(dir)
	}
	const n = 6
	for _, tc := range []struct {
		every time.Duration
		want  int
	}{{time.Hour, 2}, {0, n}} {
		commitEvery, writes = tc.every, 0
		dir := t.TempDir()
		path := filepath.Join(dir, "scan.ckpt")
		j, err := Open(path, fuzzFingerprint)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dir, "out.tsv"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		o, err := j.Output(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			io.WriteString(o, "row"+strconv.Itoa(i)+"\n")
			if err := o.Commit("chr"+strconv.Itoa(i), 1, int64(100*(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := o.Flush(); err != nil {
			t.Fatal(err)
		}
		if writes != tc.want || o.Commits() != tc.want {
			t.Fatalf("budget %s: %d journal writes, %d commits; want %d", tc.every, writes, o.Commits(), tc.want)
		}
		back, err := Open(path, fuzzFingerprint)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range back.file.Entries {
			if e.OutBytes != int64(5*(i+1)) || e.ScannedBases != int64(100*(i+1)) {
				t.Fatalf("budget %s: entry %d = %+v, want its own watermarks", tc.every, i, e)
			}
		}
		if back.Chroms() != n {
			t.Fatalf("budget %s: journal lists %d chromosomes, want %d", tc.every, back.Chroms(), n)
		}
	}
}

// TestOutputFlushRetriesFailedCommit: a group commit that fails leaves
// its chromosomes pending, so the next Flush journals them all.
func TestOutputFlushRetriesFailedCommit(t *testing.T) {
	realSync, realEvery := syncDir, commitEvery
	defer func() { syncDir, commitEvery = realSync, realEvery }()
	commitEvery = time.Hour
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	j, err := Open(path, fuzzFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	o, err := j.Output(new(bytes.Buffer), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, chrom := range []string{"chr1", "chr2", "chr3"} {
		if err := o.Commit(chrom, 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	syncDir = func(string) error { return os.ErrPermission }
	if err := o.Flush(); err == nil {
		t.Fatal("Flush with a failing journal write returned nil")
	}
	syncDir = realSync
	if err := o.Flush(); err != nil {
		t.Fatalf("retried Flush: %v", err)
	}
	back, err := Open(path, fuzzFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if back.Chroms() != 3 || o.Commits() != 2 {
		t.Fatalf("journal lists %d chromosomes after %d commits, want 3 after 2", back.Chroms(), o.Commits())
	}
}
