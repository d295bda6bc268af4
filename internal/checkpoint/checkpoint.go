// Package checkpoint makes long streaming scans resumable: a sidecar
// journal records each fully completed chromosome (name, site count,
// cumulative reference bases scanned, output size) together with a
// fingerprint of the search parameters, so an interrupted offtarget
// -stream run or scan-service job can be restarted and skip straight
// past the work it already finished — and a resume attempt with
// different parameters (a different k, PAM, or engine would produce a
// different site set) is rejected instead of silently stitching
// incompatible outputs together.
//
// The journal is a single JSON document rewritten via write-to-temp +
// rename, so a crash at any instant leaves either the previous journal
// or the new one on disk, never a torn file. Output writes the scan's
// rows exactly once on top of it and group-commits: the unit of
// recovery is one chromosome, but the unit of durability is a commit,
// which flushes and syncs the rows and then journals every
// chromosome recorded since the last one in one rewrite. Output commits
// at its first chromosome, then at most about once a second
// (commitEvery), and at Flush; a kill -9 therefore re-scans at most
// about a second of work plus the chromosome in flight. Each entry's
// output size is taken when its chromosome's last row is written, and a
// resume cuts the output back to the last journaled size before the
// re-scan appends, so rows past it are re-emitted, not duplicated.
package checkpoint

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/cap-repro/crisprscan/internal/metrics"
	"github.com/cap-repro/crisprscan/internal/report"
)

// Entry records one completed chromosome.
type Entry struct {
	// Chrom is the FASTA record ID.
	Chrom string `json:"chrom"`
	// Sites is the number of off-target sites the chromosome yielded.
	Sites int `json:"sites"`
	// ScannedBases is the cumulative reference bases scanned through the
	// end of this chromosome, across every run that added to the
	// journal.
	ScannedBases int64 `json:"scanned_bases"`
	// OutBytes is the size of the output once this chromosome's rows
	// are written; they are flushed and synced before the entry is
	// journaled (see Output).
	OutBytes int64 `json:"out_bytes,omitempty"`
}

// journalFile is the on-disk JSON shape.
type journalFile struct {
	// Version guards the format itself.
	Version int `json:"version"`
	// Fingerprint identifies the (params, guides) combination the
	// journal belongs to; see Fingerprint.
	Fingerprint string  `json:"fingerprint"`
	Entries     []Entry `json:"entries"`
}

const formatVersion = 1

// Journal is an open checkpoint journal.
type Journal struct {
	path string
	file journalFile
	done map[string]bool
}

// Fingerprint hashes an ordered list of parameter fields into the
// journal identity. Callers pass every knob that changes the site set
// (guides, k, PAMs, strand selection, engine); any difference yields a
// different fingerprint and Open rejects the resume.
func Fingerprint(fields ...string) string {
	h := sha256.New()
	for _, f := range fields {
		fmt.Fprintf(h, "%d:%s\n", len(f), f)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// Open loads the journal at path, creating an empty one (in memory
// only; nothing is written until the first Commit) if the file does not
// exist. A journal written under a different fingerprint is rejected.
func Open(path, fingerprint string) (*Journal, error) {
	j := &Journal{
		path: path,
		file: journalFile{Version: formatVersion, Fingerprint: fingerprint},
		done: make(map[string]bool),
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return j, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading journal: %w", err)
	}
	if err := json.Unmarshal(data, &j.file); err != nil {
		return nil, fmt.Errorf("checkpoint: journal %s is corrupt: %w", path, err)
	}
	if j.file.Version != formatVersion {
		return nil, fmt.Errorf("checkpoint: journal %s has format version %d, this build reads %d", path, j.file.Version, formatVersion)
	}
	if j.file.Fingerprint != fingerprint {
		return nil, fmt.Errorf("checkpoint: journal %s was written by a search with different parameters (fingerprint %s, this run %s): resume with the original guides/k/PAM/engine or delete the journal", path, j.file.Fingerprint, fingerprint)
	}
	var prev Entry
	for _, e := range j.file.Entries {
		if j.done[e.Chrom] {
			return nil, fmt.Errorf("checkpoint: journal %s lists chromosome %q twice", path, e.Chrom)
		}
		// A resume truncates the output to the last watermark, so a
		// watermark that shrinks would drop committed rows.
		if e.Sites < 0 || e.ScannedBases < prev.ScannedBases || e.OutBytes < prev.OutBytes {
			return nil, fmt.Errorf("checkpoint: journal %s entry %q has a negative count or a watermark below the entry before it; delete it and rerun", path, e.Chrom)
		}
		j.done[e.Chrom] = true
		prev = e
	}
	return j, nil
}

// Done reports whether the named chromosome is already journaled as
// complete.
func (j *Journal) Done(chrom string) bool { return j.done[chrom] }

// OutBytes returns the last committed output-size watermark (see
// Entry.OutBytes), or 0 for an empty journal.
func (j *Journal) OutBytes() int64 { return j.last().OutBytes }

// last returns the newest entry, or the zero Entry.
func (j *Journal) last() Entry {
	if n := len(j.file.Entries); n > 0 {
		return j.file.Entries[n-1]
	}
	return Entry{}
}

// Chroms returns the number of journaled chromosomes.
func (j *Journal) Chroms() int { return len(j.file.Entries) }

// Sites returns the total journaled site count.
func (j *Journal) Sites() int {
	n := 0
	for _, e := range j.file.Entries {
		n += e.Sites
	}
	return n
}

// Commit appends completed chromosomes and atomically rewrites the
// journal file once (write temp, fsync, rename, directory fsync). On
// error the in-memory journal is left as it was, so a later Commit of
// the same entries retries the write.
func (j *Journal) Commit(entries ...Entry) (err error) {
	n := len(j.file.Entries)
	defer func() {
		if err != nil {
			for _, e := range j.file.Entries[n:] {
				delete(j.done, e.Chrom)
			}
			j.file.Entries = j.file.Entries[:n]
		}
	}()
	for _, e := range entries {
		if j.done[e.Chrom] {
			return fmt.Errorf("checkpoint: chromosome %q committed twice", e.Chrom)
		}
		j.done[e.Chrom] = true
		j.file.Entries = append(j.file.Entries, e)
	}
	data, err := json.MarshalIndent(&j.file, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: encoding journal: %w", err)
	}
	return atomicWrite(j.path, append(data, '\n'))
}

// commitEvery is Output's group-commit budget: after its first commit,
// an Output makes a chromosome durable once this much wall time has
// passed since the last commit, and otherwise holds its entry for the
// next commit or Flush. It bounds both what a kill -9 re-scans (about
// this long plus the chromosome in flight) and what commits cost (at
// most one durable write per interval of scanning). Time, not a
// chromosome count, because contigs range from kilobases to hundreds of
// megabases. A variable so tests can lower it.
var commitEvery = time.Second

// Output writes a checkpointed scan's rows exactly once. Rows are
// buffered; a commit flushes and syncs them, then journals every
// chromosome recorded since the previous commit, each with the output
// size at its last row as its watermark. Opened on a resumed journal,
// Output first cuts the file back to the last watermark, so rows a
// crash left past it are dropped and re-emitted by the re-scan instead
// of duplicated.
type Output struct {
	j       *Journal
	bw      *bufio.Writer
	sync    func() error // nil when the destination cannot be synced
	n       int64        // output size once bw is flushed
	bases   int64        // bases journaled before this run
	pending []Entry      // recorded, not yet journaled
	commits int          // durable commits made
	since   metrics.Stopwatch
}

// Output positions out at the journal's watermark and returns the
// writer for the rest of the scan. When out can be truncated and
// positioned (an *os.File), the bytes past the watermark are cut off,
// and a file shorter than the watermark is an error. A destination that
// cannot be truncated must already hold exactly the committed bytes.
// header, when non-nil, writes the column header at byte 0 only.
func (j *Journal) Output(out io.Writer, header func(io.Writer) error) (*Output, error) {
	wm := j.OutBytes()
	if wm == 0 && j.Sites() > 0 {
		// Journals written before outputs carried a watermark: cutting
		// the output back to 0 and skipping the journaled chromosomes
		// would lose their rows.
		return nil, fmt.Errorf("checkpoint: journal %s lists %d sites but no output watermark; delete it and rerun", j.path, j.Sites())
	}
	if f, ok := out.(interface {
		io.Seeker
		Truncate(size int64) error
	}); ok {
		size, err := f.Seek(0, io.SeekEnd)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: sizing output: %w", err)
		}
		if size < wm {
			return nil, fmt.Errorf("checkpoint: output holds %d bytes but journal %s committed %d; delete the journal and rerun", size, j.path, wm)
		}
		if err := f.Truncate(wm); err != nil {
			return nil, fmt.Errorf("checkpoint: truncating output to watermark %d: %w", wm, err)
		}
		if _, err := f.Seek(wm, io.SeekStart); err != nil {
			return nil, fmt.Errorf("checkpoint: seeking output: %w", err)
		}
	}
	o := &Output{j: j, bw: bufio.NewWriter(out), n: wm, bases: j.last().ScannedBases}
	if s, ok := out.(interface{ Sync() error }); ok {
		o.sync = s.Sync
	}
	if wm == 0 && header != nil {
		if err := header(o); err != nil {
			return nil, fmt.Errorf("checkpoint: writing header: %w", err)
		}
	}
	return o, nil
}

// Write buffers p; it reaches the destination at the next commit or
// Flush.
func (o *Output) Write(p []byte) (int, error) {
	n, err := o.bw.Write(p)
	o.n += int64(n)
	return n, err
}

// AvailableBuffer lends the free space of the output buffer, as
// bufio.Writer does, so a row can be encoded in place before Write.
func (o *Output) AvailableBuffer() []byte { return o.bw.AvailableBuffer() }

// Commit records a completed chromosome whose rows have all been
// written, with the output size so far as its watermark. scannedBases
// counts this run's bases; the journal adds the bases of earlier runs.
// The first Commit is durable at once, so an unwritable output or
// journal fails after one chromosome; later entries become durable at
// the first Commit or Flush after commitEvery has passed since the last
// durable commit. It has the signature of the streaming search's
// chromosome-done hook.
func (o *Output) Commit(chrom string, sites int, scannedBases int64) error {
	o.pending = append(o.pending, Entry{Chrom: chrom, Sites: sites, ScannedBases: o.bases + scannedBases, OutBytes: o.n})
	if o.commits > 0 && o.since.ElapsedNanos() < int64(commitEvery) {
		return nil
	}
	return o.Flush()
}

// Flush writes the buffered rows out, syncs the destination, and
// journals every pending chromosome in one rewrite. Every exit from a
// checkpointed scan, failed or not, must call it, or the chromosomes
// recorded since the last commit are re-scanned on resume.
func (o *Output) Flush() error {
	if err := o.bw.Flush(); err != nil {
		return fmt.Errorf("checkpoint: flushing output: %w", err)
	}
	if o.sync != nil {
		if err := o.sync(); err != nil {
			return fmt.Errorf("checkpoint: syncing output: %w", err)
		}
	}
	if len(o.pending) == 0 {
		return nil
	}
	if err := o.j.Commit(o.pending...); err != nil {
		return err
	}
	o.pending = o.pending[:0]
	o.commits++
	o.since = metrics.NewStopwatch()
	return nil
}

// Commits returns the number of durable journal commits made.
func (o *Output) Commits() int { return o.commits }

// Stream is the one exactly-once protocol of a checkpointed scan, which
// the CLI and the scan service share. It opens the journal's Output on
// out, with TSV rows, or BED6 rows when bed is set, and runs scan with
// the streaming search's three hooks: skip reports the chromosomes the
// journal already holds, commit records a completed chromosome, and
// yield writes one row. It commits on every exit, failed or not, so a
// cancelled, drained or failed scan keeps the chromosomes it completed,
// and it returns the scan's error before the commit's. commits counts
// the durable commits made.
func (j *Journal) Stream(out io.Writer, bed bool, scan func(skip func(chrom string) bool, commit func(chrom string, sites int, scannedBases int64) error, yield func(report.Site) error) error) (commits int, err error) {
	header, row := report.WriteTSVHeader, report.WriteTSVRow
	if bed {
		header, row = nil, report.WriteBEDRow
	}
	o, err := j.Output(out, header)
	if err != nil {
		return 0, err
	}
	err = scan(j.Done, o.Commit, func(s report.Site) error { return row(o, s) })
	if ferr := o.Flush(); ferr != nil && err == nil {
		err = ferr
	}
	return o.Commits(), err
}

// atomicWrite replaces path with data via a same-directory temp file,
// rename, and a directory sync, so readers never observe a torn journal
// and the installed file survives power loss.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: creating temp journal: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: writing journal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: syncing journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: closing temp journal: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: installing journal: %w", err)
	}
	// The rename installed the new name in the directory, but that
	// directory entry itself lives in the parent directory's data: until
	// the directory is synced, a power loss can roll the rename back and
	// resurrect the previous journal — or, for a first write, no journal
	// at all. fsync the parent so a committed entry is really committed.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("checkpoint: syncing journal directory: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory; swappable so tests can both count the
// calls (proving every commit path reaches it) and simulate failure.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// AtomicWriteFile exposes the journal's crash-safe write primitive
// (temp file, fsync, rename, directory fsync) for other durable
// artifacts — the scan service persists its job records through it.
func AtomicWriteFile(path string, data []byte) error {
	return atomicWrite(path, data)
}

// CanonicalFields builds the fingerprint field list for a search: the
// guide spacers in order, then each labeled parameter. Keeping the
// serialization in one place means the library and any future tool
// fingerprint identically.
func CanonicalFields(spacers []string, labeled map[string]string) []string {
	fields := make([]string, 0, len(spacers)+len(labeled)+1)
	fields = append(fields, fmt.Sprintf("guides=%d", len(spacers)))
	fields = append(fields, spacers...)
	keys := make([]string, 0, len(labeled))
	for k := range labeled {
		keys = append(keys, k)
	}
	// Sorted for determinism regardless of map iteration order.
	sort.Strings(keys)
	for _, k := range keys {
		if strings.ContainsAny(k, "=\n") {
			// Labels are compile-time constants in this repo; reject
			// anything that would make the serialization ambiguous.
			panic("checkpoint: invalid fingerprint label " + k)
		}
		fields = append(fields, k+"="+labeled[k])
	}
	return fields
}
