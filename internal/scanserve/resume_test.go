package scanserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/cap-repro/crisprscan"
	"github.com/cap-repro/crisprscan/internal/checkpoint"
	"github.com/cap-repro/crisprscan/internal/fasta"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// scanFixture synthesizes a 3-chromosome genome on disk plus a job
// spec whose guides are sampled from it (so the scan yields sites).
func scanFixture(t *testing.T) (genomePath string, spec JobSpec) {
	return scanFixtureOf(t, 3, 30000, 2)
}

// scanFixtureOf is scanFixture with the chromosome count and length and
// the number of sampled guides chosen.
func scanFixtureOf(t *testing.T, chroms, chromLen, guideCount int) (genomePath string, spec JobSpec) {
	t.Helper()
	g := crisprscan.SynthesizeGenome(crisprscan.SynthConfig{Seed: 701, ChromLen: chromLen, NumChroms: chroms})
	guides, err := crisprscan.SampleGuides(g, guideCount, 20, "NGG", 702)
	if err != nil {
		t.Fatal(err)
	}
	genomePath = filepath.Join(t.TempDir(), "genome.fa")
	gf, err := os.Create(genomePath)
	if err != nil {
		t.Fatal(err)
	}
	fw := fasta.NewWriter(gf, 60)
	for _, rec := range g.ToFasta() {
		if err := fw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}
	gs := make([]GuideSpec, len(guides))
	for i, gu := range guides {
		gs[i] = GuideSpec{Name: gu.Name, Spacer: gu.Spacer}
	}
	return genomePath, JobSpec{Guides: gs, K: 3}
}

// runRealJob runs one job through the production scan path (no RunScan
// hook) on a fresh service over dir and returns the finished record and
// output bytes.
func runRealJob(t *testing.T, dir, genomePath string, spec JobSpec) (Job, []byte) {
	t.Helper()
	s, err := New(Config{Dir: dir, DefaultGenome: genomePath, QuotaRate: -1, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(10 * time.Second)
	job, err := s.SubmitTraced("", spec, "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, job.ID)
	if final.State != StateDone {
		t.Fatalf("job = %s (err %q), want done", final.State, final.Error)
	}
	out, err := os.ReadFile(s.store.outPath(&final))
	if err != nil {
		t.Fatal(err)
	}
	return final, out
}

// journalDoc mirrors the checkpoint journal's JSON for test surgery.
type journalDoc struct {
	Version     int                `json:"version"`
	Fingerprint string             `json:"fingerprint"`
	Entries     []checkpoint.Entry `json:"entries"`
}

// readJournal decodes the journal at path.
func readJournal(t *testing.T, path string) journalDoc {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc journalDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestCrashResumeByteIdentical is the tentpole invariant, in-process:
// a job whose process dies mid-scan — after chromosome 1 committed,
// with uncommitted partial rows of chromosome 2 already flushed past
// the watermark — must, on restart, resume and finish with output
// byte-identical to a never-interrupted run.
func TestCrashResumeByteIdentical(t *testing.T) {
	genomePath, spec := scanFixture(t)

	refJob, refBytes := runRealJob(t, t.TempDir(), genomePath, spec)
	if refJob.Sites == 0 {
		t.Fatal("fixture produced no sites; the byte-identity check would be vacuous")
	}
	if len(refBytes) == 0 {
		t.Fatal("reference output is empty")
	}

	// Fresh directory: run the same job to completion, then rewrite its
	// on-disk state to exactly what a kill -9 mid-chromosome-2 leaves:
	// record says running, journal has only chromosome 1, output holds
	// committed bytes plus an uncommitted torn suffix.
	dir := t.TempDir()
	job, fullBytes := runRealJob(t, dir, genomePath, spec)
	if !bytes.Equal(fullBytes, refBytes) {
		t.Fatal("uninterrupted runs differ; scan output is nondeterministic")
	}
	jobDir := filepath.Join(dir, job.ID)

	recPath := filepath.Join(jobDir, jobRecordName)
	var rec map[string]any
	recData, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(recData, &rec); err != nil {
		t.Fatal(err)
	}
	rec["state"] = string(StateRunning)
	delete(rec, "sites")
	recData, err = json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(recPath, recData, 0o644); err != nil {
		t.Fatal(err)
	}

	ckptPath := filepath.Join(jobDir, "scan.ckpt")
	var doc journalDoc
	ckptData, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ckptData, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Entries) != 3 {
		t.Fatalf("journal has %d entries, fixture wants 3", len(doc.Entries))
	}
	wm := doc.Entries[0].OutBytes
	if wm <= 0 || wm >= int64(len(fullBytes)) {
		t.Fatalf("chromosome-1 watermark %d not strictly inside the %d-byte output", wm, len(fullBytes))
	}
	doc.Entries = doc.Entries[:1]
	ckptData, err = json.Marshal(&doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckptPath, ckptData, 0o644); err != nil {
		t.Fatal(err)
	}

	outPath := filepath.Join(jobDir, "out.tsv")
	torn := append([]byte(nil), fullBytes[:wm]...)
	torn = append(torn, []byte("chr2\ttorn-uncommitted-row")...)
	if err := os.WriteFile(outPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart: the job must be recovered, resumed past chromosome 1
	// only, and finish with byte-identical output.
	s2, err := New(Config{Dir: dir, DefaultGenome: genomePath, QuotaRate: -1, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s2.Get(job.ID); got.State != StateQueued {
		t.Fatalf("recovered job state = %s, want queued", got.State)
	}
	s2.Start()
	defer s2.Drain(10 * time.Second)
	final := waitTerminal(t, s2, job.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job = %s (err %q), want done", final.State, final.Error)
	}
	resumed, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, refBytes) {
		t.Fatalf("resumed output differs from uninterrupted run: %d vs %d bytes", len(resumed), len(refBytes))
	}
	if final.Sites != refJob.Sites {
		t.Fatalf("resumed site count %d, want %d", final.Sites, refJob.Sites)
	}
	ckptData, err = os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	doc = journalDoc{}
	if err := json.Unmarshal(ckptData, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Entries) != 3 {
		t.Fatalf("resumed journal has %d entries, want 3", len(doc.Entries))
	}
}

// TestCrashStateSweep restarts a service on every on-disk state a kill
// -9 can leave one job in: the journal cut to its first i entries (i = 0
// leaves no journal), the output cut to watermark i, to watermark i plus
// half of the next row, or left whole, and the record queued or running
// with its site count gone. Every restart must finish the job done with
// byte-identical output, the reference site count and one journal entry
// per chromosome, scanning only the chromosomes past entry i.
func TestCrashStateSweep(t *testing.T) {
	genomePath, spec := scanFixtureOf(t, 5, 20000, 8)
	dir := t.TempDir()
	ref, full := runRealJob(t, dir, genomePath, spec)
	if ref.Sites == 0 {
		t.Fatal("fixture produced no sites; the sweep would be vacuous")
	}
	jobDir := filepath.Join(dir, ref.ID)
	doc := readJournal(t, filepath.Join(jobDir, "scan.ckpt"))
	n := len(doc.Entries)
	if n != 5 {
		t.Fatalf("journal has %d entries, fixture wants 5", n)
	}
	var rec map[string]any
	data, err := os.ReadFile(filepath.Join(jobDir, jobRecordName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	delete(rec, "sites")
	files, err := os.ReadDir(jobDir)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i <= n; i++ {
		wm := int64(0)
		if i > 0 {
			wm = doc.Entries[i-1].OutBytes
		}
		cuts := []int64{wm}
		if nl := bytes.IndexByte(full[wm:], '\n'); nl >= 0 {
			cuts = append(cuts, wm+int64(nl+1)/2)
		}
		if cuts[len(cuts)-1] != int64(len(full)) {
			cuts = append(cuts, int64(len(full)))
		}
		for _, cut := range cuts {
			for _, state := range []State{StateQueued, StateRunning} {
				t.Run(fmt.Sprintf("journal=%d,out=%d,%s", i, cut, state), func(t *testing.T) {
					copyDir := t.TempDir()
					cj := filepath.Join(copyDir, ref.ID)
					if err := os.Mkdir(cj, 0o755); err != nil {
						t.Fatal(err)
					}
					for _, f := range files {
						data, err := os.ReadFile(filepath.Join(jobDir, f.Name()))
						if err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(filepath.Join(cj, f.Name()), data, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					rec["state"] = string(state)
					data, err := json.Marshal(rec)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(cj, jobRecordName), data, 0o644); err != nil {
						t.Fatal(err)
					}
					ckpt := filepath.Join(cj, "scan.ckpt")
					if i == 0 {
						err = os.Remove(ckpt)
					} else {
						prefix := doc
						prefix.Entries = doc.Entries[:i]
						if data, err = json.Marshal(&prefix); err == nil {
							err = os.WriteFile(ckpt, data, 0o644)
						}
					}
					if err != nil {
						t.Fatal(err)
					}
					outPath := filepath.Join(cj, "out.tsv")
					if err := os.WriteFile(outPath, full[:cut], 0o644); err != nil {
						t.Fatal(err)
					}

					s, err := New(Config{Dir: copyDir, DefaultGenome: genomePath, QuotaRate: -1, Log: quietLogger()})
					if err != nil {
						t.Fatal(err)
					}
					s.Start()
					defer s.Drain(10 * time.Second)
					final := waitTerminal(t, s, ref.ID)
					if final.State != StateDone || final.Sites != ref.Sites {
						t.Fatalf("resumed job = %s with %d sites (err %q), want done with %d", final.State, final.Sites, final.Error, ref.Sites)
					}
					got, err := os.ReadFile(outPath)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, full) {
						t.Fatalf("resumed output differs from the uninterrupted run: %d vs %d bytes", len(got), len(full))
					}
					if back := readJournal(t, ckpt); len(back.Entries) != n {
						t.Fatalf("resumed journal has %d entries, want %d", len(back.Entries), n)
					}
					if scans := findSpans(flightTree(t, s, ref.ID).Root, "scan "); len(scans) != n-i {
						t.Fatalf("resume scanned %d chromosomes, want the %d past the journal", len(scans), n-i)
					}
				})
			}
		}
	}
}

// TestDrainCommitsCompletedChromosomes: a drain that cancels a running
// job mid-scan, well inside the one-second group-commit budget, must
// still journal every chromosome the attempt completed — the attempt's
// exit commits them — so the job re-queues with no rows past its last
// watermark and the successor resumes past all of them to byte-identical
// output.
func TestDrainCommitsCompletedChromosomes(t *testing.T) {
	genomePath, spec := scanFixtureOf(t, 40, 40000, 2)
	// The NFA interpreter keeps the scan running long enough for the
	// drain to land mid-genome.
	spec.Engine = "hyperscan-nfa"
	_, want := runRealJob(t, t.TempDir(), genomePath, spec)

	dir := t.TempDir()
	progs := make(chan *metrics.Progress, 1)
	s, err := New(Config{
		Dir: dir, DefaultGenome: genomePath, QuotaRate: -1, Log: quietLogger(), Workers: 1,
		OnScanStart: func(_ Job, _ *metrics.Recorder, prog *metrics.Progress) func() {
			progs <- prog
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	job, err := s.SubmitTraced("", spec, "")
	if err != nil {
		t.Fatal(err)
	}
	prog := <-progs
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	for prog.Snapshot().ChromsDone < 3 {
		select {
		case <-deadline.C:
			t.Fatal("job never completed three chromosomes")
		case <-time.After(time.Millisecond):
		}
	}
	if requeued := s.Drain(0); requeued != 1 {
		t.Fatalf("Drain requeued %d jobs, want the one mid-scan", requeued)
	}
	done := prog.Snapshot().ChromsDone
	doc := readJournal(t, filepath.Join(dir, job.ID, "scan.ckpt"))
	if len(doc.Entries) != done || done < 3 || done >= 40 {
		t.Fatalf("journal lists %d chromosomes after a drain at %d completed of 40, want all completed ones", len(doc.Entries), done)
	}
	out, err := os.ReadFile(filepath.Join(dir, job.ID, "out.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if wm := doc.Entries[len(doc.Entries)-1].OutBytes; int64(len(out)) != wm {
		t.Fatalf("drained output holds %d bytes, last watermark %d", len(out), wm)
	}

	s2, err := New(Config{Dir: dir, DefaultGenome: genomePath, QuotaRate: -1, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer s2.Drain(10 * time.Second)
	if final := waitTerminal(t, s2, job.ID); final.State != StateDone {
		t.Fatalf("resumed job = %s (err %q), want done", final.State, final.Error)
	}
	got, err := os.ReadFile(filepath.Join(dir, job.ID, "out.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed output differs from the uninterrupted run: %d vs %d bytes", len(got), len(want))
	}
	if scans := findSpans(flightTree(t, s2, job.ID).Root, "scan "); len(scans) != 40-done {
		t.Fatalf("resume scanned %d chromosomes, want the %d past the drain", len(scans), 40-done)
	}
}

// TestSeedIndexJobMatchesFullScan runs the same job through the
// default full-scan engine and the cache-shared seed index: the service
// must produce byte-identical output artifacts, proving the index path
// is exact end to end (cache build, stale guards, streamed emission).
func TestSeedIndexJobMatchesFullScan(t *testing.T) {
	genomePath, spec := scanFixture(t)
	refJob, full := runRealJob(t, t.TempDir(), genomePath, spec)
	if refJob.Sites == 0 {
		t.Fatal("fixture produced no sites; byte-identity would be vacuous")
	}
	idxSpec := spec
	idxSpec.Engine = "seed-index"
	idxJob, indexed := runRealJob(t, t.TempDir(), genomePath, idxSpec)
	if idxJob.Sites != refJob.Sites {
		t.Fatalf("seed-index job found %d sites, full scan %d", idxJob.Sites, refJob.Sites)
	}
	if !bytes.Equal(indexed, full) {
		t.Fatal("seed-index job output differs from the full-scan artifact")
	}
}

// TestResumedJobWithRemovedEngineFailsPermanent covers a job persisted
// before an upgrade that dropped its engine kind: submission validation
// no longer sees it, so on restart the job runs, fails to build its
// engine, and ends failed with a permanent class rather than retrying.
func TestResumedJobWithRemovedEngineFailsPermanent(t *testing.T) {
	genomePath, spec := scanFixture(t)
	dir := t.TempDir()
	blocked := make(chan struct{})
	s := testService(t, Config{
		Dir: dir, Workers: 1, DefaultGenome: genomePath,
		RunScan: func(ctx context.Context, job Job) error {
			close(blocked)
			<-ctx.Done()
			return ctx.Err()
		},
	})
	job, err := s.SubmitTraced("", spec, "")
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	// Rewrite the persisted record as an older release would have left
	// it: same job, an engine kind this release does not register.
	recPath := filepath.Join(dir, job.ID, jobRecordName)
	data, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec Job
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	rec.Spec.Engine = "hyperscan-dfa"
	if data, err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(recPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Dir: dir, DefaultGenome: genomePath, QuotaRate: -1, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer s2.Drain(5 * time.Second)
	final := waitTerminal(t, s2, job.ID)
	if final.State != StateFailed || final.ErrorClass != "permanent" || final.Retries != 0 {
		t.Fatalf("resumed job = %s class %q after %d retries (err %q), want failed, permanent, 0",
			final.State, final.ErrorClass, final.Retries, final.Error)
	}
	if !strings.Contains(final.Error, `unknown engine "hyperscan-dfa"`) {
		t.Errorf("error %q does not name the unknown engine", final.Error)
	}
	s.Drain(time.Second)
}
