package scanserve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/cap-repro/crisprscan"
	"github.com/cap-repro/crisprscan/internal/checkpoint"
	"github.com/cap-repro/crisprscan/internal/fasta"
)

// scanFixture synthesizes a 3-chromosome genome on disk plus a job
// spec whose guides are sampled from it (so the scan yields sites).
func scanFixture(t *testing.T) (genomePath string, spec JobSpec) {
	t.Helper()
	g := crisprscan.SynthesizeGenome(crisprscan.SynthConfig{Seed: 701, ChromLen: 30000, NumChroms: 3})
	guides, err := crisprscan.SampleGuides(g, 2, 20, "NGG", 702)
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
