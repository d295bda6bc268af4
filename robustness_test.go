package crisprscan

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cap-repro/crisprscan/internal/checkpoint"
	"github.com/cap-repro/crisprscan/internal/fasta"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// streamFixture builds a multi-chromosome genome, samples guides with
// planted-adjacent hits, and serializes the genome to a FASTA blob.
func streamFixture(t *testing.T, seed int64) ([]byte, []Guide) {
	t.Helper()
	g := SynthesizeGenome(SynthConfig{Seed: seed, ChromLen: 40000, NumChroms: 3})
	guides, err := SampleGuides(g, 3, 20, "NGG", seed+1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := fasta.NewWriter(&buf, 0)
	for _, rec := range g.ToFasta() {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), guides
}

func TestSearchStreamCheckpointResumeByteIdentical(t *testing.T) {
	blob, guides := streamFixture(t, 701)
	params := Params{MaxMismatches: 3}
	dir := t.TempDir()

	// Reference: one uninterrupted checkpointed run.
	var want bytes.Buffer
	wantStats, err := SearchStreamCheckpoint(context.Background(), bytes.NewReader(blob), guides,
		params, nil, filepath.Join(dir, "full.ckpt"), &want, false)
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.Events == 0 || want.Len() == 0 {
		t.Skip("fixture produced no sites; pick a different seed")
	}

	// Interrupted run: cancel from the flush hook right after the first
	// chromosome's rows are down, so exactly one chromosome commits.
	ckpt := filepath.Join(dir, "resumable.ckpt")
	var got bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	flushes := 0
	flush := func() error {
		flushes++
		if flushes == 1 {
			cancel()
		}
		return nil
	}
	stats, err := SearchStreamCheckpoint(ctx, bytes.NewReader(blob), guides, params,
		&StreamControl{ChromDone: func(string, int, int64) error { return flush() }}, ckpt, &got, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: want wrapped context.Canceled, got %v", err)
	}
	if stats == nil {
		t.Fatal("interrupted run must return partial Stats")
	}

	// Resume on the same inputs: journaled chromosome is skipped, the
	// remaining rows are appended, and the concatenation is
	// byte-identical to the uninterrupted run.
	resumeStats, err := SearchStreamCheckpoint(context.Background(), bytes.NewReader(blob), guides,
		params, nil, ckpt, &got, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("resumed output differs from uninterrupted run:\n got %d bytes\nwant %d bytes",
			got.Len(), want.Len())
	}
	// The resumed run must not have re-scanned the committed chromosome.
	if resumeStats.BytesScanned >= wantStats.BytesScanned {
		t.Fatalf("resume scanned %d bases, full run %d — journaled chromosome was re-scanned",
			resumeStats.BytesScanned, wantStats.BytesScanned)
	}
}

// TestSearchStreamCheckpointCancelCommitsPending: under the default
// one-second group-commit budget, a scan cancelled from ChromDone after
// chromosome 3 of 6 has made only chromosome 1 durable when the cancel
// lands. The exit-path commit journals chromosomes 2 and 3, so the
// resume scans only the last three chromosomes' bases and the output is
// byte-identical to an uninterrupted run.
func TestSearchStreamCheckpointCancelCommitsPending(t *testing.T) {
	g := SynthesizeGenome(SynthConfig{Seed: 703, ChromLen: 20000, NumChroms: 6})
	guides, err := SampleGuides(g, 3, 20, "NGG", 704)
	if err != nil {
		t.Fatal(err)
	}
	var fa bytes.Buffer
	w := fasta.NewWriter(&fa, 0)
	for _, rec := range g.ToFasta() {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	blob := fa.Bytes()
	params := Params{MaxMismatches: 3}
	dir := t.TempDir()

	var want bytes.Buffer
	if _, err := SearchStreamCheckpoint(context.Background(), bytes.NewReader(blob), guides,
		params, nil, filepath.Join(dir, "full.ckpt"), &want, false); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(dir, "cancelled.ckpt")
	fp := FingerprintParams(guides, params)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got bytes.Buffer
	sw := metrics.NewStopwatch()
	var elapsed float64
	done, durable := 0, -1
	_, err = SearchStreamCheckpoint(ctx, bytes.NewReader(blob), guides, params,
		&StreamControl{ChromDone: func(string, int, int64) error {
			if done++; done == 3 {
				elapsed = sw.Seconds()
				j, err := checkpoint.Open(ckpt, fp)
				if err != nil {
					return err
				}
				durable = j.Chroms()
				cancel()
			}
			return nil
		}}, ckpt, &got, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: want wrapped context.Canceled, got %v", err)
	}
	// The stopwatch started before the first commit, so under a second
	// here means the budget held chromosomes 2 and 3 back.
	if elapsed < 1 && durable != 1 {
		t.Fatalf("%d chromosomes durable when the cancel landed %.3fs in, want 1 (the rest wait for the next group commit)", durable, elapsed)
	}
	j, err := checkpoint.Open(ckpt, fp)
	if err != nil {
		t.Fatal(err)
	}
	if j.Chroms() != 3 {
		t.Fatalf("journal lists %d chromosomes after the cancel, want 3", j.Chroms())
	}

	resumed, err := SearchStreamCheckpoint(context.Background(), bytes.NewReader(blob), guides,
		params, nil, ckpt, &got, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("resumed output differs from uninterrupted run: %d vs %d bytes", got.Len(), want.Len())
	}
	rest := 0
	for _, c := range g.Chroms[3:] {
		rest += len(c.Seq)
	}
	if resumed.BytesScanned != rest {
		t.Fatalf("resume scanned %d bases, want the last three chromosomes' %d", resumed.BytesScanned, rest)
	}
}

func TestSearchStreamCheckpointRejectsChangedParams(t *testing.T) {
	blob, guides := streamFixture(t, 702)
	params := Params{MaxMismatches: 2}
	ckpt := filepath.Join(t.TempDir(), "scan.ckpt")

	var sink bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	flush := func() error { cancel(); return nil }
	if _, err := SearchStreamCheckpoint(ctx, bytes.NewReader(blob), guides, params,
		&StreamControl{ChromDone: func(string, int, int64) error { return flush() }}, ckpt, &sink, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("setup run: want cancellation, got %v", err)
	}

	for name, p := range map[string]Params{
		"mismatches": {MaxMismatches: 3},
		"pam":        {MaxMismatches: 2, PAM: "NAG"},
		"engine":     {MaxMismatches: 2, Engine: EngineCasOffinder},
	} {
		_, err := SearchStreamCheckpoint(context.Background(), bytes.NewReader(blob), guides, p,
			nil, ckpt, new(bytes.Buffer), false)
		if err == nil || !strings.Contains(err.Error(), "different parameters") {
			t.Errorf("%s change: resume must be rejected with a fingerprint error, got %v", name, err)
		}
	}
	// Changed guide set is rejected too.
	fewer := guides[:len(guides)-1]
	if _, err := SearchStreamCheckpoint(context.Background(), bytes.NewReader(blob), fewer, params,
		nil, ckpt, new(bytes.Buffer), false); err == nil || !strings.Contains(err.Error(), "different parameters") {
		t.Errorf("guide change: resume must be rejected, got %v", err)
	}
}

func TestFingerprintParamsDefaultsApplied(t *testing.T) {
	guides := []Guide{{Name: "g0", Spacer: "acgtacgtacgtacgtacgt"}}
	// Explicit defaults and zero values must fingerprint identically,
	// and spacer case must not matter.
	a := FingerprintParams(guides, Params{})
	b := FingerprintParams([]Guide{{Name: "other", Spacer: "ACGTACGTACGTACGTACGT"}},
		Params{PAM: "NGG", Engine: EngineHyperscan})
	if a != b {
		t.Fatalf("default normalization broken: %s vs %s", a, b)
	}
	if a == FingerprintParams(guides, Params{PAM: "NAG"}) {
		t.Fatal("PAM change must change the fingerprint")
	}
}

// TestFingerprintParamsPinned pins FingerprintParams' output: journals
// written by earlier builds of the CLI and the service carry these
// identities, and a change to the fingerprint would make every one of
// them refuse to resume.
func TestFingerprintParamsPinned(t *testing.T) {
	guides := []Guide{{Name: "g0", Spacer: "GGGTGGGGGGAGTTTGCTCC"}, {Name: "g1", Spacer: "acgtacgtacgtacgtacgt"}}
	for _, tc := range []struct {
		name string
		p    Params
		want string
	}{
		{"defaults", Params{}, "4cd10f64e002b7cf5578d8fd6c5840d3"},
		{"every field", Params{
			MaxMismatches: 4, PAM: "nrg", AltPAMs: []string{"NAG", "ngc"}, PAM5: true,
			PlusStrandOnly: true, Engine: EngineCasOT, SeedLen: 12, MaxSeedMismatches: 2,
		}, "9de9c2b924d3e33b8f7475be37318dec"},
	} {
		if got := FingerprintParams(guides, tc.p); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}
