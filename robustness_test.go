package crisprscan

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cap-repro/crisprscan/internal/fasta"
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
