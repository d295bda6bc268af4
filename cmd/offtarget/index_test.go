package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cap-repro/crisprscan"
	"github.com/cap-repro/crisprscan/internal/seedindex"
)

// indexFixture builds a persistent index next to the CLI fixture.
func indexFixture(t *testing.T, genomePath string) string {
	t.Helper()
	g, err := crisprscan.LoadGenome(genomePath)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := crisprscan.BuildSeedIndex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "genome.csix")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunIndexMatchesFullScan: -index output must be byte-identical to
// the default full-scan output, with and without -genome alongside,
// and in streaming mode too.
func TestRunIndexMatchesFullScan(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 811)
	idxPath := indexFixture(t, genomePath)
	dir := t.TempDir()

	outputs := map[string]*config{
		"full.tsv":         {genomePath: genomePath, guidesPath: guidesPath, k: 3, pam: "NGG", workers: 1},
		"indexed.tsv":      {genomePath: genomePath, indexPath: idxPath, guidesPath: guidesPath, k: 3, pam: "NGG", workers: 1},
		"indexonly.tsv":    {indexPath: idxPath, guidesPath: guidesPath, k: 3, pam: "NGG", workers: 1},
		"indexstream.tsv":  {genomePath: genomePath, indexPath: idxPath, guidesPath: guidesPath, k: 3, pam: "NGG", workers: 1, stream: true},
		"indexostream.tsv": {indexPath: idxPath, guidesPath: guidesPath, k: 3, pam: "NGG", workers: 1, stream: true},
	}
	results := map[string][]byte{}
	for name, cfg := range outputs {
		cfg.outPath = filepath.Join(dir, name)
		if err := run(context.Background(), cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := os.ReadFile(cfg.outPath)
		if err != nil {
			t.Fatal(err)
		}
		results[name] = data
	}
	want := results["full.tsv"]
	if len(want) == 0 || !bytes.Contains(want, []byte("\n")) {
		t.Fatal("degenerate fixture: full scan produced no output")
	}
	for name, got := range results {
		if !bytes.Equal(got, want) {
			t.Errorf("%s (%d bytes) differs from full-scan output (%d bytes)", name, len(got), len(want))
		}
	}
}

func TestRunIndexRejectsOtherEngines(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 812)
	idxPath := indexFixture(t, genomePath)
	cfg := &config{genomePath: genomePath, indexPath: idxPath, guidesPath: guidesPath,
		k: 2, pam: "NGG", workers: 1, engineName: "cas-offinder"}
	err := run(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "seed-index engine") {
		t.Fatalf("want engine-conflict error, got %v", err)
	}
}

func TestRunIndexFailsClosedOnStaleReference(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 813)
	idxPath := indexFixture(t, genomePath)
	// Same shape, different content: regenerate the FASTA with another
	// seed so names and lengths line up but the bases do not.
	otherGenome, _, _ := cliFixture(t, 814)
	cfg := &config{genomePath: otherGenome, indexPath: idxPath, guidesPath: guidesPath,
		k: 2, pam: "NGG", workers: 1, outPath: filepath.Join(t.TempDir(), "out.tsv")}
	err := run(context.Background(), cfg)
	if !errors.Is(err, seedindex.ErrStale) {
		t.Fatalf("stale reference error %v, want ErrStale", err)
	}

	// Streaming has no up-front validation pass; the engine's scan-time
	// content-hash guard must refuse instead.
	cfg.stream = true
	err = run(context.Background(), cfg)
	if !errors.Is(err, seedindex.ErrStale) {
		t.Fatalf("stale streaming error %v, want ErrStale", err)
	}
}

func TestRunIndexCheckpointNeedsGenome(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 815)
	idxPath := indexFixture(t, genomePath)
	cfg := &config{indexPath: idxPath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 1,
		stream: true, ckptPath: filepath.Join(t.TempDir(), "scan.ckpt")}
	err := run(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "requires -genome") {
		t.Fatalf("want checkpoint/genome coupling error, got %v", err)
	}
}

// TestRunIndexRejectsRegion: a region is scanned as a chromosome of its
// own, which the index would blame as a stale reference. -index with
// -region is refused by name, with and without -genome, before
// anything is loaded.
func TestRunIndexRejectsRegion(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 815)
	idxPath := indexFixture(t, genomePath)
	for _, withGenome := range []bool{false, true} {
		cfg := &config{indexPath: idxPath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 1,
			region: "chr1:0-1000", outPath: filepath.Join(t.TempDir(), "out.tsv")}
		if withGenome {
			cfg.genomePath = genomePath
		}
		err := run(context.Background(), cfg)
		if err == nil || !strings.Contains(err.Error(), "-region") || errors.Is(err, seedindex.ErrStale) {
			t.Fatalf("-genome=%v: error %v, want a refusal naming -region that is not ErrStale", withGenome, err)
		}
	}
}
